"""Module boundaries of the package: which module may touch which internals."""

import ast
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import fglap
from fglap import Grid, OperatorParams
from fglap.cli import _KEYS
from fglap.operator import _Kernel
from fglap.solver import SolveOptions

_PACKAGE = Path(fglap.__file__).parent

# the lattice layer: the kernel's tables and their row-block accessors, the
# row-block rule, the upper-pair order and the distances between nodes
_LATTICE = {
    "dist",
    "qs_offsets",
    "wop_offsets",
    "wen_offsets",
    "ray_scale",
    "ray_w",
    "_tri",
    "_reflect",
    "_lattice_view",
    "_views",
    "_offset_rows",
    "_upper",
    "upper_quotients",
    "upper_weights",
    "_row_blocks",
    "_row_step",
    "_upper_mask",
    "_distances",
    # the spectral preconditioner's table and transforms
    "_spectrum",
    "_fractional_spectrum",
    "fft",
    "rfftn",
    "irfftn",
}
# what other modules may read of a kernel: its grid and parameters and the
# preconditioner the solver applies
_KERNEL_SURFACE = {"grid", "params", "precondition"}
# the growth-function layer: the log-log tables and the replayed root finds
_TABLES = {"_KNOTS", "_GUESS_MIN", "_panel_integral", "_LogLogTable", "_replay_bisection"}


def _referenced_names(path: Path) -> set:
    """Every name a module loads, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize(
    "owner, private", [("operator.py", _LATTICE), ("young.py", _TABLES)]
)
def test_internals_stay_in_their_module(owner, private):
    modules = sorted(_PACKAGE.glob("*.py"))
    assert owner in {m.name for m in modules}
    leaks = {
        m.name: sorted(_referenced_names(m) & private)
        for m in modules
        if m.name != owner
    }
    assert {name: found for name, found in leaks.items() if found} == {}


def test_lattice_names_cover_the_kernel():
    # every array a kernel stores and every method it has is a lattice name
    # or on its surface, so the check above follows the kernel as it grows
    kern = _Kernel(Grid.build([[0.0, 1.0], [0.0, 1.0]], (4, 4)), OperatorParams(s=0.5))
    members = set(vars(kern)) | {n for n in vars(_Kernel) if not n.startswith("__")}
    assert members - _KERNEL_SURFACE - _LATTICE == set()


def _declared_dependencies() -> set:
    """Distribution names in pyproject.toml's [project].dependencies."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower() for d in deps}


def test_runtime_imports_are_declared():
    # every absolute import of the package is the standard library, fglap
    # itself or a declared dependency, so an install from pyproject.toml runs
    allowed = set(sys.stdlib_module_names) | {"fglap"} | _declared_dependencies()
    undeclared = {}
    for module in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names} - allowed
            if top:
                undeclared.setdefault(module.name, set()).update(top)
    assert undeclared == {}


def _reads(path: Path, owner: str) -> set:
    """What a module reads of the variable ``owner``: keys as owner["k"] or
    owner.get("k", ...), and attributes as owner.attr."""

    def is_owner(node):
        return isinstance(node, ast.Name) and node.id == owner

    def key(node):
        return node.value if isinstance(node, ast.Constant) else None

    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and is_owner(node.value):
            read.add(node.attr)
        elif isinstance(node, ast.Subscript) and is_owner(node.value):
            read.add(key(node.slice))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and is_owner(node.func.value)
        ):
            read.add(key(node.args[0]))
    return read


def test_every_config_key_and_solve_option_is_read():
    # a key or option that nothing reads is a knob that does nothing
    assert set(_KEYS) - _reads(_PACKAGE / "cli.py", "cfg") == set()
    options = {f.name for f in fields(SolveOptions)}
    assert options - _reads(_PACKAGE / "solver.py", "opts") == set()


def test_no_vector_bisection_in_the_package():
    # the conjugate and the inverse are tables on G's own knots; no module
    # brings back the vector bisection they replaced
    names = ("_bisect_increasing", "_geometric_mid")
    found = {
        m.name: [n for n in names if n in m.read_text()]
        for m in sorted(_PACKAGE.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_no_full_row_pair_reader_in_the_package():
    # the operator and the Newton Hessian read the pairs i < j that the
    # energy reads; no module brings back the full-row readers that formed
    # every pair twice
    names = {"qs_rows", "wop_rows", "quotients"}
    found = {}
    for module in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        hits = (defined | _referenced_names(module)) & names
        if hits:
            found[module.name] = sorted(hits)
    assert found == {}
