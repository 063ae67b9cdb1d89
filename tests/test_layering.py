"""Module boundaries of the package: which module may touch which internals."""

import ast
import re
import sys
from pathlib import Path

import pytest

import fglap

_PACKAGE = Path(fglap.__file__).parent

# the lattice layer: kernel arrays, the row-block rule, the upper-pair order
# and the distances between nodes
_LATTICE = {
    "qs",
    "wop",
    "pair_wen",
    "ray_dist",
    "ray_scale",
    "ray_w",
    "_tri",
    "_row_blocks",
    "_row_step",
    "_upper_mask",
    "_distances",
    "upper_quotients",
}
# the growth-function layer: the log-log tables and the replayed root finds
_TABLES = {"_KNOTS", "_panel_integral", "_LogLogTable", "_replay_bisection"}


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
