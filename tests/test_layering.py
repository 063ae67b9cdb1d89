"""Module boundaries of the package: which module may touch which internals."""

import ast
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
