"""Uniform cell-centered lattices on intervals and rectangles.

Nodes sit at cell midpoints, strictly inside the domain, so the cell
weights h**dim tile the domain measure exactly.  Functions on a grid are
extended by zero outside the domain (homogeneous exterior condition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["GridError", "Grid", "DiscreteFunction", "refine"]


class GridError(ValueError):
    """Malformed lattice description."""


@dataclass(frozen=True)
class Grid:
    """Cell-centered uniform lattice over an interval or rectangle.

    ``bounds`` has shape (dim, 2); ``cells`` counts cells per axis.  The
    spacing h must be identical across axes, which constrains the bounds'
    aspect ratio.  Nodes are listed in lexicographic axis order, making all
    reductions over nodes deterministic.
    """

    dim: int
    bounds: np.ndarray
    cells: tuple[int, ...]
    h: float
    nodes: np.ndarray

    @staticmethod
    def build(bounds: Sequence, cells) -> "Grid":
        b = np.atleast_2d(np.asarray(bounds, dtype=float))
        if b.shape[1] != 2 or b.shape[0] not in (1, 2):
            raise GridError(f"bounds must be (dim, 2) with dim in {{1, 2}}, got {b.shape}")
        dim = b.shape[0]
        if np.any(b[:, 1] <= b[:, 0]):
            raise GridError("upper bounds must exceed lower bounds")
        if np.isscalar(cells):
            cells = (int(cells),) * dim
        cells = tuple(int(c) for c in cells)
        if len(cells) != dim or any(c < 1 for c in cells):
            raise GridError(f"need one positive cell count per axis, got {cells}")
        extents = b[:, 1] - b[:, 0]
        hs = extents / np.asarray(cells)
        h = float(hs[0])
        if np.any(np.abs(hs - h) > 1e-12 * h):
            raise GridError(f"cell spacing must match across axes, got {hs}")
        axes = [b[k, 0] + h * (np.arange(cells[k]) + 0.5) for k in range(dim)]
        if dim == 1:
            nodes = axes[0][:, None]
        else:
            X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
            nodes = np.column_stack([X.ravel(), Y.ravel()])
        if nodes.shape[0] < 2:
            raise GridError("a grid needs at least two nodes")
        return Grid(dim, b, cells, h, nodes)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def node_weight(self) -> float:
        """Quadrature weight h**dim carried by every node."""
        return self.h**self.dim

    @property
    def measure(self) -> float:
        return float(np.prod(self.bounds[:, 1] - self.bounds[:, 0]))

    @property
    def key(self) -> tuple:
        return (self.dim, self.bounds.tobytes(), self.cells)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.ones(pts.shape[0], dtype=bool)
        for k in range(self.dim):
            inside &= (pts[:, k] > self.bounds[k, 0]) & (pts[:, k] < self.bounds[k, 1])
        return inside

    def boundary_distance(self, points: np.ndarray | None = None) -> np.ndarray:
        """Distance to the domain boundary (interior points only)."""
        pts = self.nodes if points is None else np.atleast_2d(np.asarray(points, float))
        d = np.full(pts.shape[0], np.inf)
        for k in range(self.dim):
            d = np.minimum(d, pts[:, k] - self.bounds[k, 0])
            d = np.minimum(d, self.bounds[k, 1] - pts[:, k])
        return d

    def node_index(self, point) -> int:
        """Index of the lattice node at the given interior coordinate."""
        p = np.asarray(point, dtype=float).reshape(self.dim)
        idx = []
        for k in range(self.dim):
            j = int(round((p[k] - self.bounds[k, 0]) / self.h - 0.5))
            if not (0 <= j < self.cells[k]):
                raise GridError(f"point {p} is outside the lattice")
            if abs(self.bounds[k, 0] + (j + 0.5) * self.h - p[k]) > 1e-9 * self.h:
                raise GridError(f"interior point {p} is not on the lattice")
            idx.append(j)
        if self.dim == 1:
            return idx[0]
        return idx[0] * self.cells[1] + idx[1]


def refine(grid: Grid) -> Grid:
    """Same domain with every cell split in two per axis."""
    return Grid.build(grid.bounds, tuple(2 * c for c in grid.cells))


@dataclass(frozen=True)
class DiscreteFunction:
    """Nodal values on a grid, implicitly zero outside the domain."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.node_count,):
            raise GridError(
                f"expected {self.grid.node_count} nodal values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("nodal values must be finite")

    def value_at(self, point) -> float:
        """Value at a point: nodal value on the lattice, zero outside."""
        p = np.asarray(point, dtype=float).reshape(self.grid.dim)
        if not bool(self.grid.contains(p[None, :])[0]):
            return 0.0
        return float(self.values[self.grid.node_index(p)])

    def with_values(self, values: np.ndarray) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, values)

    def scaled(self, c: float) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, self.values * c)
