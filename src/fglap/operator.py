"""Grid discretization of the nonlocal g-Laplacian and its modular energy.

The operator at a node x is the principal-value integral of g applied to
the s-Hoelder quotient (u(x) - u(y)) / |x-y|**s against the kernel
|x-y|**(-n-s).  Interior node pairs are summed with midpoint weights and
the diagonal excluded; the symmetric lattice realizes the principal value
for the odd integrand.  The zero exterior is integrated exactly in the
radial variable: along a ray leaving the domain at distance d, substituting
sigma = |u(x)| r**(-s) gives

    int_d^inf g(|u| r**(-s)) r**(-1-s) dr = G(|u| d**(-s)) / (s |u|),
    int_d^inf G(|u| r**(-s)) r**(-1)   dr = Ghat(|u| d**(-s)) / s,

with Ghat(x) = int_0^x G(sigma)/sigma dsigma, a smooth primitive tabulated
once per growth function.  In 1d the two rays make the exterior closed
form; in 2d only a smooth angular integral remains, evaluated with Gauss
panels split at the corner directions of each node.  Ghat' = G(x)/x exactly,
so the nodal gradient identity

    grad energy = 2 * h**n * operator(u)

holds exactly, exterior terms included.

The discrete energy is the double sum over ordered node pairs plus the
interior-by-exterior part.  Node order is fixed, so results are
deterministic for a fixed BLAS thread count.  The operator's row sums are
numpy pairwise sums, but the energy reduces with ``np.dot``, a BLAS call
whose last bit can depend on the thread count.

Every pair computation runs over node rows in blocks of about ``_BLOCK``
elements: the kernel build, the operator and its stationarity bands, the
energy, the pair samples and tests, and the Newton Hessian in the solver.
Only the kernel's own arrays are N x N or pair-length: the dense quotient
scales and operator weights and the energy weights of the pairs i < j,
20 bytes per node pair.  The blocking moves no bit: every element sees the
same operations in the same order, each row sum is taken over its whole
contiguous row, and the energy fills one pair-length vector block by block
and reduces it with a single ``np.dot``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .grids import DiscreteFunction, Grid
from .young import (
    WeightedSamples,
    YoungFunction,
    modular,
    luxemburg_scale,
    _gauss,
    _KNOTS,
    _LogLogTable,
    _panel_integral,
)

__all__ = [
    "OperatorParams",
    "s_quotient",
    "apply_operator",
    "energy",
    "energy_gradient",
    "gagliardo_seminorm",
    "pair_samples",
    "get_kernel",
]


@dataclass(frozen=True)
class OperatorParams:
    """Nonlocal-operator parameters: the smoothness order s."""

    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"smoothness order must lie in (0, 1), got {self.s}")


# Gauss points per angular panel of the 2d exterior ray integrals
_THETA_ORDER = 16


class _Kernel:
    """Precomputed pairwise and exterior geometry for one (grid, params).

    Holds the dense N x N quotient scales ``qs`` = |x_i - x_j|**(-s) and
    operator weights ``wop`` (both zero on the diagonal) and the energy
    weights ``pair_wen`` of the pairs i < j in row-major order: 20 bytes per
    node pair, filled one row block at a time.
    """

    def __init__(self, grid: Grid, params: OperatorParams):
        self.grid = grid
        self.params = params
        s, n, h = params.s, grid.dim, grid.h
        pts = grid.nodes
        N = grid.node_count
        self._tri = _upper_mask(_row_step(N), N)
        self.qs = np.empty((N, N))
        self.wop = np.empty((N, N))
        self.pair_wen = np.empty(N * (N - 1) // 2)
        at = 0
        for rows in _row_blocks(N):
            D = _distances(pts, rows)
            upper = D[:, rows.start :][self._upper(rows)]
            self.pair_wen[at : at + len(upper)] = 2.0 * h ** (2 * n) * upper ** (-n)
            at += len(upper)
            own = np.arange(rows.stop - rows.start)
            D[own, rows.start + own] = 1.0  # placeholder, masked below
            self.qs[rows] = D**(-s)
            self.qs[rows][own, rows.start + own] = 0.0
            self.wop[rows] = h**n * D ** (-(n + s))
            self.wop[rows][own, rows.start + own] = 0.0
        if n == 1:
            a, b = grid.bounds[0]
            x = pts[:, 0]
            # exterior ray exit distances and unit angular weights per ray
            self.ray_dist = np.column_stack([x - a, b - x])
            self.ray_w = np.ones_like(self.ray_dist)
        else:
            self.ray_dist, self.ray_w = _angular_rays(grid)
        self.ray_scale = self.ray_dist ** (-s)

    def quotients(self, v: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Pair quotients (v_i - v_j) |x_i - x_j|**(-s) for the nodes i in
        rows against every node j, zero on the diagonal."""
        return (v[rows, None] - v[None, :]) * self.qs[rows]

    def _upper(self, rows: slice) -> np.ndarray:
        """Mask of the pairs i < j in the rectangle rows x [rows.start, N)."""
        return self._tri[: rows.stop - rows.start, : self.grid.node_count - rows.start]

    def upper_quotients(self, v: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (rows, q) per row block: q holds the quotients of the pairs
        i < j with i in rows, in row-major order.  Chained over the blocks
        they run through the pairs in the order of ``pair_wen``."""
        for rows in _row_blocks(len(v), upper=True):
            q = (v[rows, None] - v[None, rows.start :]) * self.qs[rows, rows.start :]
            yield rows, q[self._upper(rows)]

    def pair_nodes(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """Node indices (i, j) of the pairs in the block of ``rows``, in the
        order ``upper_quotients`` yields them."""
        a, c = np.nonzero(self._upper(rows))
        return rows.start + a, rows.start + c


# elements per block of a pair pass (256 KiB of float64): large enough to
# amortize numpy's per-call cost, small enough to stay in L2 and to keep a
# block's temporaries from growing and trimming the heap on every block
# (a 512-cell degiorgi command took 150k minor page faults at twice this
# size, 22k at this one)
_BLOCK = 1 << 15


def _row_step(N: int) -> int:
    """Rows per block of a pair pass over N nodes."""
    return min(N, max(1, _BLOCK // N))


def _row_blocks(N: int, upper: bool = False) -> list[slice]:
    """Row slices of a pair pass over N nodes.  With ``upper`` the last row,
    which has no pair i < j, is left out, so no block is empty."""
    end = N - 1 if upper else N
    step = _row_step(N)
    return [slice(start, min(start + step, end)) for start in range(0, end, step)]


def _upper_mask(rows: int, cols: int) -> np.ndarray:
    """rows x cols mask of the entries strictly right of the diagonal."""
    return np.arange(cols)[None, :] > np.arange(rows)[:, None]


def _distances(pts: np.ndarray, rows: slice, first: int = 0) -> np.ndarray:
    """Distances |x_i - x_j| from the nodes i in rows to the nodes j >= first."""
    diff = pts[rows, None, :] - pts[None, first:, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _angular_rays(grid: Grid):
    """Per-node angular Gauss rule with panels split at corner directions.

    Returns exit distances r(theta) from each node to the rectangle boundary
    and the matching angular weights, shapes (N, 4 * _THETA_ORDER).
    """
    order = _THETA_ORDER
    x, w = _gauss(order)
    (a1, b1), (a2, b2) = grid.bounds
    corners = np.array([[a1, a2], [b1, a2], [b1, b2], [a1, b2]])
    N = grid.node_count
    T = 4 * order
    dist = np.empty((N, T))
    wout = np.empty((N, T))
    for i, p in enumerate(grid.nodes):
        ang = np.sort(np.arctan2(corners[:, 1] - p[1], corners[:, 0] - p[0]))
        edges = np.concatenate([ang, [ang[0] + 2.0 * np.pi]])
        thetas = np.empty(T)
        weights = np.empty(T)
        for k in range(4):
            half = 0.5 * (edges[k + 1] - edges[k])
            mid = 0.5 * (edges[k + 1] + edges[k])
            thetas[k * order : (k + 1) * order] = mid + half * x
            weights[k * order : (k + 1) * order] = w * half
        c, sn = np.cos(thetas), np.sin(thetas)
        r = np.full(T, np.inf)
        with np.errstate(divide="ignore"):
            for lo, hi, comp in ((a1, b1, 0), (a2, b2, 1)):
                d = c if comp == 0 else sn
                cand_hi = (hi - p[comp]) / d
                cand_lo = (lo - p[comp]) / d
                r = np.minimum(r, np.where(cand_hi > 0, cand_hi, np.inf))
                r = np.minimum(r, np.where(cand_lo > 0, cand_lo, np.inf))
        dist[i] = r
        wout[i] = weights
    return dist, wout


# least recently used kernels beyond this count are dropped; one verify
# command builds 6, and a long --refine ladder keeps only its last levels
_KERNEL_CAPACITY = 8
_KERNELS: "OrderedDict[tuple, _Kernel]" = OrderedDict()


def get_kernel(grid: Grid, params: OperatorParams) -> _Kernel:
    key = (grid.key, params.s)
    kern = _KERNELS.get(key)
    if kern is None:
        kern = _KERNELS[key] = _Kernel(grid, params)
        if len(_KERNELS) > _KERNEL_CAPACITY:
            _KERNELS.popitem(last=False)
    else:
        _KERNELS.move_to_end(key)
    return kern


# tabulated primitive Ghat(x) = int_0^x G(sigma)/sigma dsigma per growth
# function; a knot sits exactly at sigma = 1 so piecewise families keep
# their density corner at a panel boundary and every panel stays smooth.
# Weakly keyed: a table lives only as long as its growth function.
_HATS: "weakref.WeakKeyDictionary[YoungFunction, _LogLogTable]" = (
    weakref.WeakKeyDictionary()
)


def _hat_table(yf: YoungFunction) -> _LogLogTable:
    if yf in _HATS:
        return _HATS[yf]
    x, w = _gauss(8)
    # head: geometric bisection toward 0; integrand ~ sigma**(p_minus - 1)
    total = 0.0
    hi = _KNOTS[0]
    for _ in range(1200):
        lo = 0.5 * hi
        mid = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        contrib = float(np.sum(w * yf.evaluate(mid) / mid) * 0.5 * (hi - lo))
        total += contrib
        if contrib < max(1e-300, abs(total)) * 1e-16:
            break
        hi = lo
    table = _LogLogTable(_KNOTS, _panel_integral(lambda t: yf.evaluate(t) / t, total))
    _HATS[yf] = table
    return table


def s_quotient(u: DiscreteFunction, x, y, s: float) -> float:
    """Fractional difference quotient (u(x) - u(y)) / |x - y|**s."""
    xa = np.asarray(x, dtype=float).reshape(-1)
    ya = np.asarray(y, dtype=float).reshape(-1)
    d = float(np.linalg.norm(xa - ya))
    if d == 0.0:
        raise ValueError("coincident points have no difference quotient")
    return (u.value_at(xa) - u.value_at(ya)) / d**s


def _exterior_operator(u: np.ndarray, yf: YoungFunction, kern: _Kernel) -> np.ndarray:
    """Per-node exterior term: the exact u-derivative of the tabulated-Ghat
    exterior energy, sum_rays w * d**(-s) * Ghat'(|u| d**(-s)) / s, signed.

    Ghat' equals G(x)/x up to the tabulation error; differentiating the
    table keeps the operator and the energy consistent to rounding error.
    """
    s = kern.params.s
    out = np.zeros_like(u)
    nz = u != 0.0
    if not np.any(nz):
        return out
    hat = _hat_table(yf)
    args = np.abs(u[nz])[:, None] * kern.ray_scale[nz]
    vals = np.sum(kern.ray_w[nz] * kern.ray_scale[nz] * hat.derivative(args), axis=1)
    out[nz] = np.sign(u[nz]) * vals / s
    return out


def _slope_bands(yf: YoungFunction, t: np.ndarray, g_mid: np.ndarray):
    """One-sided bounds for the odd density slope at t, given g(|t|).

    Densities of piecewise families jump at isolated arguments; minimizers
    of the discrete energy park pair quotients exactly on those atoms, where
    the stationarity condition is an inclusion in the jump interval rather
    than an equation.  Both one-sided limits are obtained by evaluating the
    density a relative hair to either side.
    """
    # window wide enough to catch quotients parked at a jump to within the
    # rounding noise of the stalled line search, narrow enough to add only
    # O(1e-9) slack for smooth densities
    side = np.abs(t)
    side *= 1.0 - 1e-9
    g_left = yf.g(side)
    np.abs(t, out=side)
    side *= 1.0 + 1e-9
    g_right = yf.g(side)
    lo = np.minimum(g_left, g_right, out=side)
    np.minimum(lo, g_mid, out=lo)
    hi = np.maximum(g_left, g_right, out=g_left)
    np.maximum(hi, g_mid, out=hi)
    # where t < 0 the odd slope is -g: the bounds swap and change sign
    neg = t < 0
    neg_lo = np.negative(lo, out=g_right)
    np.negative(hi, out=lo, where=neg)
    np.copyto(hi, neg_lo, where=neg)
    return lo, hi


class _Pass(NamedTuple):
    """One operator evaluation, with the per-node sums the stationarity
    measure reuses."""

    value: np.ndarray  # operator at every node
    exterior: np.ndarray  # exterior term per node
    # interior row sums of the lower and upper one-sided slope bands
    # against the kernel; None when the pass was asked for no bands
    band_lo: Optional[np.ndarray]
    band_hi: Optional[np.ndarray]


def _operator_pass(
    v: np.ndarray, yf: YoungFunction, kern: _Kernel, bands: bool
) -> _Pass:
    """The operator at every node and its exterior term, formed in row
    blocks; with ``bands`` also the row sums of the one-sided slope bands,
    from the same block quotients and densities."""
    N = len(v)
    interior = np.empty(N)
    band_lo = np.empty(N) if bands else None
    band_hi = np.empty(N) if bands else None
    for rows in _row_blocks(N):
        q = kern.quotients(v, rows)
        gq = yf.g(q)
        w = kern.wop[rows]
        if bands:
            lo, hi = _slope_bands(yf, q, gq)
            lo *= w
            hi *= w
            band_lo[rows] = np.sum(lo, axis=1)
            band_hi[rows] = np.sum(hi, axis=1)
        terms = np.sign(q)
        terms *= gq
        terms *= w
        interior[rows] = np.sum(terms, axis=1)
    ext = _exterior_operator(v, yf, kern)
    return _Pass(interior + ext, ext, band_lo, band_hi)


def apply_operator(
    u: DiscreteFunction, yf: YoungFunction, params: OperatorParams
) -> np.ndarray:
    """Discrete nonlocal g-Laplacian of u at every node.

    Per node: midpoint principal-value sum of g(quotient) * kernel over the
    other nodes, plus the exact exterior ray integrals (u = 0 outside).
    """
    return _operator_pass(u.values, yf, get_kernel(u.grid, params), bands=False).value


def pair_samples(u: DiscreteFunction, params: OperatorParams) -> WeightedSamples:
    """Interior pair quotients as weighted samples (ordered-pair weights)."""
    kern = get_kernel(u.grid, params)
    q = np.concatenate([q for _, q in kern.upper_quotients(u.values)])
    return WeightedSamples(np.abs(q, out=q), kern.pair_wen)


def _energy_scaled(
    u: np.ndarray, yf: YoungFunction, kern: _Kernel, lam: float
) -> float:
    """Modular energy of u / lam from pair quotients plus the Ghat exterior.

    G is evaluated row block by row block into one pair-length vector,
    which a single dot product reduces.
    """
    vals = np.empty(len(kern.pair_wen))
    at = 0
    for _, q in kern.upper_quotients(u):
        np.abs(q, out=q)
        q /= lam
        vals[at : at + len(q)] = yf.evaluate(q)
        at += len(q)
    total = float(np.dot(kern.pair_wen, vals))
    nz = u != 0.0
    if np.any(nz):
        hat = _hat_table(yf)
        args = (np.abs(u[nz])[:, None] / lam) * kern.ray_scale[nz]
        hn = kern.grid.node_weight
        total += (2.0 * hn / kern.params.s) * float(
            np.sum(kern.ray_w[nz] * hat(args))
        )
    return total


def energy(u: DiscreteFunction, yf: YoungFunction, params: OperatorParams) -> float:
    """Modular energy: double sum of G(|quotient|) against the kernel measure,
    interior-by-exterior contributions included."""
    kern = get_kernel(u.grid, params)
    return _energy_scaled(u.values, yf, kern, 1.0)


def energy_gradient(
    u: DiscreteFunction, yf: YoungFunction, params: OperatorParams
) -> np.ndarray:
    """Exact nodal gradient of the modular energy: 2 h**n times the operator."""
    return 2.0 * u.grid.node_weight * apply_operator(u, yf, params)


def gagliardo_seminorm(
    u: DiscreteFunction, yf: YoungFunction, params: OperatorParams
) -> float:
    """Luxemburg-type seminorm: smallest lam with energy(u/lam) <= 1."""
    if not np.any(u.values != 0.0):
        return 0.0
    kern = get_kernel(u.grid, params)
    return luxemburg_scale(lambda lam: _energy_scaled(u.values, yf, kern, lam))
