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
interior-by-exterior part.  Node order is fixed and all reductions are
numpy pairwise sums, so results are deterministic and independent of BLAS
thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DiscreteFunction, Grid
from .young import (
    WeightedSamples,
    YoungFunction,
    modular,
    luxemburg_scale,
    _gauss,
    _LogLogTable,
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
    """Nonlocal-operator parameters: the smoothness order s and the angular
    Gauss order of the 2d exterior ray integrals."""

    s: float
    theta_order: int = 16

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"smoothness order must lie in (0, 1), got {self.s}")
        if self.theta_order < 2:
            raise ValueError("angular quadrature order must be >= 2")


class _Kernel:
    """Precomputed pairwise and exterior geometry for one (grid, params)."""

    def __init__(self, grid: Grid, params: OperatorParams):
        self.grid = grid
        self.params = params
        s, n, h = params.s, grid.dim, grid.h
        pts = grid.nodes
        diff = pts[:, None, :] - pts[None, :, :]
        D = np.sqrt(np.sum(diff * diff, axis=2))
        np.fill_diagonal(D, 1.0)  # placeholder, masked below
        self.qs = D**(-s)
        np.fill_diagonal(self.qs, 0.0)
        self.wop = h**n * D ** (-(n + s))
        np.fill_diagonal(self.wop, 0.0)
        self.iu = np.triu_indices(grid.node_count, k=1)
        self.pair_qs = self.qs[self.iu]
        self.pair_wen = 2.0 * h ** (2 * n) * D[self.iu] ** (-n)
        if n == 1:
            a, b = grid.bounds[0]
            x = pts[:, 0]
            # exterior ray exit distances and unit angular weights per ray
            self.ray_dist = np.column_stack([x - a, b - x])
            self.ray_w = np.ones_like(self.ray_dist)
        else:
            self.ray_dist, self.ray_w = _angular_rays(grid, params.theta_order)
        self.ray_scale = self.ray_dist ** (-s)

    def quotients(self, v: np.ndarray) -> np.ndarray:
        """Pair quotients (v_i - v_j) |x_i - x_j|**(-s), zero on the diagonal."""
        return (v[:, None] - v[None, :]) * self.qs


def _angular_rays(grid: Grid, order: int):
    """Per-node angular Gauss rule with panels split at corner directions.

    Returns exit distances r(theta) from each node to the rectangle boundary
    and the matching angular weights, shapes (N, 4 * order).
    """
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


_KERNELS: dict[tuple, _Kernel] = {}


def get_kernel(grid: Grid, params: OperatorParams) -> _Kernel:
    key = (grid.key, params.s, params.theta_order)
    if key not in _KERNELS:
        _KERNELS[key] = _Kernel(grid, params)
    return _KERNELS[key]


# tabulated primitive Ghat(x) = int_0^x G(sigma)/sigma dsigma per growth
# function; a knot sits exactly at sigma = 1 so piecewise families keep
# their density corner at a panel boundary and every panel stays smooth.
_HATS: dict[YoungFunction, _LogLogTable] = {}


def _hat_table(yf: YoungFunction) -> _LogLogTable:
    if yf in _HATS:
        return _HATS[yf]
    x, w = _gauss(8)
    knots = np.logspace(-15.0, 15.0, 30 * 512 + 1)
    # head: geometric bisection toward 0; integrand ~ sigma**(p_minus - 1)
    total = 0.0
    hi = knots[0]
    for _ in range(1200):
        lo = 0.5 * hi
        mid = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        contrib = float(np.sum(w * yf.evaluate(mid) / mid) * 0.5 * (hi - lo))
        total += contrib
        if contrib < max(1e-300, abs(total)) * 1e-16:
            break
        hi = lo
    lo_k = knots[:-1]
    hi_k = knots[1:]
    mid = 0.5 * (hi_k + lo_k)[:, None] + 0.5 * (hi_k - lo_k)[:, None] * x[None, :]
    vals = yf.evaluate(mid.ravel()).reshape(mid.shape) / mid
    segs = 0.5 * (hi_k - lo_k) * (vals @ w)
    table = _LogLogTable(knots, total + np.concatenate(([0.0], np.cumsum(segs))))
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


def apply_operator(
    u: DiscreteFunction, yf: YoungFunction, params: OperatorParams
) -> np.ndarray:
    """Discrete nonlocal g-Laplacian of u at every node.

    Per node: midpoint principal-value sum of g(quotient) * kernel over the
    other nodes, plus the exact exterior ray integrals (u = 0 outside).
    """
    kern = get_kernel(u.grid, params)
    v = u.values
    interior = np.sum(yf.slope_odd(kern.quotients(v)) * kern.wop, axis=1)
    return interior + _exterior_operator(v, yf, kern)


def pair_samples(u: DiscreteFunction, params: OperatorParams) -> WeightedSamples:
    """Interior pair quotients as weighted samples (ordered-pair weights)."""
    kern = get_kernel(u.grid, params)
    v = u.values
    q = np.abs(v[kern.iu[0]] - v[kern.iu[1]]) * kern.pair_qs
    return WeightedSamples(q, kern.pair_wen)


def _energy_scaled(
    u: np.ndarray, yf: YoungFunction, kern: _Kernel, lam: float
) -> float:
    """Modular energy of u / lam from pair quotients plus the Ghat exterior."""
    q = np.abs(u[kern.iu[0]] - u[kern.iu[1]]) * kern.pair_qs
    total = float(np.dot(kern.pair_wen, yf.evaluate(q / lam)))
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
