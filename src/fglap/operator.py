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
deterministic for a fixed BLAS thread count.  The operator's sums are numpy
sums, but the energy reduces with ``np.dot``, a BLAS call whose last bit
can depend on the thread count.

Every pass over node pairs and exterior rays lives here and runs over node
rows in blocks of about ``_BLOCK`` elements: the kernel build, the
operator, the energy and its Newton Hessian, the pair test margin and the
Hoelder seminorm.  The pair passes read the pairs i < j of their blocks.
The kernel keeps the quotient scales, operator weights and energy weights
once per lattice index offset and lays them out as row blocks on demand,
so it holds O(N) numbers.  Where the node coordinates are exact in binary
(power-of-two cell counts on [0, 1]) every per-offset entry is bitwise the
one of each pair's own distance; elsewhere it moves by the rounding of the
node differences, relative to h.  The operator and the Hessian's diagonal
sum a node's pairs block by block, not over its whole row, which moves
their last bits.  The energy reduces the pairs i < j in chunks of
``_BLOCK`` pairs, one dot product each, which moves its last bits once
there are more pairs than one chunk.  The pair test margin takes its
minimum block by block; a zero margin, whose sign would depend on the
order the minimum sees, is returned as +0.0.  No pass outside the Newton
Hessian holds pair-length data.  The kernel also applies the eigen
descent's spectral preconditioner, the inverse spectral fractional
Laplacian of the lattice, through one real FFT of an odd extension and a
spectrum of O(N) numbers formed on first use.

The operator pass forms |q| once per block and hands it to
``YoungFunction.derivative`` directly; the energy calls ``evaluate`` on
|q|.  The even extension would take |.| of arguments that are already
nonnegative, which moves no bit, and the branch-wise densities of
``fglap.young`` are bitwise their np.where forms, so none of this moves a
bit either.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grids import DiscreteFunction, Grid
from .young import (
    YoungFunction,
    luxemburg_scale,
    _gauss,
    _hat_table,
)

__all__ = [
    "OperatorParams",
    "s_quotient",
    "apply_operator",
    "energy",
    "energy_gradient",
    "gagliardo_seminorm",
    "pair_test_margin",
    "holder_seminorm",
    "get_kernel",
]

# Every row block of a pair pass allocates and frees block-sized
# temporaries, many of them inside g(q) and G(q), where no reused buffer
# reaches.  Freeing one mmapped 16 MiB block raises glibc's dynamic mmap
# threshold to 16 MiB and its trim threshold to 32 MiB (mallopt(3),
# M_MMAP_THRESHOLD), so those temporaries stay on the heap instead of being
# mapped, faulted in and unmapped block after block, whatever was imported
# before.  The block is never written, so it costs no memory.
np.empty(1 << 21)


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

    On the uniform lattice a pair's distance depends only on the index
    offset between its nodes, so the kernel keeps the distances ``dist``
    from node 0 to every node and three tables over the signed offsets,
    shape (2 M_k - 1) per axis, zero at offset 0: the quotient scales
    ``qs_offsets`` = d**(-s), the operator weights ``wop_offsets`` =
    h**n d**(-n-s) and the energy weights ``wen_offsets`` = 2 h**(2n) d**(-n).
    Each table is read through one lattice view, built with the kernel,
    whose entry [i..., j...] is the table's value at the offset j - i.
    ``_offset_rows`` lays a table out as a row block from its first node's
    column on, ``upper_quotients`` and ``upper_weights`` give the block's
    pairs i < j; the blocks are formed per call and never stored.  The
    exterior keeps the ray scales d**(-s) and angular weights per node and
    ray.  On lattices whose node coordinates are exact in binary every
    entry is bitwise the one of the pair's own distance.
    """

    def __init__(self, grid: Grid, params: OperatorParams):
        self.grid = grid
        self.params = params
        s, n, h = params.s, grid.dim, grid.h
        N = grid.node_count
        self._tri = _upper_mask(_row_step(N), N)
        self.dist = _distances(grid.nodes, slice(0, 1))[0]
        self.qs_offsets = self._reflect(self.dist[1:] ** (-s))
        self.wop_offsets = self._reflect(h**n * self.dist[1:] ** (-(n + s)))
        self.wen_offsets = self._reflect(2.0 * h ** (2 * n) * self.dist[1:] ** (-n))
        # a view owns no data, but its nbytes reads N**2 * 8: held in a dict,
        # it stays out of the count of the arrays the kernel holds
        self._views = {
            "qs": self._lattice_view(self.qs_offsets),
            "wop": self._lattice_view(self.wop_offsets),
            "wen": self._lattice_view(self.wen_offsets),
        }
        if n == 1:
            a, b = grid.bounds[0]
            x = grid.nodes[:, 0]
            # exterior ray exit distances and unit angular weights per ray
            ray_dist = np.column_stack([x - a, b - x])
            self.ray_w = np.ones_like(ray_dist)
        else:
            ray_dist, self.ray_w = _angular_rays(grid)
        self.ray_scale = ray_dist ** (-s)
        # the preconditioner's spectrum, formed on its first use
        self._spectrum: Optional[np.ndarray] = None

    def precondition(self, v: np.ndarray) -> np.ndarray:
        """P v for the spectral preconditioner P = S diag(sigma) S^T of the
        lattice: S is the orthonormal DST-II along each axis, whose columns
        are the eigenvectors of the cell-centred Dirichlet Laplacian, and
        sigma its eigenvalues sum_a (4 / h**2) sin(pi k_a / (2 M_a))**2,
        k_a = 1 .. M_a, raised to the power -s: the grid's spectral
        fractional Laplacian, inverted.

        The odd extension of v to length 2 M_a along every axis spans exactly
        these modes, and on it the Dirichlet Laplacian is the periodic one,
        so P v is one real FFT of the extension, scaled by sigma and
        transformed back, cut to the lattice.  P is symmetric positive
        definite and holds O(N) numbers; ``numpy.fft`` is loaded on the
        first call."""
        cells = self.grid.cells
        if self._spectrum is None:
            self._spectrum = _fractional_spectrum(cells, self.grid.h, self.params.s)
        z = v.reshape(cells)
        axes = tuple(range(len(cells)))
        for axis in axes:
            z = np.concatenate([z, -np.flip(z, axis)], axis=axis)
        out = np.fft.irfftn(np.fft.rfftn(z) * self._spectrum, z.shape, axes)
        return out[tuple(slice(0, m) for m in cells)].ravel()

    def _reflect(self, values: np.ndarray) -> np.ndarray:
        """Offset table of values[k - 1] at the offset from node 0 to node
        k >= 1 and zero at offset 0.  Entry m along axis k holds the offset
        m - (M_k - 1), which takes the value of its absolute offset."""
        cells = self.grid.cells
        per_node = np.zeros(cells)
        per_node.flat[1:] = values
        return per_node[np.ix_(*(np.abs(np.arange(1 - m, m)) for m in cells))]

    def _lattice_view(self, table: np.ndarray) -> np.ndarray:
        """Read-only view of an offset table with entry [i..., j...] at the
        offset j - i, axis by axis, for lattice indices i and j."""
        cells = self.grid.cells
        center = table[tuple(slice(m - 1, None) for m in cells)]
        strides = tuple(-st for st in table.strides) + table.strides
        return as_strided(center, cells + cells, strides, writeable=False)

    def _offset_rows(self, table: str, rows: slice) -> np.ndarray:
        """Rows i in rows, columns j >= rows.start, of the dense N x N array
        whose entry (i, j) is the named table's entry at the offset from node
        i to node j: a slice of its lattice view in 1d; in 2d one gather of
        the lattice rows of columns from the one holding node rows.start on,
        returned as a view from that column."""
        view = self._views[table]
        start, stop, _ = rows.indices(self.grid.node_count)
        if self.grid.dim == 1:
            return view[start:stop, start:]
        M2 = self.grid.cells[1]
        lead, skip = divmod(start, M2)
        a, b = divmod(np.arange(start, stop), M2)
        return view[a, b, lead:].reshape(stop - start, -1)[:, skip:]

    def _upper(self, rows: slice) -> np.ndarray:
        """Mask of the pairs i < j in the rectangle rows x [rows.start, N):
        a corner of the stored pass-block mask, formed anew for a longer
        block."""
        count, cols = rows.stop - rows.start, self.grid.node_count - rows.start
        if count > len(self._tri):
            return _upper_mask(count, cols)
        return self._tri[:count, :cols]

    def upper_quotients(self, v: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (rows, q) per row block: q holds the quotients of the pairs
        i < j with i in rows, in row-major order.  Chained over the blocks
        they run through all pairs i < j in row-major order: the pair
        order."""
        for rows in _row_blocks(len(v)):
            q = v[rows, None] - v[None, rows.start :]
            q *= self._offset_rows("qs", rows)
            # the block is freed before the caller works on its pairs
            q = q[self._upper(rows)]
            yield rows, q

    def upper_weights(self, rows: slice) -> np.ndarray:
        """Energy weights 2 h**(2n) |x_i - x_j|**(-n) of the pairs i < j with
        i in rows, in the order of the quotients ``upper_quotients`` yields
        for the same rows."""
        return self._offset_rows("wen", rows)[self._upper(rows)]


# elements per block of a pair pass (256 KiB of float64): large enough to
# amortize numpy's per-call cost, small enough to stay in L2 and to keep a
# block's temporaries from growing and trimming the heap on every block
# (a 512-cell degiorgi command took 150k minor page faults at twice this
# size, 22k at this one)
_BLOCK = 1 << 15


def _row_step(N: int) -> int:
    """Rows per block of a pair pass over N nodes."""
    return min(N, max(1, _BLOCK // N))


def _row_blocks(N: int) -> list[slice]:
    """Row slices of a pair pass over the pairs i < j of N nodes.  The last
    row, which has no such pair, is left out, so no block is empty."""
    step = _row_step(N)
    return [slice(start, min(start + step, N - 1)) for start in range(0, N - 1, step)]


def _upper_mask(rows: int, cols: int) -> np.ndarray:
    """rows x cols mask of the entries strictly right of the diagonal."""
    return np.arange(cols)[None, :] > np.arange(rows)[:, None]


def _distances(pts: np.ndarray, rows: slice, first: int = 0) -> np.ndarray:
    """Distances |x_i - x_j| from the nodes i in rows to the nodes j >= first."""
    diff = pts[rows, None, :] - pts[None, first:, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _fractional_spectrum(cells: tuple, h: float, s: float) -> np.ndarray:
    """sigma on the real-FFT frequencies of the odd extension of a lattice
    with the given cells: (sum_a (4 / h**2) sin(pi k_a / (2 M_a))**2)**(-s),
    and zero where some k_a is 0, a mode no odd extension holds."""
    total = np.zeros(())
    for axis, m in enumerate(cells):
        k = np.arange(m + 1 if axis == len(cells) - 1 else 2 * m)
        lam = (4.0 / h**2) * np.sin(np.pi * k / (2 * m)) ** 2
        lam[0] = np.inf  # so that sigma is 0 there
        total = total[..., None] + lam
    return total ** (-s)


def _angular_rays(grid: Grid):
    """Per-node angular Gauss rule with panels split at corner directions.

    Returns exit distances r(theta) from each node to the rectangle boundary
    and the matching angular weights, shapes (N, 4 * _THETA_ORDER).
    """
    x, w = _gauss(_THETA_ORDER)
    (a1, b1), (a2, b2) = grid.bounds
    corners = np.array([[a1, a2], [b1, a2], [b1, b2], [a1, b2]])
    p = grid.nodes
    # each node's corner directions in increasing order, closed by the first
    # one a full turn later: the edges of its four panels, one node per row
    ang = np.sort(np.arctan2(corners[:, 1] - p[:, 1:], corners[:, 0] - p[:, :1]), axis=1)
    edges = np.concatenate([ang, ang[:, :1] + 2.0 * np.pi], axis=1)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    thetas = (mid[:, :, None] + half[:, :, None] * x).reshape(len(p), -1)
    weights = (w * half[:, :, None]).reshape(len(p), -1)
    # each axis: its two faces, the direction component and the node coordinate
    axes = ((a1, b1, np.cos(thetas), p[:, :1]), (a2, b2, np.sin(thetas), p[:, 1:]))
    r = np.full(thetas.shape, np.inf)
    with np.errstate(divide="ignore"):
        for lo, hi, d, pc in axes:
            for side in (hi, lo):
                cand = (side - pc) / d
                r = np.minimum(r, np.where(cand > 0, cand, np.inf))
    return r, weights


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


def _operator_pass(v: np.ndarray, yf: YoungFunction, kern: _Kernel) -> np.ndarray:
    """The operator at every node: each pair i < j of a row block adds its
    term, antisymmetric in (i, j), to row i and subtracts it from row j."""
    N = len(v)
    interior = np.zeros(N)
    for rows in _row_blocks(N):
        q = v[rows, None] - v[None, rows.start :]
        q *= kern._offset_rows("qs", rows)
        aq = np.abs(q)
        gq = yf.derivative(aq)
        # |q| is spent: its buffer takes the signed terms
        terms = np.sign(q, out=aq)
        terms *= gq
        terms *= kern._offset_rows("wop", rows)
        # the block's entries j <= i are pairs of earlier rows or none
        np.copyto(terms, 0.0, where=~kern._upper(rows))
        interior[rows] += np.sum(terms, axis=1)
        interior[rows.start :] -= np.sum(terms, axis=0)
    return interior + _exterior_operator(v, yf, kern)


def apply_operator(
    u: DiscreteFunction, yf: YoungFunction, params: OperatorParams
) -> np.ndarray:
    """Discrete nonlocal g-Laplacian of u at every node.

    Per node: midpoint principal-value sum of g(quotient) * kernel over the
    other nodes, plus the exact exterior ray integrals (u = 0 outside).
    """
    return _operator_pass(u.values, yf, get_kernel(u.grid, params))


def _energy_scaled(
    u: np.ndarray, yf: YoungFunction, kern: _Kernel, lam: float
) -> float:
    """Modular energy of u / lam from pair quotients plus the Ghat exterior.

    G is evaluated row block by row block.  Its values and the pairs'
    weights are copied, in pair order, into two buffers of ``_BLOCK``
    pairs; each full buffer, and the ragged last one, is reduced with one
    dot product, and the partial sums are added left to right.  Up to
    ``_BLOCK`` pairs that is a single dot product over the pair vector.
    """
    wbuf = np.empty(_BLOCK)
    gbuf = np.empty(_BLOCK)
    fill = 0
    total = 0.0
    for rows, q in kern.upper_quotients(u):
        np.abs(q, out=q)
        q /= lam
        vals = yf.evaluate(q)
        weights = kern.upper_weights(rows)
        at = 0
        while at < len(vals):
            take = min(_BLOCK - fill, len(vals) - at)
            gbuf[fill : fill + take] = vals[at : at + take]
            wbuf[fill : fill + take] = weights[at : at + take]
            fill += take
            at += take
            if fill == _BLOCK:
                total += float(np.dot(wbuf, gbuf))
                fill = 0
        # freed before the next block's quotients are formed
        del vals, weights
    if fill:
        total += float(np.dot(wbuf[:fill], gbuf[:fill]))
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


def _energy_hessian(
    grid: Grid,
    yf: YoungFunction,
    params: OperatorParams,
    u: np.ndarray,
) -> np.ndarray:
    """Dense second derivative of the modular energy at u, formed in row
    blocks of the pairs i < j.

    Pair terms use secant density slopes, so a quotient parked on a density
    jump receives a huge curvature entry that pins it in Newton steps; the
    exterior curvature is the exact derivative of G(x)/x.  A pair's
    curvature C enters (i, j) and (j, i) as -C, (i, i) and (j, j) as C.
    """
    kern = get_kernel(grid, params)
    hn = grid.node_weight
    N = len(u)
    H = np.zeros((N, N))
    diag = np.zeros(N)
    for rows in _row_blocks(N):
        qs = kern._offset_rows("qs", rows)
        wfull = hn * kern._offset_rows("wop", rows) / np.where(qs > 0, qs, 1.0)
        aq = np.abs((u[rows, None] - u[None, rows.start :]) * qs)
        dq = 1e-7 * (1.0 + aq)
        gp = (yf.g(aq + dq) - yf.g(np.maximum(aq - dq, 0.0))) / (2.0 * dq)
        C = 2.0 * wfull * gp * qs**2
        np.copyto(C, 0.0, where=~kern._upper(rows))
        # 0.0 - C, and less 0.0 where a block covers an entry twice: C's bits
        H[rows, rows.start :] -= C
        H[rows.start :, rows] -= C.T
        diag[rows] += np.sum(C, axis=1)
        diag[rows.start :] += np.sum(C, axis=0)
    x = np.abs(u)[:, None] * kern.ray_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(x > 0, x, 1.0)
        hpp = np.where(x > 0, (yf.g(x) - yf(x) / safe) / safe, 0.0)
    ext_diag = (2.0 * hn / params.s) * np.sum(
        kern.ray_w * kern.ray_scale**2 * hpp, axis=1
    )
    H[np.diag_indices_from(H)] = diag + ext_diag
    return H


def gagliardo_seminorm(
    u: DiscreteFunction, yf: YoungFunction, params: OperatorParams
) -> float:
    """Luxemburg-type seminorm: smallest lam with energy(u/lam) <= 1."""
    if not np.any(u.values != 0.0):
        return 0.0
    kern = get_kernel(u.grid, params)
    return luxemburg_scale(lambda lam: _energy_scaled(u.values, yf, kern, lam))


def pair_test_margin(
    u: DiscreteFunction,
    w: DiscreteFunction,
    yf: YoungFunction,
    params: OperatorParams,
) -> float:
    """Minimum of g(D_s u) * D_s w - p_minus * G(|D_s w|) over node pairs.

    Valid whenever w = (u - level)_+ for some level >= 0, including the
    exterior rays where u and w both vanish outside the domain.  A
    nonnegative return certifies the pointwise test-function inequality.
    """
    kern = get_kernel(u.grid, params)
    uu, ww = u.values, w.values

    def margins(qu: np.ndarray, qw: np.ndarray) -> np.ndarray:
        lhs = yf.slope_odd(qu) * qw
        lhs -= yf.p_minus * yf(np.abs(qw))
        return lhs

    margin = np.inf
    for (_, qu), (_, qw) in zip(kern.upper_quotients(uu), kern.upper_quotients(ww)):
        margin = np.minimum(margin, np.min(margins(qu, qw)))
    # exterior rays: quotients u_i / d**s and w_i / d**s
    ext = margins(uu[:, None] * kern.ray_scale, ww[:, None] * kern.ray_scale)
    # a zero margin takes its sign from the order the minimum sees: + 0.0
    # makes it +0.0
    return min(float(margin), float(np.min(ext))) + 0.0


def holder_seminorm(u: DiscreteFunction, alpha: float) -> float:
    """Discrete Hoelder seminorm sup |u(x) - u(y)| / |x - y|**alpha.

    Includes, for every node in the first layer along a face, a virtual
    exterior partner at distance h across the boundary carrying the value 0,
    which captures the decay forced by the exterior condition.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("Hoelder exponent must lie in (0, 1)")
    grid, v = u.grid, u.values
    pts = grid.nodes
    N = grid.node_count
    tops = []
    for rows in _row_blocks(N):
        upper = _upper_mask(rows.stop - rows.start, N - rows.start)
        dv = (v[rows, None] - v[None, rows.start :])[upper]
        D = _distances(pts, rows, rows.start)[upper]
        tops.append(np.max(np.abs(dv) / D**alpha))
    best = float(np.max(tops))
    h = grid.h
    for k in range(grid.dim):
        for first in (grid.bounds[k, 0] + 0.5 * h, grid.bounds[k, 1] - 0.5 * h):
            layer = np.abs(pts[:, k] - first) < 1e-9 * h
            if np.any(layer):
                best = max(best, float(np.max(np.abs(v[layer]))) / h**alpha)
    return best
