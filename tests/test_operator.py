"""Discretized nonlocal operator: quotients, principal-value sums, exterior
integrals, energy, gradient, and the Luxemburg-type seminorm."""

import gc
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fglap import (
    DiscreteFunction,
    Grid,
    GridError,
    OperatorParams,
    apply_operator,
    energy,
    energy_gradient,
    gagliardo_seminorm,
    make_piecewise_power,
    make_power,
    make_power_log,
    s_quotient,
    scale_young,
)
from fglap.operator import (
    _BLOCK,
    _THETA_ORDER,
    _angular_rays,
    _energy_scaled,
    _exterior_operator,
    _Kernel,
    _operator_pass,
    _KERNEL_CAPACITY,
    _KERNELS,
    _row_blocks,
    get_kernel,
)
from fglap.young import _HATS, _hat_table
from conftest import dense_energy_weights, dense_kernel, fresh_process_env, kink_safe
from test_young import _reference_luxemburg_scale


def linear_family():
    """Square growth scaled so its density is the identity."""
    return scale_young(make_power(2.0), 0.5)


def dense_linear_matrix_1d(grid, s):
    """Independent assembly of the linear-density operator on an interval:
    explicit kernel weights plus the closed-form exterior coefficient."""
    x = grid.nodes[:, 0]
    a, b = grid.bounds[0]
    h = grid.h
    N = grid.node_count
    M = np.zeros((N, N))
    for i in range(N):
        diag = ((x[i] - a) ** (-2 * s) + (b - x[i]) ** (-2 * s)) / (2 * s)
        for j in range(N):
            if i == j:
                continue
            k = abs(x[i] - x[j]) ** (-1 - 2 * s) * h
            M[i, j] = -k
            diag += k
        M[i, i] = diag
    return M


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_cell_centers_tile_the_domain():
    g = Grid.build([0.0, 2.0], 8)
    assert g.h == pytest.approx(0.25)
    assert g.node_count == 8
    assert g.node_weight * g.node_count == pytest.approx(g.measure)
    assert np.all(g.boundary_distance() > 0)


def test_grid_2d_square_cells_required():
    g = Grid.build([[0.0, 1.0], [0.0, 2.0]], (4, 8))
    assert g.dim == 2
    assert g.node_count == 32
    with pytest.raises(GridError):
        Grid.build([[0.0, 1.0], [0.0, 1.0]], (4, 8))


def test_grid_validation():
    with pytest.raises(GridError):
        Grid.build([1.0, 0.0], 4)
    with pytest.raises(GridError):
        Grid.build([0.0, 1.0], 1)  # single node
    with pytest.raises(GridError):
        DiscreteFunction(Grid.build([0.0, 1.0], 4), np.ones(3))


def test_value_at_lattice_and_exterior():
    g = Grid.build([0.0, 1.0], 4)
    u = DiscreteFunction(g, np.array([1.0, 2.0, 3.0, 4.0]))
    assert u.value_at([0.125]) == 1.0
    assert u.value_at([0.875]) == 4.0
    assert u.value_at([-0.3]) == 0.0
    assert u.value_at([1.7]) == 0.0
    with pytest.raises(GridError):
        u.value_at([0.2])  # interior point off the lattice


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------


def test_quotient_constant_and_linear():
    g = Grid.build([0.0, 1.0], 16)
    c = DiscreteFunction(g, np.full(16, 5.0))
    assert s_quotient(c, g.nodes[2], g.nodes[9], 0.5) == 0.0
    lin = DiscreteFunction(g, g.nodes[:, 0])
    x, y = g.nodes[3], g.nodes[11]
    d = abs(float(x[0] - y[0]))
    expect = np.sign(float(x[0] - y[0])) * d ** (1 - 0.5)
    assert s_quotient(lin, x, y, 0.5) == pytest.approx(expect)


def test_quotient_coincident_points_rejected():
    g = Grid.build([0.0, 1.0], 8)
    u = DiscreteFunction(g, np.ones(8))
    with pytest.raises(ValueError):
        s_quotient(u, g.nodes[1], g.nodes[1], 0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 31), st.integers(0, 31))
def test_quotient_antisymmetry(i, j):
    g = Grid.build([0.0, 1.0], 32)
    rng = np.random.default_rng(0)
    u = DiscreteFunction(g, rng.standard_normal(32))
    if i == j:
        return
    x, y = g.nodes[i], g.nodes[j]
    assert abs(s_quotient(u, x, y, 0.4) + s_quotient(u, y, x, 0.4)) < 1e-14


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------


def test_operator_of_zero_vanishes(families):
    g = Grid.build([0.0, 1.0], 16)
    u = DiscreteFunction(g, np.zeros(16))
    for yf in families.values():
        assert np.all(apply_operator(u, yf, OperatorParams(s=0.5)) == 0.0)


def test_operator_odd_symmetry():
    # odd data on a symmetric domain: operator values are odd too
    g = Grid.build([-1.0, 1.0], 32)
    x = g.nodes[:, 0]
    u = DiscreteFunction(g, x * np.exp(-(x**2)))
    G = make_piecewise_power(2.5, 3.0)
    A = apply_operator(u, G, OperatorParams(s=0.4))
    assert np.max(np.abs(A + A[::-1])) < 1e-10 * np.max(np.abs(A))


def test_linear_three_way_agreement():
    # operator, energy and gradient against one independent dense assembly
    s = 0.5
    G = linear_family()
    g = Grid.build([0.0, 1.0], 64)
    params = OperatorParams(s=s)
    M = dense_linear_matrix_1d(g, s)
    rng = np.random.default_rng(1)
    u = DiscreteFunction(g, rng.standard_normal(64))
    A = apply_operator(u, G, params)
    assert np.max(np.abs(A - M @ u.values)) <= 1e-10 * np.max(np.abs(A))
    E = energy(u, G, params)
    quad_form = g.h * u.values @ M @ u.values
    assert abs(E - quad_form) <= 1e-10 * abs(quad_form)
    grad = energy_gradient(u, G, params)
    assert np.max(np.abs(grad - 2 * g.h * M @ u.values)) <= 1e-10 * np.max(np.abs(grad))


def test_linear_agreement_2d():
    s = 0.5
    G = linear_family()
    g = Grid.build([[0.0, 1.0], [0.0, 1.0]], (6, 6))
    params = OperatorParams(s=s)
    (a1, b1), (a2, b2) = g.bounds

    def exterior_coefficient(p):
        corners = np.array([[a1, a2], [b1, a2], [b1, b2], [a1, b2]])
        angs = np.sort(np.arctan2(corners[:, 1] - p[1], corners[:, 0] - p[0]))

        def rexit(th):
            c, sn = np.cos(th), np.sin(th)
            r = np.inf
            for lo, hi, comp, d in ((a1, b1, 0, c), (a2, b2, 1, sn)):
                if d > 0:
                    r = min(r, (hi - p[comp]) / d)
                elif d < 0:
                    r = min(r, (lo - p[comp]) / d)
            return r

        edges = np.concatenate([angs, [angs[0] + 2 * np.pi]])
        total = 0.0
        for k in range(4):
            total += quad(lambda th: rexit(th) ** (-2 * s), edges[k], edges[k + 1], limit=200)[0]
        return total / (2 * s)

    N = g.node_count
    h = g.h
    M = np.zeros((N, N))
    for i in range(N):
        diag = exterior_coefficient(g.nodes[i])
        for j in range(N):
            if i == j:
                continue
            d = np.linalg.norm(g.nodes[i] - g.nodes[j])
            k = d ** (-2 - 2 * s) * h * h
            M[i, j] = -k
            diag += k
        M[i, i] = diag
    rng = np.random.default_rng(2)
    u = DiscreteFunction(g, rng.standard_normal(N))
    A = apply_operator(u, G, params)
    assert np.max(np.abs(A - M @ u.values)) <= 1e-6 * np.max(np.abs(A))
    E = energy(u, G, params)
    quad_form = h * h * u.values @ M @ u.values
    assert abs(E - quad_form) <= 1e-6 * abs(quad_form)


def test_translation_covariance_and_reflection(families):
    params = OperatorParams(s=0.45)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(24)
    yf = families["piecewise2_3"]
    a1 = apply_operator(DiscreteFunction(Grid.build([0.0, 1.0], 24), vals), yf, params)
    a2 = apply_operator(DiscreteFunction(Grid.build([5.0, 6.0], 24), vals), yf, params)
    assert np.allclose(a1, a2, rtol=0, atol=1e-12 * np.max(np.abs(a1)))
    a3 = apply_operator(
        DiscreteFunction(Grid.build([0.0, 1.0], 24), vals[::-1].copy()), yf, params
    )
    assert np.allclose(a3, a1[::-1], rtol=0, atol=1e-12 * np.max(np.abs(a1)))


# ---------------------------------------------------------------------------
# energy and gradient
# ---------------------------------------------------------------------------


def test_energy_zero_iff_zero(families):
    g = Grid.build([0.0, 1.0], 16)
    params = OperatorParams(s=0.5)
    for yf in families.values():
        assert energy(DiscreteFunction(g, np.zeros(16)), yf, params) == 0.0
        assert energy(DiscreteFunction(g, np.ones(16)), yf, params) > 0.0


def test_energy_scaling_sandwich(families):
    g = Grid.build([0.0, 1.0], 24)
    params = OperatorParams(s=0.4)
    rng = np.random.default_rng(5)
    u = DiscreteFunction(g, rng.standard_normal(24))
    for name, yf in families.items():
        E = energy(u, yf, params)
        for alpha in (0.5, 2.0):
            scaled = energy(u.scaled(alpha), yf, params)
            lo = min(alpha**yf.p_minus, alpha**yf.p_plus) * E
            hi = max(alpha**yf.p_minus, alpha**yf.p_plus) * E
            assert lo * (1 - 1e-9) <= scaled <= hi * (1 + 1e-9), name


def test_gradient_matches_central_differences(families):
    grid = Grid.build([0.0, 1.0], 32)
    params = OperatorParams(s=0.5)
    rng = np.random.default_rng(0)
    base = rng.standard_normal(32)
    eps = 1e-6 * (1 + np.max(np.abs(base)))
    for name, yf in families.items():
        kern_scales = np.concatenate(
            [np.logspace(-2, 2, 9), [1.0]]
        )  # representative quotient/exterior scales
        vals = kink_safe(base, kern_scales, eps=10 * eps)
        u = DiscreteFunction(grid, vals)
        grad = energy_gradient(u, yf, params)
        fd = np.zeros(32)
        for k in range(32):
            up = vals.copy()
            um = vals.copy()
            up[k] += eps
            um[k] -= eps
            fd[k] = (
                energy(DiscreteFunction(grid, up), yf, params)
                - energy(DiscreteFunction(grid, um), yf, params)
            ) / (2 * eps)
        rel = np.max(np.abs(grad - fd) / (np.abs(fd) + 1e-300))
        assert rel < 1e-5, (name, rel)


def test_directional_derivative_two_paths(families):
    # chain rule through pair quotients versus the assembled nodal gradient
    grid = Grid.build([0.0, 1.0], 24)
    params = OperatorParams(s=0.45)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(24)
    v = rng.standard_normal(24)
    from fglap.operator import get_kernel
    from fglap.young import _hat_table

    yf = families["power3.5"]
    kern = get_kernel(grid, params)
    qs, wop = dense_kernel(kern)
    quot_u = (u[:, None] - u[None, :]) * qs
    quot_v = (v[:, None] - v[None, :]) * qs
    with np.errstate(divide="ignore"):
        wfull = grid.node_weight * wop / np.where(qs > 0, qs, 1.0)
    np.fill_diagonal(wfull, 0.0)
    pairing = float(np.sum(yf.slope_odd(quot_u) * quot_v * wfull))
    hat = _hat_table(yf)
    args = np.abs(u)[:, None] * kern.ray_scale
    ext = (2.0 * grid.node_weight / params.s) * float(
        np.sum(
            kern.ray_w
            * kern.ray_scale
            * hat.derivative(args)
            * (np.sign(u) * v)[:, None]
        )
    )
    pairing += ext
    grad = energy_gradient(DiscreteFunction(grid, u), yf, params)
    assert pairing == pytest.approx(float(np.dot(grad, v)), rel=1e-8)


def test_energy_convex_along_segments(families):
    grid = Grid.build([0.0, 1.0], 24)
    params = OperatorParams(s=0.4)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(24)
    v = rng.standard_normal(24)
    for name, yf in families.items():
        thetas = np.linspace(-1, 1, 15)
        vals = np.array(
            [energy(DiscreteFunction(grid, u + t * v), yf, params) for t in thetas]
        )
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.min(second) >= -1e-10, name


def test_energy_refinement_cauchy(families):
    params = OperatorParams(s=0.4)
    yf = families["piecewise2_3"]
    energies = []
    for n in (32, 64, 128, 256):
        grid = Grid.build([0.0, 1.0], n)
        x = grid.nodes[:, 0]
        core = (x - 0.2) * (0.8 - x)
        vals = np.where(core > 0, np.exp(-0.05 / np.maximum(core, 1e-300)), 0.0)
        energies.append(energy(DiscreteFunction(grid, vals), yf, params))
    diffs = np.abs(np.diff(energies))
    assert diffs[0] > diffs[1] > diffs[2]


# ---------------------------------------------------------------------------
# seminorm
# ---------------------------------------------------------------------------


def test_seminorm_zero_and_homogeneity(families):
    grid = Grid.build([0.0, 1.0], 32)
    params = OperatorParams(s=0.5)
    yf = families["piecewise2_3"]
    assert gagliardo_seminorm(DiscreteFunction(grid, np.zeros(32)), yf, params) == 0.0
    rng = np.random.default_rng(11)
    u = DiscreteFunction(grid, rng.standard_normal(32))
    base = gagliardo_seminorm(u, yf, params)
    assert gagliardo_seminorm(u.scaled(3.0), yf, params) == pytest.approx(
        3.0 * base, rel=1e-9
    )


def test_seminorm_unit_energy(families):
    grid = Grid.build([0.0, 1.0], 32)
    params = OperatorParams(s=0.5)
    rng = np.random.default_rng(13)
    u = DiscreteFunction(grid, rng.standard_normal(32))
    for yf in families.values():
        lam = gagliardo_seminorm(u, yf, params)
        assert energy(u.scaled(1.0 / lam), yf, params) == pytest.approx(1.0, abs=1e-9)


def test_seminorm_is_bitwise_the_plain_bisection(families):
    # the energy's blocked BLAS reduction is the noisiest modular the
    # Luxemburg scale sees; 1D and 2D, several row blocks in 1D
    rng = np.random.default_rng(17)
    for bounds, cells in (([0.0, 1.0], 300), ([[0.0, 1.0], [0.0, 1.0]], (12, 12))):
        grid = Grid.build(bounds, cells)
        params = OperatorParams(s=0.5)
        kern = get_kernel(grid, params)
        for yf in families.values():
            u = rng.standard_normal(grid.node_count) * 10.0 ** rng.uniform(-2.0, 2.0)
            ref = _reference_luxemburg_scale(lambda lam: _energy_scaled(u, yf, kern, lam))
            assert gagliardo_seminorm(DiscreteFunction(grid, u), yf, params) == ref


def test_modular_controls_seminorm(families):
    # when the energy is at least one, the seminorm is controlled by its
    # p_minus-th root
    grid = Grid.build([0.0, 1.0], 64)
    params = OperatorParams(s=0.5)
    rng = np.random.default_rng(15)
    for name, yf in families.items():
        u = DiscreteFunction(grid, rng.standard_normal(64))
        M = energy(u, yf, params)
        scale = 1.0
        while M < 1.0:
            scale *= 2.0
            M = energy(u.scaled(scale), yf, params)
        sem = gagliardo_seminorm(u.scaled(scale), yf, params)
        assert sem <= M ** (1.0 / yf.p_minus) * (1 + 1e-9), name


def test_gradient_matches_central_differences_2d(families):
    grid = Grid.build([[0.0, 1.0], [0.0, 1.0]], (5, 5))
    params = OperatorParams(s=0.5)
    rng = np.random.default_rng(21)
    base = rng.standard_normal(grid.node_count)
    eps = 1e-6 * (1 + np.max(np.abs(base)))
    for name in ("power2", "piecewise2_3"):
        yf = families[name]
        vals = kink_safe(base, np.logspace(-2, 2, 9), eps=10 * eps)
        u = DiscreteFunction(grid, vals)
        grad = energy_gradient(u, yf, params)
        fd = np.zeros(grid.node_count)
        for k in range(grid.node_count):
            up = vals.copy()
            um = vals.copy()
            up[k] += eps
            um[k] -= eps
            fd[k] = (
                energy(DiscreteFunction(grid, up), yf, params)
                - energy(DiscreteFunction(grid, um), yf, params)
            ) / (2 * eps)
        rel = np.max(np.abs(grad - fd) / (np.abs(fd) + 1e-300))
        assert rel < 1e-5, (name, rel)


def test_seminorm_homogeneity_2d(families):
    grid = Grid.build([[0.0, 1.0], [0.0, 1.0]], (5, 5))
    params = OperatorParams(s=0.5)
    rng = np.random.default_rng(22)
    u = DiscreteFunction(grid, rng.standard_normal(grid.node_count))
    yf = families["piecewise2_3"]
    base = gagliardo_seminorm(u, yf, params)
    assert gagliardo_seminorm(u.scaled(2.0), yf, params) == pytest.approx(
        2.0 * base, rel=1e-9
    )


# ---------------------------------------------------------------------------
# blocked pair passes
# ---------------------------------------------------------------------------


def _reference_pair_vectors(u, yf, kern, lam):
    """The energy weights and G(|q| / lam) of every pair i < j, in pair
    order, formed in one shot from the dense kernel."""
    i0, i1 = np.triu_indices(len(u), k=1)
    q = np.abs(u[i0] - u[i1]) * dense_kernel(kern)[0][i0, i1]
    return dense_energy_weights(kern)[i0, i1], yf.evaluate(q / lam)


def _reference_exterior_energy(u, yf, kern, lam, total):
    """total plus the exterior part of the energy of u / lam."""
    nz = u != 0.0
    if np.any(nz):
        hat = _hat_table(yf)
        args = (np.abs(u[nz])[:, None] / lam) * kern.ray_scale[nz]
        hn = kern.grid.node_weight
        total += (2.0 * hn / kern.params.s) * float(
            np.sum(kern.ray_w[nz] * hat(args))
        )
    return total


def _reference_energy_scaled(u, yf, kern, lam):
    """The energy with one dot product over the whole pair vector."""
    weights, vals = _reference_pair_vectors(u, yf, kern, lam)
    return _reference_exterior_energy(u, yf, kern, lam, float(np.dot(weights, vals)))


def _chunked_reference_energy_scaled(u, yf, kern, lam):
    """The energy with one dot product per chunk of _BLOCK pairs of the
    pair vector, the partial sums added left to right from 0.0."""
    weights, vals = _reference_pair_vectors(u, yf, kern, lam)
    total = 0.0
    for at in range(0, len(vals), _BLOCK):
        total += float(np.dot(weights[at : at + _BLOCK], vals[at : at + _BLOCK]))
    return _reference_exterior_energy(u, yf, kern, lam, total)


def _energies(grid, yf, kern, params, reference):
    """(energy, reference) at u and at lam = 0.37 for a random u."""
    v = np.random.default_rng(11).standard_normal(grid.node_count)
    return [
        (energy(DiscreteFunction(grid, v), yf, params), reference(v, yf, kern, 1.0)),
        (_energy_scaled(v, yf, kern, 0.37), reference(v, yf, kern, 0.37)),
    ]


@pytest.mark.parametrize(
    "family, bounds, cells",
    [("piecewise2_3", [0.0, 1.0], 256), ("summix", [[0.0, 1.0], [0.0, 1.0]], (16, 16))],
)
def test_energy_of_one_chunk_is_bitwise_the_single_dot(families, family, bounds, cells):
    # up to _BLOCK pairs the chunked energy is one dot product over the
    # whole pair vector, the energy's bits before it was chunked
    yf = families[family]
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    kern = get_kernel(grid, params)
    N = grid.node_count
    assert N * (N - 1) // 2 <= _BLOCK
    assert len(_row_blocks(N, upper=True)) > 1
    for got, want in _energies(grid, yf, kern, params, _reference_energy_scaled):
        assert got.hex() == want.hex()


@pytest.mark.parametrize(
    "family, bounds, cells",
    [("piecewise2_3", [0.0, 1.0], 600), ("summix", [[0.0, 1.0], [0.0, 1.0]], (24, 24))],
)
def test_blocked_energy_is_bitwise_the_reference(families, family, bounds, cells):
    yf = families[family]
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    kern = get_kernel(grid, params)
    # more than two row blocks of pairs, the last one ragged, and more
    # than two chunks of pairs, which do not end where row blocks end
    N = grid.node_count
    blocks = _row_blocks(N, upper=True)
    assert len(blocks) > 2
    assert blocks[-1].stop - blocks[-1].start < blocks[0].stop - blocks[0].start
    assert N * (N - 1) // 2 > 2 * _BLOCK
    for got, want in _energies(grid, yf, kern, params, _chunked_reference_energy_scaled):
        assert got.hex() == want.hex()
    # the chunked sums move only the last bits of the single dot product
    for got, want in _energies(grid, yf, kern, params, _reference_energy_scaled):
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_pair_passes_stay_within_block_memory(families):
    yf = families["piecewise2_3"]
    grid = Grid.build([0.0, 1.0], 2000)
    # built directly so the session's kernel cache does not keep it
    kern = _Kernel(grid, OperatorParams(s=0.4))
    v = np.random.default_rng(3).standard_normal(grid.node_count)
    _hat_table(yf)  # the exterior table is built once per growth function
    N = grid.node_count
    tracemalloc.start()
    try:
        _operator_pass(v, yf, kern, bands=True)
        _, pass_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _energy_scaled(v, yf, kern, 1.0)
        _, energy_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # half of one N x N float64 array; the energy holds no pair-length
    # vector (one would take 15 MiB here)
    assert pass_peak < N * N * 8 // 2
    assert energy_peak < 2 * 1024 * 1024


def test_passes_stay_within_block_memory_at_2d_32(families):
    yf = families["summix"]
    grid = Grid.build([[0.0, 1.0], [0.0, 1.0]], (32, 32))
    # built directly so the session's kernel cache does not keep it
    kern = _Kernel(grid, OperatorParams(s=0.5))
    v = np.sin(np.pi * grid.nodes[:, 0]) * np.sin(np.pi * grid.nodes[:, 1])
    _hat_table(yf)  # the exterior table is built once per growth function
    passes = {
        "energy": lambda: _energy_scaled(v, yf, kern, 1.0),
        "banded pass": lambda: _operator_pass(v, yf, kern, bands=True),
        "exterior": lambda: _exterior_operator(v, yf, kern),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, run in passes.items():
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one (N, 64) float64 array of ray arguments is 0.5 MiB; the exterior
    # table evaluation once held about 8 MiB of temporaries over them
    assert all(peak <= 4.5 * 1024 * 1024 for peak in peaks.values()), peaks


_FAULT_LOOP = """
import resource
import sys
import numpy as np
from fglap import DiscreteFunction, Grid, OperatorParams, builtin_families, energy
from fglap.operator import _operator_pass, get_kernel
yf = builtin_families()["summix"]
grid = Grid.build([[0.0, 1.0], [0.0, 1.0]], (32, 32))
params = OperatorParams(s=0.5)
kern = get_kernel(grid, params)
v = np.sin(np.pi * grid.nodes[:, 0]) * np.sin(np.pi * grid.nodes[:, 1])
u = DiscreteFunction(grid, v)
_operator_pass(v, yf, kern, bands=True)  # builds the Ghat table
energy(u, yf, params)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    _operator_pass(v, yf, kern, bands=True)
    energy(u, yf, params)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(after - before, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="bounds glibc's malloc")
def test_pair_passes_take_few_page_faults():
    # a fresh process without scipy: the page faults of the passes must not
    # hinge on what an import happened to allocate and free before them
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_LOOP],
        env=fresh_process_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    faults, scipy_loaded = proc.stdout.split()
    assert scipy_loaded == "False"
    # each pass walks 32 row blocks with a few 256 KiB temporaries apiece:
    # mapped afresh per block, that is tens of thousands of faults
    assert int(faults) < 1000


def _reference_kernel_arrays(grid, params):
    """Dense qs, wop and energy weights built in one shot from the full
    distance matrix."""
    s, n, h = params.s, grid.dim, grid.h
    pts = grid.nodes
    diff = pts[:, None, :] - pts[None, :, :]
    D = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(D, 1.0)
    qs = D**(-s)
    np.fill_diagonal(qs, 0.0)
    wop = h**n * D ** (-(n + s))
    np.fill_diagonal(wop, 0.0)
    wen = 2.0 * h ** (2 * n) * D ** (-n)
    np.fill_diagonal(wen, 0.0)
    return qs, wop, wen


# several row blocks each, the last one ragged
_MULTI_BLOCK_GRIDS = [([0.0, 1.0], 600), ([[0.0, 1.0], [0.0, 1.0]], (24, 24))]

# node coordinates exact in binary, so every node difference is exact
_EXACT_GRIDS = [
    ([0.0, 1.0], 512),
    ([-1.0, 1.0], 64),
    ([[0.0, 1.0], [0.0, 1.0]], (32, 32)),
    ([[0.0, 1.0], [0.0, 0.5]], (32, 16)),
]


def _accessor_blocks(grid):
    """The pair passes' row blocks, and blocks of a step that splits lattice
    rows in 2d and leaves a ragged last block."""
    N = grid.node_count
    step = 23
    assert N % step and grid.cells[-1] % step
    return _row_blocks(N) + [slice(a, min(a + step, N)) for a in range(0, N, step)]


def _assert_kernel_arrays(kern, qs, wop, wen):
    N = kern.grid.node_count
    for rows in _accessor_blocks(kern.grid):
        got = kern.qs_rows(rows)
        assert got.shape == (rows.stop - rows.start, N)
        assert np.ascontiguousarray(got).tobytes() == qs[rows].tobytes()
        assert np.ascontiguousarray(kern.wop_rows(rows)).tobytes() == wop[rows].tobytes()
        # the pairs i < j of the block, in row-major order
        upper = np.arange(N - rows.start)[None, :] > np.arange(rows.stop - rows.start)[:, None]
        want = wen[rows, rows.start :][upper]
        assert kern.upper_weights(rows).tobytes() == want.tobytes()
    # chained over the pair passes' blocks, the weights run in pair order
    blocks = _row_blocks(N, upper=True)
    chained = np.concatenate([kern.upper_weights(rows) for rows in blocks])
    assert chained.tobytes() == wen[np.triu_indices(N, k=1)].tobytes()


def _assert_kernel_rays(kern):
    grid = kern.grid
    if grid.dim == 1:
        (a, b), x = grid.bounds[0], grid.nodes[:, 0]
        ray_dist = np.column_stack([x - a, b - x])
        ray_w = np.ones_like(ray_dist)
    else:
        ray_dist, ray_w = _reference_angular_rays(grid)
    assert kern.ray_w.tobytes() == ray_w.tobytes()
    assert kern.ray_scale.tobytes() == (ray_dist ** (-kern.params.s)).tobytes()


@pytest.mark.parametrize("bounds, cells", _EXACT_GRIDS)
def test_kernel_accessors_are_bitwise_the_one_shot_build(bounds, cells):
    # every node difference is exact, so the distance at an index offset is
    # the distance of every pair at that offset, to the last bit
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    kern = _Kernel(grid, params)
    _assert_kernel_arrays(kern, *_reference_kernel_arrays(grid, params))
    _assert_kernel_rays(kern)


def _reference_offset_arrays(grid, params):
    """Dense qs, wop and energy weights from the distance of each pair's
    index offset, measured from node 0 and looked up for every node pair."""
    s, n, h = params.s, grid.dim, grid.h
    pts = grid.nodes
    N = grid.node_count
    dist0 = np.sqrt(np.sum((pts[:1] - pts) ** 2, axis=1))
    lattice = np.indices(grid.cells).reshape(grid.dim, -1)
    offsets = np.abs(lattice[:, None, :] - lattice[:, :, None])
    D = dist0[np.ravel_multi_index(tuple(offsets), grid.cells)]
    np.fill_diagonal(D, 1.0)
    qs = D**(-s)
    np.fill_diagonal(qs, 0.0)
    wop = h**n * D ** (-(n + s))
    np.fill_diagonal(wop, 0.0)
    wen = 2.0 * h ** (2 * n) * D ** (-n)
    np.fill_diagonal(wen, 0.0)
    return qs, wop, wen


@pytest.mark.parametrize("bounds, cells", _MULTI_BLOCK_GRIDS)
def test_kernel_accessors_are_bitwise_the_per_offset_rule(bounds, cells):
    # node differences round on these grids: each pair takes the distance
    # of its index offset from node 0, within rounding of its own distance
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    blocks = _row_blocks(grid.node_count)
    assert len(blocks) > 2
    assert blocks[-1].stop - blocks[-1].start < blocks[0].stop - blocks[0].start
    kern = _Kernel(grid, params)
    pts = grid.nodes
    assert kern.dist.tobytes() == np.sqrt(np.sum((pts[:1] - pts) ** 2, axis=1)).tobytes()
    ref = _reference_offset_arrays(grid, params)
    _assert_kernel_arrays(kern, *ref)
    _assert_kernel_rays(kern)
    for got, pair in zip(ref, _reference_kernel_arrays(grid, params)):
        assert got.tobytes() != pair.tobytes()
        np.testing.assert_allclose(got, pair, rtol=1e-13, atol=0.0)


def _reference_angular_rays(grid):
    """The 2d exterior ray rule formed one node at a time: Gauss panels
    split at the node's corner directions, and the exit distance along
    every Gauss direction."""
    order = _THETA_ORDER
    x, w = np.polynomial.legendre.leggauss(order)
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


@pytest.mark.parametrize(
    "bounds, cells",
    [
        ([[0.0, 1.0], [0.0, 1.0]], (8, 8)),
        ([[0.0, 1.3], [0.0, 1.1]], (13, 11)),
        ([[0.0, 1.0], [0.0, 1.0]], (32, 32)),
    ],
)
def test_angular_rays_are_bitwise_the_per_node_rule(bounds, cells):
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    kern = _Kernel(grid, params)
    ray_dist, ray_w = _reference_angular_rays(grid)
    got_dist, got_w = _angular_rays(grid)
    assert got_dist.tobytes() == ray_dist.tobytes()
    assert got_w.tobytes() == ray_w.tobytes()
    assert kern.ray_w.tobytes() == ray_w.tobytes()
    assert kern.ray_scale.tobytes() == (ray_dist ** (-params.s)).tobytes()


@pytest.mark.parametrize("bounds, cells", _MULTI_BLOCK_GRIDS)
def test_pair_samples_are_bitwise_the_triu_form(bounds, cells):
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    kern = get_kernel(grid, params)
    v = np.random.default_rng(13).standard_normal(grid.node_count)
    i0, i1 = np.triu_indices(grid.node_count, k=1)
    ref = np.abs(v[i0] - v[i1]) * dense_kernel(kern)[0][i0, i1]
    # the pair values the test margin reduces, and the energy's weights
    assert kern.pair_values(np.abs, v).tobytes() == ref.tobytes()
    blocks = _row_blocks(grid.node_count, upper=True)
    weights = np.concatenate([kern.upper_weights(rows) for rows in blocks])
    assert weights.tobytes() == dense_energy_weights(kern)[i0, i1].tobytes()


def _kernel_bytes(kern):
    """Bytes of the arrays a kernel holds, counted over its attributes."""
    return sum(a.nbytes for a in vars(kern).values() if isinstance(a, np.ndarray))


def test_kernel_build_streams_in_row_blocks():
    grid = Grid.build([0.0, 1.0], 2000)
    tracemalloc.start()
    try:
        # built directly so the session's kernel cache does not keep it
        kern = _Kernel(grid, OperatorParams(s=0.4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    N = grid.node_count
    assert kern.qs_offsets.shape == kern.wop_offsets.shape == (2 * N - 1,)
    assert kern.wen_offsets.shape == (2 * N - 1,)
    # the distances, the offset tables, the exterior rays and the
    # upper-pair mask of one row block, but no pair-length vector (15 MiB)
    resident = _kernel_bytes(kern)
    assert resident <= 1024 * 1024
    assert peak < resident + 4 * 1024 * 1024


def test_kernel_holds_no_dense_pair_array():
    grid = Grid.build([[0.0, 1.0], [0.0, 1.0]], (32, 32))
    kern = _Kernel(grid, OperatorParams(s=0.5))
    N = grid.node_count
    assert kern.qs_offsets.shape == kern.wop_offsets.shape == kern.wen_offsets.shape == (63, 63)
    assert all(
        a.size < N * (N - 1) // 2 for a in vars(kern).values() if isinstance(a, np.ndarray)
    )
    # the dense quotient scales and operator weights took 16 MiB, the
    # pair-length energy weights 4 MiB; the exterior rays are 1 MiB
    assert _kernel_bytes(kern) <= 1.2 * 1024 * 1024


def test_kernel_cache_keeps_the_most_recently_used():
    params = OperatorParams(s=0.4)
    grids = [Grid.build([0.0, 1.0], 5 + k) for k in range(_KERNEL_CAPACITY + 1)]
    first = get_kernel(grids[0], params)
    for grid in grids[1:-1]:
        get_kernel(grid, params)
    assert get_kernel(grids[0], params) is first  # a hit refreshes its entry
    get_kernel(grids[-1], params)
    assert len(_KERNELS) == _KERNEL_CAPACITY
    # capacity + 1 distinct kernels: the least recently used one is gone
    assert (grids[1].key, 0.4) not in _KERNELS
    assert get_kernel(grids[0], params) is first


def test_hat_cache_lives_with_its_growth_function():
    gc.collect()
    before = len(_HATS)
    yf = make_power(2.5)
    grid = Grid.build([0.0, 1.0], 8)
    energy(DiscreteFunction(grid, np.ones(8)), yf, OperatorParams(s=0.5))
    assert len(_HATS) == before + 1
    del yf
    gc.collect()
    assert len(_HATS) == before
