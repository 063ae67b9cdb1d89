"""Eigen and semilinear solves, modular normalization, truncation traces."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from fglap import (
    ConvergenceError,
    DiscreteFunction,
    Grid,
    OperatorParams,
    SolveOptions,
    SubcriticalityError,
    apply_operator,
    check_recursive_bound,
    degiorgi_rescale,
    degiorgi_trace,
    domain_modular,
    energy,
    fit_recursion,
    holder_seminorm,
    is_subcritical,
    iterate_recursion,
    make_piecewise_power,
    make_power,
    make_power_log,
    pair_test_margin,
    scale_young,
    sobolev_conjugate,
    solve_eigen,
    solve_semilinear,
    sup_norm,
    truncation_energy_report,
)
from fglap.operator import (
    _KERNELS,
    _Kernel,
    _angular_rays,
    _energy_hessian,
    _exterior_operator,
    _operator_pass,
    get_kernel,
)
from fglap import solver
from fglap.solver import StagnationError
from fglap.young import _hat_table, _modular_scale
from conftest import dense_kernel
from test_operator import _MULTI_BLOCK_GRIDS, dense_linear_matrix_1d, linear_family


# ---------------------------------------------------------------------------
# modular normalization
# ---------------------------------------------------------------------------


def _onto_level(u, yf, mu):
    """u rescaled onto the modular level mu, as the eigen solve projects."""
    return u.with_values(u.values / _modular_scale(u.values, u.grid.node_weight, yf, mu))


def test_normalize_identity_when_already_at_level():
    G = make_power(2.0)
    grid = Grid.build([0.0, 1.0], 16)
    u = DiscreteFunction(grid, np.full(16, 2.0))
    mu = domain_modular(u, G)
    out = _onto_level(u, G, mu)
    assert np.allclose(out.values, u.values, rtol=1e-12)


def test_normalize_constant_closed_form():
    # unit measure, square growth, constant two, target one: scale is two
    G = make_power(2.0)
    grid = Grid.build([0.0, 1.0], 16)
    u = DiscreteFunction(grid, np.full(16, 2.0))
    out = _onto_level(u, G, 1.0)
    assert np.allclose(out.values, 1.0, rtol=1e-10)
    assert domain_modular(out, G) == pytest.approx(1.0, rel=1e-10)


def test_normalize_scale_inside_index_bracket(families):
    rng = np.random.default_rng(2)
    grid = Grid.build([0.0, 1.0], 32)
    for name, yf in families.items():
        u = DiscreteFunction(grid, rng.standard_normal(32) * 3.0)
        for mu in (0.1, 1.0, 7.0):
            out = _onto_level(u, yf, mu)
            c = u.values[0] / out.values[0]
            r = domain_modular(u, yf) / mu
            lo = min(r ** (1 / yf.p_plus), r ** (1 / yf.p_minus))
            hi = max(r ** (1 / yf.p_plus), r ** (1 / yf.p_minus))
            assert lo * (1 - 1e-9) <= c <= hi * (1 + 1e-9), name
            assert domain_modular(out, yf) == pytest.approx(mu, rel=1e-8)


def test_normalize_rejects_zero():
    G = make_power(2.0)
    grid = Grid.build([0.0, 1.0], 8)
    with pytest.raises(ValueError):
        _onto_level(DiscreteFunction(grid, np.zeros(8)), G, 1.0)


def _reference_modular_scale(values, weight, yf, mu):
    """Index-sandwich bracket, then a modular evaluation at every bisection
    step down to adjacent floats."""
    absv = np.abs(values)

    def mod(c):
        return weight * float(np.sum(yf(absv / c)))

    r = mod(1.0) / mu
    br = sorted((r ** (1.0 / yf.p_plus), r ** (1.0 / yf.p_minus)))
    lo, hi = br[0] * (1.0 - 1e-9), br[1] * (1.0 + 1e-9)
    flo, fhi = mod(lo), mod(hi)
    for _ in range(200):
        if flo >= mu >= fhi:
            break
        lo *= 0.5
        hi *= 2.0
        flo, fhi = mod(lo), mod(hi)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mod(mid) > mu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _counting(yf, calls):
    def ev(t):
        calls.append(len(t))
        return yf.evaluate(t)

    return replace(yf, evaluate=ev)


def test_modular_scale_is_bitwise_the_plain_bisection(families):
    rng = np.random.default_rng(59)
    for name, yf in families.items():
        for _ in range(40):
            n = int(rng.integers(1, 1200))
            v = rng.standard_normal(n) * 10.0 ** rng.uniform(-4.0, 4.0)
            # values near 1, where piecewise2_3 and powerlog3 change exponent
            v[: n // 2] = rng.choice([-1.0, 1.0], n // 2) * rng.uniform(0.9, 1.1, n // 2)
            weight, mu = 10.0 ** rng.uniform(-3.0, 0.0), 10.0 ** rng.uniform(-3.0, 3.0)
            got = _modular_scale(v, weight, yf, mu)
            assert got == _reference_modular_scale(v, weight, yf, mu), name


def test_modular_scale_is_bitwise_on_ladder_iterates(families, monkeypatch):
    """Every projection of the 24-node ladder solve verify runs
    (piecewise2_3, s = 0.5, mu = 1), which stalls within 60 iterations."""
    yf = families["piecewise2_3"]
    seen = []

    def capture(values, weight, g, mu):
        seen.append((values.copy(), weight, mu))
        return _modular_scale(values, weight, g, mu)

    monkeypatch.setattr(solver, "_modular_scale", capture)
    with pytest.raises(ConvergenceError):
        solve_eigen(
            Grid.build([0.0, 1.0], 24),
            yf,
            OperatorParams(s=0.5),
            1.0,
            SolveOptions(tol=2e-6, max_iter=60),
        )
    assert len(seen) == 362
    for values, weight, mu in seen:
        assert _modular_scale(values, weight, yf, mu) == _reference_modular_scale(
            values, weight, yf, mu
        )


def test_modular_scale_evaluation_count(families):
    """A pinned count on the solver's seed: a silent fall back to the full
    bisection path would show here, not in the bits."""
    grid = Grid.build([0.0, 1.0], 24)
    u = solver._bump(grid)
    calls = []
    yf = _counting(families["piecewise2_3"], calls)
    got = _modular_scale(u, grid.node_weight, yf, 1.0)
    assert len(calls) == 17
    assert got == _reference_modular_scale(u, grid.node_weight, yf, 1.0)
    assert len(calls) == 17 + 55  # the plain bisection's own count


# ---------------------------------------------------------------------------
# eigen solve
# ---------------------------------------------------------------------------


def test_linear_eigen_matches_dense_solver():
    s = 0.5
    G = linear_family()
    grid = Grid.build([0.0, 1.0], 64)
    M = dense_linear_matrix_1d(grid, s)
    evals, evecs = np.linalg.eigh(2.0 * M)
    lam_ref = evals[0]
    v_ref = evecs[:, 0]
    if v_ref.sum() < 0:
        v_ref = -v_ref
    res = solve_eigen(
        grid, G, OperatorParams(s=s), 1.0, SolveOptions(tol=1e-9, max_iter=40000)
    )
    assert res.lam == pytest.approx(lam_ref, rel=1e-6)
    got = res.u.values / np.max(np.abs(res.u.values))
    ref = v_ref / np.max(np.abs(v_ref))
    assert np.max(np.abs(got - ref)) < 1e-6
    assert domain_modular(res.u, G) == pytest.approx(1.0, rel=1e-8)


def test_eigen_positivity_from_positive_seed(eigen_ladder):
    for res in eigen_ladder.values():
        assert res.u.values.min() >= -1e-10 * sup_norm(res.u)


def test_eigen_power_homogeneity():
    # pure power growth: doubling the data exactly scales the level by 2**p
    G = make_power(3.0)
    grid = Grid.build([0.0, 1.0], 48)
    params = OperatorParams(s=0.3)
    opts = SolveOptions(tol=1e-9, max_iter=40000)
    r1 = solve_eigen(grid, G, params, 1.0, opts)
    r2 = solve_eigen(grid, G, params, 2.0**3, opts)
    assert r2.lam == pytest.approx(r1.lam, rel=1e-6)
    assert np.max(np.abs(r2.u.values - 2.0 * r1.u.values)) < 1e-6 * sup_norm(r2.u)


def test_eigen_weak_identity_and_energy_bound(families, eigen_ladder):
    yf = families["piecewise2_3"]
    params = OperatorParams(s=0.4)
    for res in eigen_ladder.values():
        A2 = 2.0 * apply_operator(res.u, yf, params)
        gv = yf.slope_odd(res.u.values)
        lhs = float(np.dot(A2, res.u.values))
        rhs = res.lam * float(np.dot(gv, res.u.values))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)
        # modular energy controlled through the index-ratio constant
        E = energy(res.u, yf, params)
        bound = (yf.p_plus / yf.p_minus) * res.lam * domain_modular(res.u, yf)
        assert E <= bound * (1 + 1e-6)


def test_eigen_energy_history_monotone(eigen_ladder):
    for res in eigen_ladder.values():
        hist = res.energy_history
        assert np.all(np.diff(hist) <= 1e-12 * np.abs(hist[:-1]))


def test_eigen_residual_reported(eigen_ladder):
    for res in eigen_ladder.values():
        assert res.residual <= 2e-6
        assert res.iterations > 0


def test_eigen_2d_solves(families):
    grid = Grid.build([[0.0, 1.0], [0.0, 1.0]], (8, 8))
    lin = solve_eigen(
        grid, linear_family(), OperatorParams(s=0.5), 1.0,
        SolveOptions(tol=1e-7, max_iter=20000),
    )
    assert lin.residual <= 1e-7
    assert lin.u.values.min() > 0
    pw = solve_eigen(
        grid, families["piecewise2_3"], OperatorParams(s=0.4), 0.4,
        SolveOptions(tol=2e-6, max_iter=20000),
    )
    assert pw.residual <= 2e-6
    tr = degiorgi_trace(degiorgi_rescale(pw.u), families["piecewise2_3"], 20)
    assert tr.inclusion_ok
    assert np.all(np.diff(tr.a) <= 1e-15)


def test_eigen_power_log_family(families):
    res = solve_eigen(
        Grid.build([0.0, 1.0], 48), families["powerlog3"], OperatorParams(s=0.3),
        0.5, SolveOptions(tol=2e-6, max_iter=20000),
    )
    assert res.residual <= 2e-6
    assert res.u.values.min() >= -1e-10 * sup_norm(res.u)


def test_eigen_descent_paths_pinned_at_s_0_4(families):
    # the minimizer parks pair quotients on the density jump, where the plain
    # Euler-Lagrange defect cannot close: the solve raises with that defect
    with pytest.raises(StagnationError) as info:
        solve_eigen(
            Grid.build([0.0, 1.0], 128), families["piecewise2_3"], OperatorParams(s=0.4),
            1.0, SolveOptions(tol=2e-6, max_iter=3000),
        )
    assert str(info.value) == (
        "line search collapsed at iteration 23 (best residual 8.750e-03)"
    )


def test_eigen_descent_paths_pinned_at_s_0_25(families):
    # the defect tail takes the last step
    res = solve_eigen(
        Grid.build([0.0, 1.0], 128), families["piecewise2_3"], OperatorParams(s=0.25),
        1.0, SolveOptions(tol=2e-6, max_iter=3000),
    )
    assert res.iterations == 14
    assert res.lam == pytest.approx(11.56009363869041, rel=1e-12)
    assert res.residual == pytest.approx(1.7395845119949627e-07, rel=1e-12)


def test_verify_ladder_stall_raises(families):
    # the 24-node solve of verify's ladder (piecewise2_3, s = 0.5, mu = 1)
    # stalls far from tol; a stalled solve raises with its best residual.
    # 24 cells put nodes off the binary grid, so the stall's iteration
    # follows the last bits of the per-offset kernel entries
    with pytest.raises(StagnationError) as info:
        solve_eigen(
            Grid.build([0.0, 1.0], 24), families["piecewise2_3"], OperatorParams(s=0.5),
            1.0, SolveOptions(tol=2e-6, max_iter=8000),
        )
    assert str(info.value) == (
        "line search collapsed at iteration 50 (best residual 8.362e-01)"
    )


def test_eigen_2d_pinned(families):
    res = solve_eigen(
        Grid.build([[0.0, 1.0], [0.0, 1.0]], (12, 12)), families["summix"],
        OperatorParams(s=0.4), 0.4, SolveOptions(tol=2e-6, max_iter=3000),
    )
    # the preconditioned descent with its defect tail, no Newton polish
    assert res.iterations == 11
    assert res.lam == pytest.approx(37.64557000087922, rel=1e-12)
    assert res.residual == pytest.approx(2.874902023108916e-07, rel=1e-12)


# the sweep's converged cases: (family, s, mu) -> (iterations, lambda)
_JUMP_SWEEP_CONVERGED = {
    ("piecewise2_3", 0.25, 0.1): (12, 13.74425994767066),
    ("piecewise2_3", 0.25, 0.4): (12, 13.744259947670649),
    ("piecewise2_3", 0.25, 1.0): (14, 11.56009363869041),
    ("piecewise2_3", 0.4, 0.1): (12, 13.0159716018959),
    ("piecewise2_3", 0.4, 0.4): (11, 13.858279593979798),
    ("piecewise2_3", 0.75, 0.1): (14, 27.51720984731174),
    ("powerlog3", 0.25, 0.1): (16, 12.137910485549709),
    ("powerlog3", 0.25, 0.4): (23, 12.722301725709052),
    ("powerlog3", 0.4, 0.1): (19, 12.157296377945327),
    ("powerlog3", 0.4, 0.4): (24, 14.391644010513685),
    ("powerlog3", 0.75, 0.1): (24, 29.208488041888874),
}


def test_jump_families_converge_on_the_plain_defect_or_raise(families):
    # every case of the README's sweep either returns the plain
    # Euler-Lagrange defect at its pair, within tol, or stalls well inside
    # the iteration budget (the latest stall is at iteration 154)
    grid = Grid.build([0.0, 1.0], 128)
    opts = SolveOptions(tol=2e-6, max_iter=3000)
    converged = {}
    for name in ("piecewise2_3", "powerlog3"):
        yf = families[name]
        for s in (0.25, 0.4, 0.75):
            params = OperatorParams(s=s)
            for mu in (0.1, 0.4, 1.0, 4.0):
                try:
                    res = solve_eigen(grid, yf, params, mu, opts)
                except StagnationError as exc:
                    stall = int(re.search(r"iteration (\d+)", str(exc)).group(1))
                    assert stall < 200, (name, s, mu)
                    continue
                defect = 2.0 * apply_operator(res.u, yf, params) - res.lam * yf.slope_odd(
                    res.u.values
                )
                assert res.residual == np.max(np.abs(defect)) <= opts.tol, (name, s, mu)
                # the bound of verify's descent_energy_monotone
                assert np.max(np.diff(res.energy_history)) <= 1e-12, (name, s, mu)
                converged[name, s, mu] = (res.iterations, res.lam)
    assert converged.keys() == _JUMP_SWEEP_CONVERGED.keys()
    for case, (iterations, lam) in _JUMP_SWEEP_CONVERGED.items():
        assert converged[case][0] == iterations, case
        assert converged[case][1] == pytest.approx(lam, rel=1e-12), case


@pytest.mark.parametrize("name, cells", [("power2", 16), ("power2", 64), ("summix", 32)])
def test_atom_free_residual_is_the_plain_defect(families, name, cells):
    # far below the default tolerance the residual is still the plain
    # defect at the returned pair, and still positive
    yf = families[name]
    params = OperatorParams(s=0.5)
    res = solve_eigen(Grid.build([0.0, 1.0], cells), yf, params, 1.0, SolveOptions(tol=1e-13))
    defect = 2.0 * apply_operator(res.u, yf, params) - res.lam * yf.slope_odd(res.u.values)
    assert 0.0 < res.residual == np.max(np.abs(defect))


def test_semilinear_solves_skip_the_preconditioner(families, monkeypatch):
    # the preconditioned direction serves the eigen probe of every family,
    # a jump family too; both source-solve paths keep the plain gradient
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(_Kernel, "precondition", reached)
    grid = Grid.build([0.0, 1.0], 32)
    params = OperatorParams(s=0.4)
    G = make_power(2.0)
    solve_semilinear(grid, G, make_power(2.2), params, SolveOptions(tol=1e-6))
    solve_semilinear(grid, G, None, params, SolveOptions(tol=1e-8), source=np.ones(32))
    with pytest.raises(Reached):
        solve_eigen(grid, families["piecewise2_3"], params, 0.4, SolveOptions(tol=2e-6))


@pytest.mark.parametrize(
    "p, max_iterations, lam",
    [(2.0, 30, 28.814750223033435), (3.5, 160, 46.972787882582146)],
)
def test_preconditioned_descent_iterations_at_512_cells(p, max_iterations, lam):
    # the plain gradient took 334 and 640 iterations here; the values of
    # lambda are those of its solves
    res = solve_eigen(
        Grid.build([0.0, 1.0], 512), make_power(p), OperatorParams(s=0.75), 0.4,
        SolveOptions(tol=1e-8),
    )
    assert res.iterations <= max_iterations
    assert res.lam == pytest.approx(lam, rel=1e-9)


def test_atom_free_2d_solves_need_no_newton_polish(families, monkeypatch):
    # the defect tail takes over where the energy stops resolving a step;
    # the plain gradient polished 11 of these 18 solves.  No eigen solve
    # polishes: one that gets nothing from its defect tail stalls
    def polish(*args):
        raise AssertionError("Newton polish called")

    monkeypatch.setattr(solver, "_newton_polish", polish)
    monkeypatch.setattr(solver, "_energy_hessian", polish)
    opts = SolveOptions(tol=2e-6)
    for yf in (families["summix"], make_power(2.0), make_power(3.5)):
        for cells in (8, 16):
            grid = Grid.build([[0.0, 1.0], [0.0, 1.0]], (cells, cells))
            for s in (0.25, 0.5, 0.75):
                res = solve_eigen(grid, yf, OperatorParams(s=s), 0.4, opts)
                assert res.residual <= 2e-6, (yf.label, cells, s)
    # a jump-family solve that stalls, as pinned at s = 0.4 above
    with pytest.raises(StagnationError, match=r"iteration 23 \(best residual 8.750e-03\)"):
        solve_eigen(
            Grid.build([0.0, 1.0], 128), families["piecewise2_3"], OperatorParams(s=0.4),
            1.0, opts,
        )


_PARK_STEPS = 16  # ulp steps allowed when parking a quotient on |q| = 1


@pytest.mark.parametrize(
    "family, bounds, cells",
    [
        ("piecewise2_3", [0.0, 1.0], 64),
        ("summix", [[0.0, 1.0], [0.0, 1.0]], (8, 8)),
        # several row blocks, the last one ragged
        ("piecewise2_3", [0.0, 1.0], 600),
        ("summix", [[0.0, 1.0], [0.0, 1.0]], (24, 24)),
    ],
)
def test_operator_pass_is_bitwise_the_reference(families, family, bounds, cells):
    yf = families[family]
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    kern = get_kernel(grid, params)
    qs, wop = dense_kernel(kern)
    v = np.random.default_rng(5).standard_normal(grid.node_count)
    # park the quotients of pairs (0, k) exactly on |q| = 1, where the
    # density of piecewise2_3 jumps
    v[0] = 0.0
    # for some pairs no float x gives x * qs == 1.0, so the ulp walk is
    # capped and such a pair fails by name instead of looping forever
    for k in (1, 3, 7, grid.node_count - 1):
        x = 1.0 / qs[0, k]
        steps = 0
        while x * qs[0, k] != 1.0:
            steps += 1
            if steps > _PARK_STEPS:
                pytest.fail(f"pair (0, {k}) does not park on |q| = 1 in {_PARK_STEPS} steps")
            x = np.nextafter(x, np.inf if x * qs[0, k] < 1.0 else -np.inf)
        v[k] = x
    q = (v[:, None] - v[None, :]) * qs
    assert np.count_nonzero(q == 1.0) == 4 and np.count_nonzero(q == -1.0) == 4
    assert kern.quotients(v, slice(None)).tobytes() == q.tobytes()

    # the operator formed from scratch, without the blocked pass
    ref = np.sum(yf.slope_odd(q) * wop, axis=1) + _exterior_operator(v, yf, kern)
    assert _operator_pass(v, yf, kern).tobytes() == ref.tobytes()
    assert apply_operator(DiscreteFunction(grid, v), yf, params).tobytes() == ref.tobytes()


def _parked(kern, seed):
    """Random nodal values with 49 pair quotients parked on |q| = 1 to
    within rounding, where the density of piecewise2_3 jumps, in three row
    blocks: each row i below gets v[i] = 0 and partners k > i."""
    N = kern.grid.node_count
    qs = dense_kernel(kern)[0]
    v = np.random.default_rng(seed).standard_normal(N)
    for i, partners in ((0, range(1, 21)), (300, range(301, 321)), (N - 10, range(N - 9, N))):
        v[i] = 0.0
        for k in partners:
            v[k] = 1.0 / qs[i, k]
    return v


def _reference_energy_hessian(grid, yf, params, u):
    """The energy Hessian formed densely in one shot."""
    kern = get_kernel(grid, params)
    qs, wop = dense_kernel(kern)
    hn = grid.node_weight
    with np.errstate(divide="ignore"):
        wfull = hn * wop / np.where(qs > 0, qs, 1.0)
    np.fill_diagonal(wfull, 0.0)
    quot = (u[:, None] - u[None, :]) * qs
    aq = np.abs(quot)
    dq = 1e-7 * (1.0 + aq)
    gp = (yf.g(aq + dq) - yf.g(np.maximum(aq - dq, 0.0))) / (2.0 * dq)
    C = 2.0 * wfull * gp * qs**2
    H = np.diag(np.sum(C, axis=1)) - C
    x = np.abs(u)[:, None] * kern.ray_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(x > 0, x, 1.0)
        hpp = np.where(x > 0, (yf.g(x) - yf(x) / safe) / safe, 0.0)
    ext_diag = (2.0 * hn / params.s) * np.sum(
        kern.ray_w * kern.ray_scale**2 * hpp, axis=1
    )
    H[np.diag_indices_from(H)] += ext_diag
    return H


@pytest.mark.parametrize("bounds, cells", _MULTI_BLOCK_GRIDS)
def test_blocked_hessian_is_bitwise_the_dense_one(families, bounds, cells):
    yf = families["piecewise2_3"]
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    v = _parked(get_kernel(grid, params), 17)
    ref = _reference_energy_hessian(grid, yf, params, v)
    H = _energy_hessian(grid, yf, params, v)
    assert H.tobytes() == ref.tobytes()


def test_energy_hessian_stays_within_two_matrices(families):
    yf = families["piecewise2_3"]
    grid = Grid.build([0.0, 1.0], 1000)
    params = OperatorParams(s=0.4)
    v = np.random.default_rng(23).standard_normal(grid.node_count)
    get_kernel(grid, params)  # the kernel build is not the Hessian's cost
    _hat_table(yf)
    N = grid.node_count
    tracemalloc.start()
    try:
        _energy_hessian(grid, yf, params, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _KERNELS.pop((grid.key, params.s))
    assert peak < 2 * N * N * 8


def _ray_dist(grid):
    """Exit distances of the exterior rays: the 1d closed form, the 2d
    angular rule."""
    if grid.dim == 1:
        (a, b), x = grid.bounds[0], grid.nodes[:, 0]
        return np.column_stack([x - a, b - x])
    return _angular_rays(grid)[0]


@pytest.mark.parametrize("bounds, cells", _MULTI_BLOCK_GRIDS)
def test_pair_test_margin_is_bitwise_the_triu_form(families, bounds, cells):
    grid = Grid.build(bounds, cells)
    params = OperatorParams(s=0.4)
    kern = get_kernel(grid, params)
    qs = dense_kernel(kern)[0]
    rng = np.random.default_rng(37)
    iu = np.triu_indices(grid.node_count, k=1)
    for name in ("piecewise2_3", "summix"):
        yf = families[name]
        u = DiscreteFunction(grid, rng.standard_normal(grid.node_count))
        # many pairs with w = 0 at both ends, so zero margins of both signs
        w = u.with_values(np.maximum(u.values - 0.3, 0.0))
        qu = (u.values[:, None] - u.values[None, :]) * qs
        qw = (w.values[:, None] - w.values[None, :]) * qs
        lhs = yf.slope_odd(qu) * qw
        rhs = yf.p_minus * yf(np.abs(qw))
        ref = float(np.min((lhs - rhs)[iu]))
        scale = _ray_dist(grid) ** (-params.s)
        assert scale.tobytes() == kern.ray_scale.tobytes()
        qu_e = u.values[:, None] * scale
        qw_e = w.values[:, None] * scale
        ext = yf.slope_odd(qu_e) * qw_e - yf.p_minus * yf(np.abs(qw_e))
        # a zero margin is returned as +0.0, whatever sign the order gives
        ref = min(ref, float(np.min(ext))) + 0.0
        assert pair_test_margin(u, w, yf, params).hex() == ref.hex(), name


@pytest.mark.parametrize("bounds, cells", _MULTI_BLOCK_GRIDS)
def test_holder_seminorm_is_bitwise_the_triu_form(bounds, cells):
    grid = Grid.build(bounds, cells)
    v = np.random.default_rng(41).standard_normal(grid.node_count)
    pts = grid.nodes
    diff = pts[:, None, :] - pts[None, :, :]
    D = np.sqrt(np.sum(diff * diff, axis=2))
    iu = np.triu_indices(grid.node_count, k=1)
    for alpha in (0.25, 0.5):
        interior = float(np.max(np.abs(v[iu[0]] - v[iu[1]]) / D[iu] ** alpha))
        # with values this rough the boundary layer does not set the sup
        boundary = float(np.max(np.abs(v))) / grid.h**alpha
        assert interior > boundary
        got = holder_seminorm(DiscreteFunction(grid, v), alpha)
        assert got.hex() == interior.hex()


def test_eigen_rejects_bad_level():
    G = make_power(2.0)
    grid = Grid.build([0.0, 1.0], 16)
    with pytest.raises(ValueError):
        solve_eigen(grid, G, OperatorParams(s=0.5), -1.0)


# ---------------------------------------------------------------------------
# semilinear
# ---------------------------------------------------------------------------


def test_semilinear_zero_rhs_gives_zero():
    G = make_power(2.0)
    grid = Grid.build([0.0, 1.0], 16)
    u = solve_semilinear(grid, G, None, OperatorParams(s=0.4))
    assert np.all(u.values == 0.0)


def test_subcriticality_check():
    G = make_power(2.0)
    gstar = sobolev_conjugate(G, 0.4, 1)  # critical exponent 10
    assert is_subcritical(make_power(2.2), gstar)
    assert not is_subcritical(make_power(12.0), gstar)
    grid = Grid.build([0.0, 1.0], 16)
    with pytest.raises(SubcriticalityError):
        solve_semilinear(
            grid,
            G,
            make_power(12.0),
            OperatorParams(s=0.4),
        )


def _newton_semilinear(grid, G, F, params, v, steps=4):
    """Newton steps on 2 A(v) = f(v) from v, with a Jacobian by central
    differences, one operator pair per column: the discrete solution near
    v, found independently of the solver.  Returns it with its defect."""

    def defect(w):
        return 2.0 * apply_operator(DiscreteFunction(grid, w), G, params) - F.slope_odd(w)

    N = len(v)
    for _ in range(steps):
        d = 1e-6 * np.max(np.abs(v))
        J = np.empty((N, N))
        for j in range(N):
            e = np.zeros(N)
            e[j] = d
            J[:, j] = (defect(v + e) - defect(v - e)) / (2.0 * d)
        v = v - np.linalg.solve(J, defect(v))
    return v, defect(v)


def test_semilinear_autonomous_nontrivial():
    G = make_power(2.0)
    F = make_power(2.2)
    grid = Grid.build([0.0, 1.0], 48)
    params = OperatorParams(s=0.4)
    u = solve_semilinear(
        grid, G, F, params,
        SolveOptions(tol=1e-6, max_iter=40000),
    )
    assert sup_norm(u) > 1.0  # the nontrivial branch, not the zero solution
    A2 = 2.0 * apply_operator(u, G, params)
    fv = F.slope_odd(u.values)
    rel = np.max(np.abs(A2 - fv)) / (np.max(np.abs(A2)) + np.max(np.abs(fv)))
    assert rel <= 1e-6
    # the solver's u is the discrete solution to ten times its tolerance
    oracle, r = _newton_semilinear(grid, G, F, params, u.values)
    assert np.max(np.abs(r)) <= 1e-12 * np.max(np.abs(A2))
    assert np.max(np.abs(u.values - oracle)) <= 1e-5 * np.max(np.abs(oracle))


def test_semilinear_linear_constant_source_matches_dense():
    s = 0.45
    G = linear_family()
    grid = Grid.build([0.0, 1.0], 32)
    M = dense_linear_matrix_1d(grid, s)
    src = np.full(32, 3.0)
    u = solve_semilinear(
        grid, G, None, OperatorParams(s=s),
        SolveOptions(tol=1e-10, max_iter=40000), source=src,
    )
    ref = np.linalg.solve(2.0 * M, src)
    assert np.max(np.abs(u.values - ref)) < 1e-8 * np.max(np.abs(ref))


def bump_profile(x, a=0.2, b=0.8):
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.zeros_like(xx)
    m = (xx > a) & (xx < b)
    t = (2 * xx[m] - (a + b)) / (b - a)
    y[m] = np.exp(-1.0 / (1.0 - t**2))
    return y


def reference_linear_operator(xq, s):
    """Continuum principal-value operator of the smooth bump for the linear
    density, by adaptive quadrature; an oracle independent of the grid."""
    pts = sorted({p for p in (abs(xq - 0.2), abs(xq - 0.8)) if 0 < p < 10})

    def integrand(r):
        return (
            2 * bump_profile(xq)[0] - bump_profile(xq + r)[0] - bump_profile(xq - r)[0]
        ) * r ** (-1 - 2 * s)

    val, _ = quad(integrand, 0, 10.0, points=pts, limit=400)
    tail = 2 * bump_profile(xq)[0] * 10.0 ** (-2 * s) / (2 * s)
    return val + tail


def test_manufactured_solution_recovery_improves_with_refinement():
    s = 0.4
    G = linear_family()
    errs = []
    for n in (16, 32, 64):
        grid = Grid.build([0.0, 1.0], n)
        x = grid.nodes[:, 0]
        src = np.array([2.0 * reference_linear_operator(xx, s) for xx in x])
        uh = solve_semilinear(
            grid, G, None, OperatorParams(s=s),
            SolveOptions(tol=1e-8, max_iter=40000), source=src,
        )
        errs.append(float(np.max(np.abs(uh.values - bump_profile(x)))))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# truncation diagnostics
# ---------------------------------------------------------------------------


def test_trace_nonpositive_data_is_all_zero():
    G = make_power(2.0)
    grid = Grid.build([0.0, 1.0], 16)
    u = DiscreteFunction(grid, -np.abs(np.linspace(-1, 1, 16)))
    tr = degiorgi_trace(u, G, 10)
    assert np.all(tr.a == 0.0)
    assert check_recursive_bound(tr).trivial


def test_trace_constant_one_closed_form():
    # unit data on the unit interval: a_k = G(2**-k), dyadic decay
    G = make_power(2.0)
    grid = Grid.build([0.0, 1.0], 32)
    u = DiscreteFunction(grid, np.ones(32))
    tr = degiorgi_trace(u, G, 12)
    expect = (2.0 ** (-np.arange(13.0))) ** 2
    assert np.allclose(tr.a, expect, rtol=1e-12)
    assert tr.inclusion_ok
    assert tr.domination_margin <= 1e-12


def test_trace_eigenfunction_decays_and_fits(families, eigen_ladder):
    yf = families["piecewise2_3"]
    res = eigen_ladder[256]
    tr = degiorgi_trace(res.u, yf, 30)
    assert np.all(np.diff(tr.a) <= 1e-15)
    assert tr.a[30] < 1e-8
    assert tr.inclusion_ok
    assert tr.domination_margin <= 1e-12
    rep = check_recursive_bound(tr)
    assert rep.ok


def test_recursion_fit_recovers_synthetic_constants():
    c1, c2, delta = 2.0, 2.0, 0.5
    a = iterate_recursion(c1, c2, delta, 1e-3, 8)
    got = fit_recursion(a)
    assert got is not None
    assert got[0] == pytest.approx(c1, rel=1e-2)
    assert got[1] == pytest.approx(c2, rel=1e-2)
    assert got[2] == pytest.approx(delta, rel=1e-2)


def test_trace_at_small_level_converges_below_threshold(families):
    # solve at a modular level below the fitted smallness threshold and watch
    # the raw trace vanish
    yf = families["piecewise2_3"]
    params = OperatorParams(s=0.4)
    grid = Grid.build([0.0, 1.0], 64)
    res = solve_eigen(grid, yf, params, 0.02, SolveOptions(tol=2e-6, max_iter=8000))
    tr = degiorgi_trace(res.u, yf, 30)
    assert tr.a[0] == pytest.approx(0.02, rel=1e-6)
    assert tr.a[30] < 1e-8
    if tr.epsilon0 is not None:
        assert tr.epsilon0 > 0


def test_rescaled_trace_levels_sweep_range(eigen_ladder, families):
    yf = families["piecewise2_3"]
    res = eigen_ladder[128]
    scaled = degiorgi_rescale(res.u)
    assert sup_norm(scaled) < 1.0
    tr = degiorgi_trace(scaled, yf, 30)
    assert tr.a[0] > 0
    assert tr.a[30] == 0.0


def test_pair_inequality_random_functions(families):
    grid = Grid.build([0.0, 1.0], 32)
    params = OperatorParams(s=0.4)
    rng = np.random.default_rng(19)
    for name, yf in families.items():
        for _ in range(3):
            v = DiscreteFunction(grid, rng.standard_normal(32))
            w = v.with_values(np.maximum(v.values, 0.0))
            assert pair_test_margin(v, w, yf, params) >= -1e-10, name


def test_truncation_energy_bound_at_levels(families, eigen_ladder):
    yf = families["piecewise2_3"]
    params = OperatorParams(s=0.4)
    for res in eigen_ladder.values():
        for k, lhs, rhs in truncation_energy_report(res, yf, params, 8):
            assert lhs <= rhs * (1 + 1e-6) + 1e-30, k


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_sup_norm_and_boundary_holder():
    grid = Grid.build([0.0, 1.0], 32)
    c = DiscreteFunction(grid, np.full(32, 0.7))
    assert sup_norm(c) == pytest.approx(0.7)
    # constant data: the seminorm is carried by the virtual boundary pairs
    assert holder_seminorm(c, 0.3) == pytest.approx(0.7 / grid.h**0.3)


def test_holder_distance_profile_stable():
    vals = {}
    for n in (64, 128, 256):
        grid = Grid.build([0.0, 1.0], n)
        x = grid.nodes[:, 0]
        u = DiscreteFunction(grid, np.minimum(x, 1 - x) ** 0.25)
        vals[n] = holder_seminorm(u, 0.25)
    # the discrete value is pinned by the first virtual boundary pair at
    # 2**(-alpha); order one and refinement-stable
    for n, v in vals.items():
        assert 0.75 < v < 1.05, (n, v)
    assert abs(vals[256] - vals[128]) / vals[256] < 0.05


def test_holder_validates_exponent():
    grid = Grid.build([0.0, 1.0], 8)
    u = DiscreteFunction(grid, np.ones(8))
    with pytest.raises(ValueError):
        holder_seminorm(u, 1.5)


def test_linear_eigenfunction_holder_stability():
    # with the identity density at s = 1/2 the half-order seminorm of the
    # first eigenfunction is stable between successive refinements
    G = linear_family()
    params = OperatorParams(s=0.5)
    opts = SolveOptions(tol=1e-8, max_iter=40000)
    vals = []
    for n in (64, 128):
        res = solve_eigen(Grid.build([0.0, 1.0], n), G, params, 1.0, opts)
        vals.append(holder_seminorm(res.u, 0.25))
    assert abs(vals[1] - vals[0]) / vals[1] < 0.10


def test_eigen_sup_and_holder_stability(eigen_ladder):
    sups = [sup_norm(eigen_ladder[n].u) for n in (64, 128, 256)]
    hols = [holder_seminorm(eigen_ladder[n].u, 0.2) for n in (64, 128, 256)]
    for a, b in zip(sups, sups[1:]):
        assert abs(b - a) / b < 0.05
    for a, b in zip(hols, hols[1:]):
        assert abs(b - a) / b < 0.10
