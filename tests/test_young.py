"""Growth-function calculus: families, combinators, conjugation, the
critical conjugate, modulars, and the truncation-recursion threshold."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fglap import (
    EmbeddingConditionError,
    Grid,
    OperatorParams,
    WeightedSamples,
    YoungFunctionError,
    chebyshev_bound,
    combine,
    conjugate,
    embedding_composition,
    indicator_gauge,
    inverse,
    iterate_recursion,
    luxemburg_norm,
    make_piecewise_power,
    make_power,
    make_power_log,
    modular,
    normalize_young,
    scale_young,
    sequence_threshold,
    sobolev_conjugate,
    young_from_config,
)
from fglap import young
from fglap.operator import _row_blocks, get_kernel
from fglap.solver import _bump
from fglap.young import (
    _modular_scale,
    check_young_wellformed,
    luxemburg_scale,
)


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


def test_power_closed_form():
    G = make_power(2.0)
    assert G(3.0) == 9.0
    assert G.g(3.0) == 6.0
    assert G.ratio(3.0) == pytest.approx(2.0)
    assert G(1.0) == 1.0


def test_power_fractional_exponent():
    G = make_power(1.5)
    assert G(4.0) == pytest.approx(8.0)
    assert G.g(4.0) == pytest.approx(3.0)
    assert G.ratio(4.0) == pytest.approx(1.5)


def test_power_rejects_sublinear():
    with pytest.raises(YoungFunctionError):
        make_power(1.0)
    with pytest.raises(YoungFunctionError):
        make_power(0.5)


def test_power_log_closed_form():
    G = make_power_log(3.0)
    assert G(1.0) == pytest.approx(1.0)
    assert G(np.e) == pytest.approx(2.0 * np.e**3)
    assert G(0.0) == 0.0


def test_power_log_recorded_indices_match_dense_scan():
    # the recorded bounds p - 1 and p + 1 are the elasticity's infimum,
    # approached just left of the knot, and its value at the knot
    G = make_power_log(2.7)
    grid = np.logspace(-6, 6, 12 * 512 + 1)
    ratios = G.ratio(grid)
    assert G.p_minus <= float(np.min(ratios)) <= G.p_minus + 5e-3
    assert G.p_plus == pytest.approx(float(np.max(ratios)))
    assert G.p_minus > 1.0


def test_power_log_exact_indices_above_two():
    G = make_power_log(3.0)
    assert G.p_minus == pytest.approx(2.0)
    assert G.p_plus == pytest.approx(4.0)
    ts = np.logspace(-8, 8, 4001)
    ratios = G.ratio(ts)
    assert np.all(ratios >= 2.0 - 1e-12)
    assert np.all(ratios <= 4.0 + 1e-12)


def test_power_log_rejects_when_elasticity_leaves_range():
    with pytest.raises(YoungFunctionError):
        make_power_log(1.5)


@pytest.mark.parametrize("p", [1.2, 2.0, 2.5, 2.6])
def test_power_log_refuses_nonconvex_exponents(p):
    # below (3 + sqrt(5))/2 the density dips left of the knot
    with pytest.raises(YoungFunctionError, match=r"\(3 \+ sqrt\(5\)\)/2"):
        make_power_log(p)
    t = np.linspace(0.5, 1.0, 2001, endpoint=False)
    dv = _where_power_log_dv(p)(t)
    assert np.any(np.diff(dv) < 0.0)


def test_power_log_builds_at_the_convexity_bound():
    G = make_power_log((3.0 + np.sqrt(5.0)) / 2.0)
    t = np.linspace(0.5, 2.0, 4001)
    assert np.all(np.diff(G.g(t)) >= 0.0)


def test_piecewise_power_refuses_a_downward_jump():
    with pytest.raises(YoungFunctionError, match="'p' <= 'q'"):
        make_piecewise_power(3.0, 2.0)
    assert make_piecewise_power(2.0, 2.0)(3.0) == 9.0


def test_piecewise_power_values_and_continuity():
    G = make_piecewise_power(2.0, 3.0)
    assert G(0.5) == 0.25
    assert G(2.0) == 8.0
    assert G(1.0) == 1.0
    left = G(1.0 - 1e-12)
    right = G(1.0 + 1e-12)
    assert left == pytest.approx(1.0, abs=1e-11)
    assert right == pytest.approx(1.0, abs=1e-11)
    assert (G.p_minus, G.p_plus) == (2.0, 3.0)


def _where_piecewise_power(p, q):
    """G and g of piecewise_power in the np.where form the branch-wise
    evaluation replaced: both branches at every argument."""

    def ev(t):
        return np.where(t <= 1.0, t**p, t**q)

    def dv(t):
        return np.where(t < 1.0, p * t ** (p - 1.0), q * t ** (q - 1.0))

    return ev, dv


def _where_power_log_dv(p):
    """g of power_log in the np.where form the branch-wise evaluation
    replaced."""

    def dv(t):
        out = np.zeros_like(t)
        pos = t > 0
        tp = t[pos]
        lg = np.log(tp)
        out[pos] = np.where(
            tp >= 1.0,
            tp ** (p - 1.0) * (p + 1.0 + p * lg),
            tp ** (p - 1.0) * (p - 1.0 - p * lg),
        )
        return out

    return dv


@pytest.fixture(scope="module")
def knot_inputs():
    """0, the knot 1.0 and its float neighbours, 1e-300, 1e200, inf and NaN
    as 0-d, 1-d and 2-d arrays, and the |quotients| of the first row block
    of the degiorgi command's eigen solve (piecewise_power(2,3), 512 cells,
    s = 0.4, mu = 0.4) at its starting iterate."""
    points = [0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
              1e-300, 1e200, np.inf, np.nan]
    flat = np.array(points)
    grid = Grid.build([0.0, 1.0], 512)
    u = _bump(grid)
    u /= _modular_scale(u, grid.node_weight, make_piecewise_power(2.0, 3.0), 0.4)
    kern = get_kernel(grid, OperatorParams(s=0.4))
    rows = _row_blocks(grid.node_count)[0]
    block = np.abs((u[rows, None] - u[None, rows.start :]) * kern._offset_rows("qs", rows))
    # the block holds quotients on both sides of the knot
    assert 0 < np.count_nonzero(block > 1.0) < block.size // 2
    return [np.array(x) for x in points] + [flat, flat.reshape(2, 4), block]


def _same_call(fn, ref, t):
    """fn(t) has ref(t)'s type, dtype, shape and bytes, and raises no
    floating-point warning that ref(t) does not."""
    with warnings.catch_warnings(record=True) as got_warn:
        warnings.simplefilter("always")
        got = fn(t)
    with warnings.catch_warnings(record=True) as want_warn:
        warnings.simplefilter("always")
        want = ref(t)
    assert type(got) is type(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes(), t
    assert {str(w.message) for w in got_warn} <= {str(w.message) for w in want_warn}


@pytest.mark.parametrize("p, q", [(2.0, 3.0), (2.5, 3.0), (1.5, 4.0)])
def test_piecewise_power_is_bitwise_the_where_form(knot_inputs, p, q):
    yf = make_piecewise_power(p, q)
    ev, dv = _where_piecewise_power(p, q)
    for t in knot_inputs:
        _same_call(yf.evaluate, ev, t)
        _same_call(yf.derivative, dv, t)
    # right-continuous at the knot: g(1) is the upper branch's q
    assert yf.derivative(np.array([1.0]))[0] == q


# power_log(p) is refused below (3 + sqrt(5))/2, where G is not convex;
# p = 2.7, 3 and 3.5 take t**(p-1) through exponents 1.7, 2 and 2.5
@pytest.mark.parametrize("p", [2.7, 3.0, 3.5])
def test_power_log_density_is_bitwise_the_where_form(knot_inputs, p):
    yf = make_power_log(p)
    for t in knot_inputs:
        _same_call(yf.derivative, _where_power_log_dv(p), t)
    assert yf.derivative(np.array([1.0]))[0] == p + 1.0


def test_wellformed_margins_on_roster(families):
    for name, yf in families.items():
        rep = check_young_wellformed(yf)
        assert rep["g_at_zero"] == 0.0, name
        assert rep["strict_increase_margin"] > 0, name
        assert rep["elasticity_lower_margin"] >= -1e-8, name
        assert rep["elasticity_upper_margin"] >= -1e-8, name
        assert rep["doubling_margin"] >= -1e-8, name
        assert rep["convexity_margin"] >= -1e-12, name
        # powerlog3's g has the least relative step, 6.9e-5, just below t = 1
        assert rep["density_monotone_margin"] > 0, name


def test_wellformed_reports_a_density_that_dips_below_one():
    # power_log(2), built past the constructor that refuses it: its g falls
    # from t = exp(-1/2) to 1, where too few samples of G fall for the
    # second differences to see it
    def ev(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = t[pos] ** 2.0 * (1.0 + np.abs(np.log(t[pos])))
        return out

    yf = young.YoungFunction(ev, _where_power_log_dv(2.0), 1.0 + 1e-9, 3.0, "power_log(2)")
    rep = check_young_wellformed(yf)
    assert rep["convexity_margin"] > 0
    assert rep["density_monotone_margin"] < 0
    g = yf.g(np.logspace(-6, 6, 200001))
    assert np.count_nonzero(np.diff(g) < 0) == 3618


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def test_combine_sum():
    G = combine("sum", [make_power(2.0), make_power(3.0)], [1.0, 1.0])
    assert G(1.0) == pytest.approx(2.0)
    assert abs(G(1.0) - 1.0) > 1e-12  # not normalized
    assert (G.p_minus, G.p_plus) == (2.0, 3.0)
    H = normalize_young(G)
    assert H(1.0) == pytest.approx(1.0)
    assert abs(H(1.0) - 1.0) <= 1e-12  # normalized


def test_combine_max():
    G = combine("max", [make_power(2.0), make_power(3.0)])
    assert G(0.5) == pytest.approx(0.25)
    assert G(2.0) == pytest.approx(8.0)
    assert (G.p_minus, G.p_plus) == (2.0, 3.0)


def test_combine_compose():
    G = combine("compose", [make_power(2.0), make_power(2.0)])
    assert G(2.0) == pytest.approx(16.0)
    assert (G.p_minus, G.p_plus) == (4.0, 4.0)


def test_combine_compose_density():
    # power(2) after power(1.5) is t**3: the chain rule gives g = 3 t**2
    G = combine("compose", [make_power(2.0), make_power(1.5)])
    t = np.logspace(-3.0, 3.0, 61)
    assert np.allclose(G.g(t), 3.0 * t**2, rtol=1e-14, atol=0.0)


def test_combine_rejects_empty_and_bad_coefficients():
    with pytest.raises(YoungFunctionError):
        combine("sum", [])
    with pytest.raises(YoungFunctionError):
        combine("sum", [make_power(2.0)], [0.0])
    with pytest.raises(YoungFunctionError):
        combine("spline", [make_power(2.0)])


def test_descriptor_round_trip():
    desc = {
        "family": "sum",
        "parts": [
            {"family": "power", "p": 2},
            {"family": "piecewise_power", "p": 2, "q": 3},
        ],
        "coefficients": [1.0, 2.0],
    }
    G = young_from_config(desc)
    expect = 1.0 * 2.0**2 + 2.0 * 2.0**3
    assert G(2.0) == pytest.approx(expect)
    with pytest.raises(YoungFunctionError):
        young_from_config({"family": "unknown"})


# ---------------------------------------------------------------------------
# inversion and conjugation
# ---------------------------------------------------------------------------


def test_inverse_closed_and_numeric(families):
    assert inverse(make_power(2.0), 9.0) == pytest.approx(3.0)
    assert inverse(make_power(2.0), 0.0) == 0.0
    assert inverse(make_piecewise_power(2.0, 3.0), 8.0) == pytest.approx(2.0)
    for yf in families.values():
        ts = np.logspace(-3, 3, 30)
        back = np.asarray(inverse(yf, np.asarray(yf(ts))))
        assert np.allclose(back, ts, rtol=1e-9)


def test_inverse_monotone(families):
    ys = np.logspace(-4, 4, 100)
    for yf in families.values():
        ts = np.asarray(inverse(yf, ys))
        assert np.all(np.diff(ts) > 0)


def test_conjugate_of_square_is_quarter_square():
    G = make_power(2.0)
    C = conjugate(G)
    assert C(2.0) == pytest.approx(1.0, rel=1e-10)
    ts = np.logspace(-2, 2, 30)
    assert np.allclose(np.asarray(C(ts)), ts**2 / 4.0, rtol=1e-9)
    assert (C.p_minus, C.p_plus) == (2.0, 2.0)


def test_conjugate_index_swap():
    G = make_piecewise_power(2.0, 3.0)
    C = conjugate(G)
    assert C.p_minus == pytest.approx(1.5)  # 3/(3-1)
    assert C.p_plus == pytest.approx(2.0)  # 2/(2-1)


def test_youngs_inequality_sweep(families):
    ts = np.logspace(-3, 3, 50)
    for name, yf in families.items():
        C = conjugate(yf)
        T, A = np.meshgrid(ts, ts)
        lhs = T * A
        rhs = np.asarray(yf(T)) + np.asarray(C(A))
        worst = float(np.min((rhs - lhs) / np.maximum(rhs, 1e-300)))
        assert worst >= -1e-8, (name, worst)


def test_youngs_equality_at_density(families):
    ts = np.logspace(-3, 3, 60)
    for name, yf in families.items():
        C = conjugate(yf)
        a = np.asarray(yf.g(ts))
        gap = ts * a - np.asarray(yf(ts)) - np.asarray(C(a))
        assert np.max(np.abs(gap) / (ts * a + 1.0)) < 1e-8, name


def test_double_conjugacy(families):
    ts = np.logspace(-3, 3, 40)
    for name, yf in families.items():
        back = conjugate(conjugate(yf))
        ref = np.asarray(yf(ts))
        err = np.max(np.abs(np.asarray(back(ts)) - ref) / ref)
        assert err < 1e-6, (name, err)


def _reference_bisect_increasing(fn, target, *, iters=110, max_expand=400):
    """Solve fn(t) = target for nondecreasing fn with fn(0) = 0 by a
    fixed-count geometric bisection, every one of its steps taken: at a jump
    of fn it converges to the jump, the right-continuous generalized
    inverse.  The oracle of the tabulated conjugate and inverse."""
    y = np.atleast_1d(np.asarray(target, dtype=float)).astype(float)
    lo = np.full_like(y, 1e-300)
    hi = np.ones_like(y)
    short = np.asarray(fn(hi)) < y
    for _ in range(max_expand):
        if not short.any():
            break
        lo[short] = hi[short]
        hi[short] *= 8.0
        short = np.asarray(fn(hi)) < y
    for _ in range(iters):
        mid = np.sqrt(lo * hi)
        left = np.asarray(fn(mid)) < y
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    out = np.sqrt(lo * hi)
    out[y == 0.0] = 0.0
    return out


def _reference_conjugate(yf, t):
    """G~(t) = t a - G(a) and its density a, with the maximizer a bisected
    on the first-order condition g(a) = t."""
    a = _reference_bisect_increasing(yf.derivative, t)
    return t * a - yf.evaluate(a), a


def test_conjugate_of_powers_is_the_closed_form(families):
    t = np.logspace(-6.0, 6.0, 4001)
    for name in ("power2", "power3.5"):
        p = families[name].p_plus
        exact = (p - 1.0) * (t / p) ** (p / (p - 1.0))
        err = np.max(np.abs(conjugate(families[name])(t) / exact - 1.0))
        assert err <= 1e-13, (name, err)


def test_conjugate_matches_the_bisected_maximizer(families):
    # the grid crowds [1.5, 4.5], where the densities of piecewise2_3 and
    # powerlog3 jump over [2, 3] and [2, 4]: there the conjugate is a line
    t = np.concatenate([np.logspace(-6.0, 6.0, 2001), np.linspace(1.5, 4.5, 3001)])
    for name in ("piecewise2_3", "powerlog3", "summix"):
        yf = families[name]
        C = conjugate(yf)
        val, dens = _reference_conjugate(yf, t)
        assert np.max(np.abs(C(t) / val - 1.0)) <= 1e-10, name
        assert np.max(np.abs(C.g(t) / dens - 1.0)) <= 1e-7, name


def test_conjugate_density_is_flat_over_a_jump(families):
    # g of piecewise2_3 jumps from 2 to 3 at 1, so the conjugate's density
    # is 1 on (2, 3): fill knots keep the cubics' bend of that line small
    t = np.linspace(2.0, 3.0, 10001)[1:-1]
    err = np.max(np.abs(conjugate(families["piecewise2_3"]).g(t) - 1.0))
    assert err <= 1e-9, err


def test_conjugate_density_is_finite_where_its_value_overflows():
    # the conjugate t**2 / 4 of t**2 overflows at t = 1e200, where its
    # density t / 2 does not: the table forms that density in logs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = conjugate(make_power(2.0)).g(1e200)
    assert got == pytest.approx(5e199, rel=1e-12)


def test_double_conjugate_swaps_the_knots_back(families):
    # the conjugate carries its knot triples, so the second conjugate is
    # built on G's own knots, with a slope from the left where g jumps
    t = np.logspace(-3.0, 3.0, 2001)
    for name, yf in families.items():
        back = conjugate(conjugate(yf))
        assert np.max(np.abs(back(t) / yf(t) - 1.0)) <= 1e-11, name
        assert np.max(np.abs(back.g(t) / yf.g(t) - 1.0)) <= 1e-8, name


def test_inverse_table_matches_bisection(families):
    # targets over the values G takes on the knots, sigma in [1e-15, 1e15];
    # beyond them the table extrapolates its end slopes' power laws
    y = np.concatenate([[0.0], np.logspace(-30.0, 40.0, 3001)])
    for name in ("powerlog3", "summix"):
        yf = families[name]
        assert yf.inverse_fn is None
        got = inverse(yf, y)
        ref = _reference_bisect_increasing(yf.evaluate, y)
        assert got[0] == 0.0, name
        assert np.max(np.abs(got[1:] / ref[1:] - 1.0)) <= 1e-10, name
        assert inverse(yf, y[7]) == got[7], name


@pytest.mark.parametrize("target", [-1.0, np.inf, np.nan])
def test_inverse_table_refuses_bad_targets(families, target):
    with pytest.raises(ValueError):
        inverse(families["powerlog3"], target)
    with pytest.raises(ValueError):
        inverse(families["summix"], np.array([1.0, target]))


# ---------------------------------------------------------------------------
# scaling inequalities
# ---------------------------------------------------------------------------


def test_scaling_sandwich(families):
    alphas = np.logspace(-2, 2, 30)
    ts = np.logspace(-2, 2, 30)
    A, T = np.meshgrid(alphas, ts)
    for name, yf in families.items():
        got = np.asarray(yf(A * T))
        base = np.asarray(yf(T))
        lo = base * np.minimum(A**yf.p_minus, A**yf.p_plus)
        hi = base * np.maximum(A**yf.p_minus, A**yf.p_plus)
        assert np.all(got >= lo * (1 - 1e-8)), name
        assert np.all(got <= hi * (1 + 1e-8)), name


def test_inverse_scaling_sandwich(families):
    alphas = np.logspace(-2, 2, 20)
    ts = np.logspace(-2, 2, 20)
    A, T = np.meshgrid(alphas, ts)
    for name, yf in families.items():
        got = np.asarray(inverse(yf, (A * T).ravel())).reshape(A.shape)
        base = np.asarray(inverse(yf, T.ravel())).reshape(T.shape)
        lo = base * np.minimum(A ** (1 / yf.p_minus), A ** (1 / yf.p_plus))
        hi = base * np.maximum(A ** (1 / yf.p_minus), A ** (1 / yf.p_plus))
        assert np.all(got >= lo * (1 - 1e-6)), name
        assert np.all(got <= hi * (1 + 1e-6)), name


def test_doubling_and_sum_splitting(families):
    ts = np.logspace(-3, 3, 100)
    for name, yf in families.items():
        assert np.all(
            np.asarray(yf(2 * ts))
            <= yf.doubling_constant * np.asarray(yf(ts)) * (1 + 1e-8)
        ), name
        A, B = np.meshgrid(ts[:40], ts[:40])
        lhs = np.asarray(yf(A + B))
        rhs = 0.5 * yf.doubling_constant * (np.asarray(yf(A)) + np.asarray(yf(B)))
        assert np.all(lhs <= rhs * (1 + 1e-8)), name


# ---------------------------------------------------------------------------
# critical conjugate and derived gauges
# ---------------------------------------------------------------------------


def test_sobolev_conjugate_power_closed_form():
    # for a pure square the inverse integral is t**(1/4) / (1/4)
    G = make_power(2.0)
    Gs = sobolev_conjugate(G, 0.5, 2)
    ts = np.logspace(-3, 3, 60)
    exact = 4.0 * ts**0.25
    err = np.max(np.abs(np.asarray(Gs.inverse_fn(ts)) - exact) / exact)
    assert err < 1e-6
    assert Gs.p_minus == pytest.approx(4.0)
    assert Gs.p_plus == pytest.approx(4.0)


def test_sobolev_conjugate_slope():
    G = make_power(2.0)
    Gs = sobolev_conjugate(G, 0.5, 2)
    tt = np.logspace(1, 4, 60)
    slope = np.polyfit(np.log(tt), np.log(np.asarray(Gs(tt))), 1)[0]
    assert abs(slope - 4.0) < 0.01


def _normal(x):
    return (x >= np.finfo(float).tiny) & (x < np.inf)


def _central_difference(f, t):
    """(f(t + h) - f(t - h)) / 2h with h = 1e-6 t."""
    h = 1e-6 * t
    return (f(t + h) - f(t - h)) / (2.0 * h)


def test_sobolev_conjugate_density_survives_weight_underflow(families, embedding, gstars):
    # 1 / (G^{-1}(tau) * tau**(-1 - s/n)) is no longer how the density is
    # formed: at t = 1e11 and 1e12 its weight tau**(-1.25) is subnormal and
    # that formula read inf.  The forward table's derivative is finite
    # there and is p* G*/t, as everywhere for a power
    yf, gstar = families["power3.5"], gstars["power3.5"]
    s, n = embedding["power3.5"]
    assert (s, n) == (0.5, 2)
    p_star = n * yf.p_plus / (n - s * yf.p_plus)
    t = np.array([1e11, 1e12])
    assert np.all(gstar(t) ** -1.25 < np.finfo(float).tiny)
    got = gstar.g(t)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, p_star * gstar(t) / t, rtol=1e-10)
    np.testing.assert_allclose(got, _central_difference(gstar, t), rtol=1e-7)


@pytest.mark.parametrize("name", ["power3.5", "summix"])
def test_sobolev_conjugate_density_where_it_overflows(families, embedding, gstars, name):
    gstar = gstars[name]
    s, n = embedding[name]
    assert (s, n) == (0.5, 2)
    t = np.concatenate([np.logspace(-14.0, 30.0, 441), [np.inf]])
    # the table of G* overflowing to inf is a correct result, and so are
    # the NaN differences of its infinite values
    with np.errstate(over="ignore", invalid="ignore"):
        G = gstar(t)
        got = gstar.g(t)
        slope = _central_difference(gstar, t)
    big = G == np.inf
    assert np.any(big)
    assert not np.any(np.isnan(got))
    assert gstar.g(np.inf) == gstar.g(-np.inf) == np.inf
    # past t1 = 1e6, beyond the last knot, G* is a power law, so log g*
    # is affine in log t there: the density is inf exactly where that log
    # passes the largest float, which is on a thin band past where G*
    # itself overflows
    t1 = 1e6
    far = (t >= t1) & (t < np.inf)
    log_g = np.log(gstar.g(t1)) + (gstar.ratio(t1) - 1.0) * np.log(t[far] / t1)
    assert np.array_equal(got[far] == np.inf, log_g > np.log(np.finfo(float).max))
    assert np.all(np.isfinite(got[t < t1]))
    band = big & (got < np.inf)
    assert np.count_nonzero(band) == {"power3.5": 4, "summix": 24}[name]
    if name == "power3.5":
        # p* G*/t formed in logs from the last grid point where G* is
        # finite, with p* = 28 the table's exact end slope
        p_star = 28.0
        t0, G0 = t[~big][-1], G[~big][-1]
        log_G = np.log(G0) + p_star * np.log(t[band] / t0)
        ref = np.exp(np.log(p_star) + log_G - np.log(t[band]))
        np.testing.assert_allclose(got[band], ref, rtol=1e-12, atol=0.0)
    # elsewhere the density is the slope of the values, past the last knot
    # (the power law) and in front of it
    ok = _normal(G) & np.isfinite(slope)
    assert ok.sum() > 200
    np.testing.assert_allclose(got[ok], slope[ok], rtol=1e-7, atol=0.0)


def test_elasticity_where_t_times_density_overflows(gstars):
    # summix's G* at (0.5, 2) is a power law past its last knot, t = 1e6, so
    # its elasticity is constant there, also at t = 6.31e26, where t g*(t)
    # passes the largest float though G*(t) and g*(t) do not
    gstar = gstars["summix"]
    t = np.array([1e6, 1e20, 6.31e26])
    with np.errstate(over="ignore"):
        assert np.isinf(t[2] * gstar.g(t[2])) and np.isfinite(gstar(t[2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gstar.ratio(t)
        at_point = gstar.ratio(t[2])
        plain = t[:2] * gstar.g(t[:2]) / gstar(t[:2])
    assert at_point == got[2] == pytest.approx(11.998, abs=1e-3)
    np.testing.assert_allclose(got, got[0], rtol=1e-12, atol=0.0)
    # where t g*(t) is a float, the ratio keeps the bits of t g*(t) / G*(t)
    assert got[:2].tobytes() == plain.tobytes()


_CLOSED_FORM_CASES = [
    (p, s, n)
    for p in (1.2, 1.5, 2.0, 3.0, 3.5)
    for s, n in ((0.1, 1), (0.4, 1), (0.5, 1), (0.1, 2), (0.45, 2), (0.5, 2))
    if s * p < n
] + [(30.0, 0.01, 2)]  # G underflows and overflows on the outer knots


@pytest.mark.parametrize("p, s, n", _CLOSED_FORM_CASES)
def test_sobolev_conjugate_power_closed_forms(p, s, n):
    # for G = t**p the inverse integral is tau**a / a with a = 1/p - s/n,
    # so G*(t) = (a t)**(1/a) and G* o G^{-1}(tau) = (a tau**(1/p))**(1/a)
    G = make_power(p)
    a = 1.0 / p - s / n
    gstar = sobolev_conjugate(G, s, n)
    comp = embedding_composition(G, gstar)
    t = np.logspace(-6.0, 6.0, 4001)
    with np.errstate(under="ignore", over="ignore"):
        want = {
            "G*": (a * t) ** (1.0 / a),
            "(G*)^-1": t**a / a,
            "H": (a * t ** (1.0 / p)) ** (1.0 / a),
        }
        got = {"G*": gstar(t), "(G*)^-1": gstar.inverse_fn(t), "H": comp(t)}
    for label, exact in want.items():
        ok = _normal(exact)
        assert ok.sum() > 1000, label
        err = np.max(np.abs(got[label][ok] / exact[ok] - 1.0))
        assert err <= 1e-9, (label, err)
    # the density of G* is its forward table's derivative, p* G*/t
    with np.errstate(under="ignore", over="ignore"):
        want = gstar.p_plus * gstar(t) / t
        dens = gstar.g(t)
    ok = _normal(want)
    assert np.max(np.abs(dens[ok] / want[ok] - 1.0)) <= 1e-10


@pytest.mark.parametrize("p, s, n", [(3.9, 0.5, 2), (100.0, 0.01, 2)])
def test_embedding_composition_where_g_star_underflows(p, s, n):
    # G* underflows to 0 on the lower sigma knots, which H leaves out.  With
    # a = 1/p - s/n, H(tau) = c tau**(p*/p), c = a**(1/a), p*/p = 1/(a p):
    # 40 and 2 here
    G = make_power(p)
    comp = embedding_composition(G, sobolev_conjugate(G, s, n))
    a = 1.0 / p - s / n
    ratio = n / (n - s * p)
    with np.errstate(under="ignore", over="ignore", divide="ignore"):
        tau = young._KNOTS**p
        exact = np.exp((np.log(a) + np.log(tau) / p) / a)
    ok = _normal(tau) & _normal(exact)
    assert ok.sum() > 200
    err = np.max(np.abs(comp(tau[ok]) / exact[ok] - 1.0))
    assert err <= 1e-9, err
    assert abs(comp.p_minus - ratio) <= 1e-9 and abs(comp.p_plus - ratio) <= 1e-9


def test_embedding_composition_jump_family_exact():
    # G = t**2 below 1 and t**3 above at s/n = 1/4: H = G* o G^{-1} is
    # tau**2 / 256 up to 1, tau**(4/3) / 256 up to 64 and
    # ((tau**(1/3) + 8) / 12)**12 beyond.  g jumps at sigma = 1, so H's
    # log-slope jumps at tau = 1, and G*'s second derivative at
    # t = W(1) = 4, so H's at tau = G(4) = 64: the points crowd both kinks
    G = make_piecewise_power(2.0, 3.0)
    comp = embedding_composition(G, sobolev_conjugate(G, 0.5, 2))
    tau = np.concatenate([
        np.logspace(-6.0, 6.0, 4001),
        np.linspace(0.99, 1.01, 2001),
        np.linspace(63.9, 64.1, 2001),
    ])
    exact = np.where(
        tau <= 1.0,
        tau**2 / 256.0,
        np.where(tau <= 64.0, tau ** (4.0 / 3.0) / 256.0, ((np.cbrt(tau) + 8.0) / 12.0) ** 12),
    )
    err = np.abs(comp(tau) / exact - 1.0)
    assert np.max(err) <= 1e-11, (np.max(err), tau[np.argmax(err)])
    # the density on either side of the kink, right-continuous at it
    left, right = comp.g(np.array([np.nextafter(1.0, 0.0), 1.0]))
    assert left == pytest.approx(2.0 / 256.0, rel=1e-6)
    assert right == pytest.approx(4.0 / 3.0 / 256.0, rel=1e-6)
    assert comp.p_minus == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_embedding_composition_lower_bound_at_conjugate_kink(families, embedding, gstars, compositions):
    # g of G = t**3 (1 + |log t|) jumps at 1, where G = 1.  At
    # r = W(1) = (G*)^{-1}(1), G*(r) = 1 and g*(r) = G(1)**(1 + s/n) / 1 = 1,
    # so e*(r) = r, and e* has a corner there.  H's least elasticity e*/e
    # sits at that corner, which is one of H's knots: off it, the least
    # knot slope read 2.3e-4 too high
    yf, comp = families["powerlog3"], compositions["powerlog3"]
    assert embedding["powerlog3"] == (0.45, 2)
    r = float(gstars["powerlog3"].inverse_fn(1.0))
    assert comp.p_minus == pytest.approx(r / yf.ratio(r), rel=1e-9)


def test_sobolev_conjugate_jump_family_exact():
    # G = t**2 below 1 and t**3 above at s/n = 1/4: (G*)^{-1}(tau) is
    # 4 tau**(1/4) below 1 and 12 tau**(1/12) - 8 above, so G*(t) is
    # (t/4)**4 below 4 and ((t + 8)/12)**12 above.  The points crowd the
    # kink t = 4, where G*'s second derivative jumps
    G = make_piecewise_power(2.0, 3.0)
    gstar = sobolev_conjugate(G, 0.5, 2)
    t = np.concatenate([np.logspace(-6.0, 4.0, 4001), np.linspace(3.9, 4.1, 2001)])
    exact = np.where(t < 4.0, (t / 4.0) ** 4, ((t + 8.0) / 12.0) ** 12)
    err = np.abs(gstar(t) / exact - 1.0)
    assert np.max(err) <= 1e-8, (np.max(err), t[np.argmax(err)])
    tau = np.logspace(-6.0, 6.0, 2001)
    exact = np.where(tau < 1.0, 4.0 * tau**0.25, 12.0 * tau ** (1.0 / 12.0) - 8.0)
    assert np.max(np.abs(gstar.inverse_fn(tau) / exact - 1.0)) <= 1e-8


def test_sobolev_conjugate_build_runs_no_vector_bisection(families, embedding, monkeypatch):
    # G* is integrated in sigma = G^{-1}(tau) and H tabulated on the same
    # sigma knots, and both densities are their tables' derivatives, so
    # neither a build nor a density inverts G
    calls = []
    invert = young.inverse

    def counted_inverse(yf, y):
        calls.append(np.shape(y))
        return invert(yf, y)

    monkeypatch.setattr(young, "inverse", counted_inverse)
    t = np.logspace(-6.0, 6.0, 1001)
    for name, yf in families.items():
        s, n = embedding[name]
        gstar = sobolev_conjugate(yf, s, n)
        comp = embedding_composition(yf, gstar)
        gstar.g(t)
        comp.g(t)
        assert calls == [], name


def test_sobolev_conjugate_requires_subcritical_growth():
    with pytest.raises(EmbeddingConditionError):
        sobolev_conjugate(make_power(2.0), 0.5, 1)
    with pytest.raises(EmbeddingConditionError):
        sobolev_conjugate(make_power(4.0), 0.5, 2)


def test_head_integral_via_quadrature_oracle():
    # independent check of the tabulated inverse integral on a kinked family
    G = make_piecewise_power(2.0, 3.0)
    s, n = 0.5, 2
    Gs = sobolev_conjugate(G, s, n)

    def integrand(tau):
        return float(inverse(G, tau)) * tau ** (-1.0 - s / n)

    for t in (0.01, 1.0, 7.0):
        ref = quad(integrand, 0, min(t, 1.0), points=[min(t, 1.0) / 2], limit=200)[0]
        if t > 1.0:
            ref += quad(integrand, 1.0, t, limit=200)[0]
        got = float(Gs.inverse_fn(t))
        assert got == pytest.approx(ref, rel=1e-6)


def test_indicator_gauge_power_case(gstars):
    G = make_power(2.0)
    ts = np.logspace(-4, 4, 200)
    K = indicator_gauge(G, ts, gstars["power2"])
    consts = K / ts**0.5
    assert np.max(np.abs(consts - 16.0)) < 0.16  # within 1 percent of 16
    assert indicator_gauge(G, 1.0, gstars["power2"]) == pytest.approx(
        float(gstars["power2"].inverse_fn(1.0)) ** 2, rel=1e-8
    )


def test_indicator_gauge_bounded_by_fitted_envelope(families, embedding, gstars):
    for name in ("powerlog3", "piecewise2_3"):
        yf = families[name]
        s, n = embedding[name]
        q = 0.95 * yf.p_minus
        coarse = np.logspace(-6, 6, 400)
        C = float(
            np.max(
                indicator_gauge(yf, coarse, gstars[name])
                / np.maximum(coarse, coarse ** (s * q / n))
            )
        )
        fine = np.logspace(-6, 6, 1601)
        vals = indicator_gauge(yf, fine, gstars[name])
        assert np.all(vals <= 1.05 * C * np.maximum(fine, fine ** (s * q / n))), name


def test_critical_inverse_ratio_monotone(families, embedding):
    for name, yf in families.items():
        s, n = embedding[name]
        taus = np.logspace(-6, 6, 3000)
        vals = np.asarray(inverse(yf, taus)) * taus ** (-s / n)
        assert np.all(np.diff(vals) > -1e-12 * np.abs(vals[:-1])), name


# ---------------------------------------------------------------------------
# modulars, Luxemburg norms, tail bound
# ---------------------------------------------------------------------------


def unit_weights(n):
    return np.full(n, 1.0 / n)


def test_modular_basics():
    G = make_power(2.0)
    w = unit_weights(10)
    assert modular(G, WeightedSamples(np.zeros(10), w)) == 0.0
    assert modular(G, WeightedSamples(np.ones(10), w)) == pytest.approx(1.0)
    assert modular(G, WeightedSamples(2 * np.ones(10), w)) == pytest.approx(4.0)


def test_weighted_samples_validation():
    with pytest.raises(ValueError):
        WeightedSamples(np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        WeightedSamples(np.ones(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedSamples(np.array([1.0, np.inf]), np.ones(2))


def test_luxemburg_constant_on_unit_measure():
    G = make_power(2.0)
    samples = WeightedSamples(3.0 * np.ones(16), unit_weights(16))
    assert luxemburg_norm(G, samples) == pytest.approx(3.0, rel=1e-9)
    assert luxemburg_norm(G, WeightedSamples(np.zeros(4), unit_weights(4))) == 0.0


def test_luxemburg_quadratic_closed_form():
    # for the square family the norm is the weighted root mean square
    G = make_power(2.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(200)
    w = rng.uniform(0.1, 1.0, 200)
    w /= w.sum()
    expect = float(np.sqrt(np.dot(w, v**2)))
    assert luxemburg_norm(G, WeightedSamples(v, w)) == pytest.approx(expect, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=50.0))
def test_luxemburg_positive_homogeneity(alpha):
    G = make_piecewise_power(2.0, 3.0)
    rng = np.random.default_rng(11)
    samples = WeightedSamples(rng.standard_normal(64), unit_weights(64))
    base = luxemburg_norm(G, samples)
    scaled = luxemburg_norm(G, WeightedSamples(alpha * samples.values, samples.weights))
    assert scaled == pytest.approx(alpha * base, rel=1e-9)


def test_luxemburg_unit_modular(families):
    rng = np.random.default_rng(5)
    w = unit_weights(300)
    for name, yf in families.items():
        v = rng.standard_normal(300)
        nrm = luxemburg_norm(yf, WeightedSamples(v, w))
        assert modular(yf, WeightedSamples(v / nrm, w)) == pytest.approx(1.0, abs=1e-9)


def test_chebyshev_closed_cases():
    G = make_power(2.0)
    samples = WeightedSamples(np.ones(8), unit_weights(8))
    measure, bound = chebyshev_bound(G, samples, 1.0)
    assert measure == pytest.approx(1.0)
    assert bound == pytest.approx(1.0)
    measure, bound = chebyshev_bound(G, samples, 2.0)
    assert measure == 0.0
    assert bound == pytest.approx(0.25)


def test_chebyshev_random_sweep(families):
    rng = np.random.default_rng(17)
    w = unit_weights(1000)
    for yf in families.values():
        v = rng.lognormal(0.0, 1.0, 1000)
        samples = WeightedSamples(v, w)
        for t in np.logspace(-2, 1, 20):
            measure, bound = chebyshev_bound(yf, samples, float(t))
            assert measure <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# superposition norm bound (random discrete functions)
# ---------------------------------------------------------------------------


def test_superposition_norm_bound(families, embedding, gstars, compositions):
    rng = np.random.default_rng(23)
    w = unit_weights(1000)
    for name, yf in families.items():
        gstar, comp = gstars[name], compositions[name]
        for _ in range(10):
            u = rng.lognormal(0.0, 1.0, 1000) * rng.choice([-1.0, 1.0], 1000)
            lhs = luxemburg_norm(comp, WeightedSamples(np.asarray(yf(np.abs(u))), w))
            nrm = luxemburg_norm(gstar, WeightedSamples(u, w))
            assert lhs <= max(nrm**yf.p_plus, nrm**yf.p_minus) * (1 + 1e-6), name


def test_embedding_composition_density_matches_its_values(families, compositions):
    # g of G* o G^{-1} against central differences of the tabulated G, on
    # points clear of t = 1, where the jump families' densities jump.  The
    # values interpolate G in log-log, so their slope leaves the exact
    # density by up to 1.2e-6 relative here, whatever the step
    t = np.logspace(-2.0, 2.0, 40)
    h = 1e-6 * t
    for name, comp in compositions.items():
        slope = (comp(t + h) - comp(t - h)) / (2.0 * h)
        assert np.allclose(comp.g(t), slope, rtol=1e-5, atol=0.0), name


# ---------------------------------------------------------------------------
# recursion threshold
# ---------------------------------------------------------------------------


def test_threshold_drives_iteration_to_zero():
    eps0 = sequence_threshold(2.0, 2.0, 0.5)
    seq = iterate_recursion(2.0, 2.0, 0.5, eps0, 60)
    assert seq[-1] < 1e-12
    assert np.all(np.diff(seq) <= 0)


def test_iteration_oracles():
    # quadratic recursion with doubling prefactors from 1/16
    seq = iterate_recursion(2.0, 2.0, 1.0, 1.0 / 16.0, 50)
    assert seq[-1] < 1e-12
    # gentle constants, slow exponent: monotone decay (flat once it
    # underflows to exact zero)
    seq = iterate_recursion(1.0, 1.0, 0.5, 0.25, 80)
    assert np.all(np.diff(seq) <= 0)
    assert np.all(np.diff(seq)[seq[:-1] > 1e-300] < 0)
    assert seq[-1] < 1e-12
    assert iterate_recursion(1.0, 1.0, 0.5, 0.0, 5)[-1] == 0.0


def test_threshold_randomized_box():
    rng = np.random.default_rng(31)
    for _ in range(50):
        c1 = rng.uniform(1.0, 10.0)
        c2 = rng.uniform(1.0, 10.0)
        delta = rng.uniform(0.1, 0.9)
        a0 = sequence_threshold(c1, c2, delta)
        seq = iterate_recursion(c1, c2, delta, a0, 100)
        assert seq[-1] < 1e-12


def test_threshold_validation():
    with pytest.raises(ValueError):
        sequence_threshold(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        sequence_threshold(-1.0, 1.0, 0.5)


def test_scale_and_normalize():
    G = scale_young(make_power(2.0), 0.5)
    assert G(2.0) == pytest.approx(2.0)
    assert G.g(2.0) == pytest.approx(2.0)
    assert abs(G(1.0) - 1.0) > 1e-12  # not normalized
    with pytest.raises(YoungFunctionError):
        scale_young(make_power(2.0), 0.0)
    N = normalize_young(combine("sum", [make_power(2.0), make_power(3.0)]))
    assert N(1.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# root finds: bit for bit the plain bisections they shortcut
# ---------------------------------------------------------------------------


def _reference_luxemburg_scale(modular_of_scaled, *, tol=1e-11, max_expand=2000):
    """Doubling bracket, then a midpoint evaluation at every bisection step."""
    lam = 1.0
    val = modular_of_scaled(lam)
    if val > 1.0:
        for _ in range(max_expand):
            lam *= 2.0
            val = modular_of_scaled(lam)
            if val <= 1.0:
                break
        lo, hi = lam / 2.0, lam
    else:
        for _ in range(max_expand):
            lam /= 2.0
            if lam < 1e-300:
                return 0.0
            val = modular_of_scaled(lam)
            if val > 1.0:
                break
        else:
            return 0.0
        lo, hi = lam, lam * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = modular_of_scaled(mid)
        if abs(val - 1.0) <= tol:
            return mid
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _norm_cases(families, gstars, compositions, rng):
    for name, yf in families.items():
        for G in (yf, gstars[name], compositions[name]):
            for scale in (1e-6, 1.0, 1e6):
                n = int(rng.integers(1, 400))
                v = rng.lognormal(0.0, 2.0, n) * scale
                w = rng.uniform(0.1, 1.0, n) / n
                yield f"{G.label} x{scale:g}", (
                    lambda lam, G=G, v=v, w=w: float(np.dot(w, G(v / lam)))
                )


def test_luxemburg_scale_is_bitwise_the_plain_bisection(families, gstars, compositions):
    rng = np.random.default_rng(47)
    for label, mod in _norm_cases(families, gstars, compositions, rng):
        for tol in (1e-11, 1e-6):
            ref = _reference_luxemburg_scale(mod, tol=tol)
            assert luxemburg_scale(mod, tol=tol) == ref, (label, tol)
    # tol = 0 never stops early: all 200 steps run, at adjacent floats too
    for name, yf in families.items():
        v = rng.lognormal(0.0, 1.0, 50)

        def mod(lam, yf=yf, v=v):
            return float(np.sum(yf(v / lam))) / 50.0

        assert luxemburg_scale(mod, tol=0.0) == _reference_luxemburg_scale(mod, tol=0.0), name
    # a map that never brackets from below: the scale underflows to 0
    assert luxemburg_scale(lambda lam: 0.0) == _reference_luxemburg_scale(lambda lam: 0.0)


def test_luxemburg_scale_evaluation_count(families):
    """A pinned count on a fixed vector: a silent fall back to the full
    bisection path would show here, not in the bits."""
    rng = np.random.default_rng(53)
    v = rng.lognormal(0.0, 1.0, 300)
    w = unit_weights(300)
    calls = []

    def mod(lam):
        calls.append(lam)
        return float(np.dot(w, families["summix"](v / lam)))

    got = luxemburg_scale(mod)
    assert len(calls) == 10
    assert got == _reference_luxemburg_scale(mod)
    assert len(calls) == 10 + 38  # the plain bisection's own count
