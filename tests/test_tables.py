"""The log-log tables behind Ghat and the critical conjugate, against
scipy's PCHIP interpolator as a bitwise oracle, or its cubic Hermite
spline for the tables built with exact knot slopes."""

import copy
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from fglap import embedding_composition, make_power_log, sobolev_conjugate
from fglap import young
from fglap.young import _KNOTS, _gauss, _hat_table, _panel_integral


class _ScipyTable:
    """The scipy-backed table the numpy one replaced: scipy's PCHIP of
    log y against log x inside the knots (its cubic Hermite spline where
    the knot slopes are given), the end secants' power laws outside, zero
    at nonpositive arguments."""

    def __init__(self, logx, logy, slope=None):
        self.logx = logx
        self.logy = logy
        if slope is None:
            self.interp = PchipInterpolator(logx, logy, extrapolate=False)
        else:
            self.interp = CubicHermiteSpline(logx, logy, slope, extrapolate=False)
        self.dinterp = self.interp.derivative()
        self.slope_lo = (logy[1] - logy[0]) / (logx[1] - logx[0])
        self.slope_hi = (logy[-1] - logy[-2]) / (logx[-1] - logx[-2])

    def _eval(self, flat):
        val = np.zeros_like(flat)
        slope = np.zeros_like(flat)
        pos = flat > 0.0
        lx = np.log(flat[pos])
        ly = np.empty_like(lx)
        ls = np.empty_like(lx)
        below = lx < self.logx[0]
        above = lx > self.logx[-1]
        inside = ~(below | above)
        ly[inside] = self.interp(lx[inside])
        ly[below] = self.logy[0] + self.slope_lo * (lx[below] - self.logx[0])
        ly[above] = self.logy[-1] + self.slope_hi * (lx[above] - self.logx[-1])
        ls[inside] = self.dinterp(lx[inside])
        ls[below] = self.slope_lo
        ls[above] = self.slope_hi
        val[pos] = np.exp(ly)
        slope[pos] = ls
        return val, slope, pos

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        val, _, _ = self._eval(arr.ravel())
        return val.reshape(arr.shape)

    def derivative(self, x):
        arr = np.asarray(x, dtype=float)
        flat = arr.ravel()
        val, slope, pos = self._eval(flat)
        out = np.zeros_like(flat)
        out[pos] = val[pos] * slope[pos] / flat[pos]
        return out.reshape(arr.shape)


def _logx(table):
    """log x at the table's knots: the origins of its cubic rows."""
    return table._coef[1:, 0]


def _logy(table):
    """log y at the table's knots: the constant terms of rows 1 to n."""
    return table._coef[1:, 1]


# the knot slopes a recorded table was built with, None for PCHIP's own
_SLOPES = weakref.WeakKeyDictionary()


def _recorded_tables(build):
    """Every _LogLogTable that ``build()`` constructs."""
    built = []

    class Recording(young._LogLogTable):
        def __init__(self, x, y, slope=None):
            super().__init__(x, y, slope)
            _SLOPES[self] = slope
            built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_LogLogTable", Recording)
        build()
    return built


@pytest.fixture(scope="module")
def tables(families, embedding):
    out = {f"hat:{name}": _hat_table(yf) for name, yf in families.items()}
    for name in ("power3.5", "summix"):
        s, n = embedding[name]
        inv, fwd = _recorded_tables(lambda: sobolev_conjugate(families[name], s, n))
        out[f"gstar_inverse:{name}"] = inv
        out[f"gstar:{name}"] = fwd
    name = "piecewise2_3"
    s, n = embedding[name]
    gstar = sobolev_conjugate(families[name], s, n)
    (comp,) = _recorded_tables(lambda: embedding_composition(families[name], s, n, gstar))
    out[f"composition:{name}"] = comp
    rng = np.random.default_rng(5)
    # random values: secants change sign and vanish, reaching every slope
    # branch, on uniform and on irregular knots, and the two-knot case
    uneven = np.cumsum(rng.uniform(0.1, 2.0, 40))
    for label, x in (("random", np.logspace(-3.0, 3.0, 41)), ("random_uneven", uneven)):
        y = rng.choice([0.5, 1.0, 2.0], size=len(x)) * rng.uniform(1.0, 1.5, len(x))
        out[label] = young._LogLogTable(x, y)
    out["two_knots"] = young._LogLogTable(np.array([0.5, 4.0]), np.array([3.0, 0.25]))
    return out


def _probe_points(table, rng):
    """Arguments in every regime of a table: random interior points, the
    knots and their float neighbours, both power-law sides, zero, negative,
    infinite and NaN arguments."""
    knots = np.exp(_logx(table))
    lo, hi = _logx(table)[0], _logx(table)[-1]
    interior = np.exp(rng.uniform(lo, hi, 20000))
    below = np.exp(rng.uniform(lo - 20.0, lo, 500))
    above = np.exp(rng.uniform(hi, hi + 20.0, 500))
    edges = np.concatenate([knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf)])
    rest = np.array([0.0, -0.0, -1.0, -knots[1], 5e-324, 1e-300, 1e300, np.inf, np.nan])
    return np.concatenate([interior, below, above, edges, rest])


def _bits(a):
    """The float64 bit patterns, so that signed zeros and NaNs compare."""
    return np.asarray(a, dtype=float).view(np.uint64)


# the far power-law probes overflow to inf in both, and inf / inf is NaN
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "label",
    [
        *(f"hat:{name}" for name in ("power2", "power3.5", "piecewise2_3", "powerlog3", "summix")),
        "gstar_inverse:power3.5",
        "gstar:power3.5",
        "gstar_inverse:summix",
        "gstar:summix",
        "composition:piecewise2_3",
        "random",
        "random_uneven",
        "two_knots",
    ],
)
def test_table_is_bitwise_scipy_pchip(tables, label):
    table = tables[label]
    # the critical conjugate's two tables take exact knot slopes
    assert (_SLOPES.get(table) is not None) == label.startswith("gstar")
    oracle = _ScipyTable(_logx(table), _logy(table), _SLOPES.get(table))
    rng = np.random.default_rng(17)
    pts = _probe_points(table, rng)
    square = np.exp(rng.uniform(_logx(table)[0] - 1.0, _logx(table)[-1] + 1.0, (37, 23)))
    square[3, :5] = 0.0
    for x in (pts, square, pts[:1], pts[-3:]):
        assert np.array_equal(_bits(table(x)), _bits(oracle(x)))
        assert np.array_equal(_bits(table.derivative(x)), _bits(oracle.derivative(x)))
        assert table(x).shape == x.shape
    x = float(pts[7])
    assert table(x) == float(oracle(x))
    assert table.derivative(x) == float(oracle.derivative(x))


def _one_shot_eval(table, flat, derivative):
    """The table, or its derivative, at every element of ``flat`` in one
    pass over all of them, as before evaluation was blocked."""
    out = np.zeros_like(flat)
    fin = (flat > 0.0) & (flat < np.inf)
    x = flat[fin]
    ly, ls = table._log_eval(np.log(x), derivative)
    val = np.exp(ly, out=ly)
    out[fin] = val * ls / x if derivative else val
    out[flat == np.inf] = table._at_inf[derivative]
    return out


@pytest.mark.parametrize("label", ["hat:piecewise2_3", "gstar:power3.5", "random_uneven"])
def test_blocked_table_eval_is_bitwise_one_shot(tables, label):
    table = tables[label]
    block = young._EVAL_BLOCK
    rng = np.random.default_rng(29)
    lo, hi = _logx(table)[0], _logx(table)[-1]
    # three full blocks and a ragged fourth, over both power-law sides
    x = np.exp(rng.uniform(lo - 2.0, hi + 2.0, 3 * block + 517))
    special = np.array([0.0, -0.0, -1.0, -x[0], np.nan, np.inf, -np.inf])
    for edge in (block, 2 * block, 3 * block):
        x[edge - len(special) : edge] = special
        x[edge : edge + len(special)] = special[::-1]
    for derivative in (False, True):
        want = _one_shot_eval(table, x, derivative)
        assert np.array_equal(_bits(table._eval(x, derivative)), _bits(want))
    # through the public call on a 2d array, whose rows straddle the edges
    square = x[: 3 * block].reshape(-1, 96)
    want = _one_shot_eval(table, square.ravel(), False).reshape(square.shape)
    assert np.array_equal(_bits(table(square)), _bits(want))
    # temporaries of one block: about 130 bytes per argument, which one
    # pass over these 15 blocks' worth took for every argument at once
    many = np.tile(x, 5)
    tracemalloc.start()
    try:
        out = table.derivative(many)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 1.5 * 1024 * 1024


@pytest.mark.parametrize("label", ["hat:summix", "gstar:summix"])
def test_rows_are_searchsorted_bit_for_bit(tables, label):
    table = tables[label]
    # Ghat's knots are log-uniform, so its rows are guessed by arithmetic;
    # the forward conjugate's knots are the tabulated integral, not uniform
    assert (table._inv_step is not None) == label.startswith("hat:")
    edges = table._edges
    knots = _logx(table)
    x = np.exp(knots)
    lx = np.concatenate([
        # every knot and its float neighbours, in log and in x coordinates
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        np.log(np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])),
        # below the first knot and above the last, near and far
        knots[0] - np.array([1e-12, 1e-3, 1.0, 40.0, 700.0]),
        knots[-1] + np.array([1e-12, 1e-3, 1.0, 40.0, 700.0]),
    ])
    assert np.array_equal(table._rows(lx), np.searchsorted(edges, lx, "right"))
    # evaluated in blocks (three, the last one ragged and short enough to
    # be searched, and the knots with their neighbours), against the same
    # table searching every row
    assert 517 < young._GUESS_MIN <= young._EVAL_BLOCK
    searched = copy.copy(table)
    searched._inv_step = None
    rng = np.random.default_rng(31)
    spread = np.exp(rng.uniform(knots[0] - 2.0, knots[-1] + 2.0, 2 * young._EVAL_BLOCK + 517))
    at_knots = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    for args in (spread, at_knots):
        for derivative in (False, True):
            got = table._eval(args, derivative)
            assert np.array_equal(_bits(got), _bits(searched._eval(args, derivative)))


_BAD_KNOTS = [
    ("zero knot", [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
    ("infinite knot", [1.0, 2.0, np.inf], [1.0, 2.0, 3.0]),
    ("nan knot", [1.0, np.nan, 2.0], [1.0, 2.0, 3.0]),
    ("infinite value", [1.0, 2.0, 3.0], [1.0, np.inf, 3.0]),
    ("zero value", [1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),
    ("repeated knot", [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]),
    ("decreasing knots", [3.0, 2.0, 1.0], [1.0, 2.0, 3.0]),
    ("single knot", [1.0], [1.0]),
    ("length mismatch", [1.0, 2.0, 3.0], [1.0, 2.0]),
    ("two-dimensional knots", [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),
]


@pytest.mark.parametrize("case, x, y", _BAD_KNOTS, ids=[c[0] for c in _BAD_KNOTS])
def test_table_rejects_what_scipy_rejects(case, x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            PchipInterpolator(np.log(x), np.log(y))
        with pytest.raises(ValueError):
            young._LogLogTable(x, y)


def test_tables_hold_six_words_per_knot(families, embedding):
    # five coefficient columns and the row edges; the derivative's
    # coefficients are formed at evaluation
    name = "summix"
    s, n = embedding[name]

    def build():
        gstar = sobolev_conjugate(families[name], s, n)
        embedding_composition(families[name], s, n, gstar)
        _hat_table(make_power_log(3.0))  # a new function, so its table is built

    built = _recorded_tables(build)
    assert len(built) == 4
    for table in built:
        knots = len(_logx(table))
        words = sum(
            a.nbytes for a in vars(table).values() if isinstance(a, np.ndarray)
        ) // 8
        assert words <= 6 * (knots + 1), (knots, words)


def _one_shot_panel_integral(integrand, head):
    """The panel integral with the integrand evaluated on every Gauss
    point at once."""
    x, w = _gauss(8)
    lo = _KNOTS[:-1]
    hi = _KNOTS[1:]
    mid = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x[None, :]
    vals = integrand(mid.ravel()).reshape(mid.shape)
    segs = 0.5 * (hi - lo) * (vals @ w)
    return head + np.concatenate(([0.0], np.cumsum(segs)))


def test_blocked_panel_integral_is_bitwise_one_shot(families, embedding):
    summix = families["summix"]
    s, n = embedding["summix"]
    s_over_n = s / float(n)
    integrands = {
        "Ghat": lambda t: summix.evaluate(t) / t,
        # the Sobolev conjugate's integrand in sigma
        "gstar": young._conjugate_integrand(summix, s_over_n),
    }
    for label, integrand in integrands.items():
        sizes = []

        def counted(t):
            sizes.append(t.size)
            return integrand(t)

        got = _panel_integral(counted, 0.125)
        want = _one_shot_panel_integral(integrand, 0.125)
        assert np.array_equal(_bits(got), _bits(want)), label
        assert len(sizes) > 1 and max(sizes) <= young._PANEL_BLOCK
        assert sum(sizes) == 8 * (len(_KNOTS) - 1)
