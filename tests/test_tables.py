"""The log-log tables behind Ghat and the critical conjugate, against
scipy's PCHIP interpolator as a bitwise oracle."""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from fglap import embedding_composition, sobolev_conjugate
from fglap import young
from fglap.young import _hat_table


class _ScipyTable:
    """The scipy-backed table the numpy one replaced: scipy's PCHIP of
    log y against log x inside the knots, the end secants' power laws
    outside, zero at nonpositive arguments."""

    def __init__(self, logx, logy):
        self.logx = logx
        self.logy = logy
        self.interp = PchipInterpolator(logx, logy, extrapolate=False)
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


def _recorded_tables(build):
    """Every _LogLogTable that ``build()`` constructs."""
    built = []

    class Recording(young._LogLogTable):
        def __init__(self, x, y):
            super().__init__(x, y)
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
    knots = np.exp(table.logx)
    lo, hi = table.logx[0], table.logx[-1]
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
    oracle = _ScipyTable(table.logx, table.logy)
    rng = np.random.default_rng(17)
    pts = _probe_points(table, rng)
    square = np.exp(rng.uniform(table.logx[0] - 1.0, table.logx[-1] + 1.0, (37, 23)))
    square[3, :5] = 0.0
    for x in (pts, square, pts[:1], pts[-3:]):
        assert np.array_equal(_bits(table(x)), _bits(oracle(x)))
        assert np.array_equal(_bits(table.derivative(x)), _bits(oracle.derivative(x)))
        assert table(x).shape == x.shape
    x = float(pts[7])
    assert table(x) == float(oracle(x))
    assert table.derivative(x) == float(oracle.derivative(x))


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
