"""Young-function calculus for Orlicz-type energies.

The central object is :class:`YoungFunction`: an evaluable convex growth
function G with density g = G', index bounds sandwiching t*g(t)/G(t), and a
provenance label.  On top of it the module provides

* closed-form families (powers, powers with a logarithmic factor, piecewise
  powers) and combinators (weighted sums, maxima, compositions),
* numeric inversion and convex conjugation,
* the critical Sobolev conjugate G* and the composition G* o G^{-1},
  tabulated on the log knots in sigma = G^{-1}(tau) from G and its density
  alone, each with its own table's derivative as its density, so neither
  inverts G; and the gauge used to bound norms of level-set indicators,
* modulars, Luxemburg norms and a Chebyshev-type tail bound on weighted
  samples,
* the smallness threshold that drives superlinear truncation recursions
  to zero.

Every function is extended evenly to negative arguments, so G(|t|) is what
evaluation computes.  The index bounds (p_minus, p_plus) control all scaling
inequalities used downstream: the doubling bound G(2t) <= 2**p_plus * G(t),
the sum splitting G(a+b) <= (C/2)(G(a)+G(b)) with C = 2**p_plus, and the
two-sided sandwiches for G and its inverse under argument scaling.

All operations are pure functions of immutable inputs.  Objects that rely
on tabulation build their tables eagerly at construction, so evaluation is
read-only and safe to share between threads.

The families whose density jumps at the knot t = 1 form each branch only
where it applies: the lower branch over the whole array, then the upper
one over the arguments past the knot.  numpy's array pow gives an element
the same bits wherever it sits in its array, so this is bitwise the
np.where form that computed both branches everywhere.  Python's scalar
``**`` is not: it differs from the array pow in about 5% of arguments, so
no scalar fast path may replace the array call.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "YoungFunctionError",
    "BracketError",
    "QuadratureError",
    "EmbeddingConditionError",
    "YoungFunction",
    "WeightedSamples",
    "make_power",
    "make_power_log",
    "make_piecewise_power",
    "combine",
    "scale_young",
    "normalize_young",
    "inverse",
    "conjugate",
    "sobolev_conjugate",
    "embedding_composition",
    "indicator_gauge",
    "modular",
    "luxemburg_norm",
    "luxemburg_scale",
    "chebyshev_bound",
    "sequence_threshold",
    "iterate_recursion",
    "young_from_config",
    "builtin_families",
    "builtin_embedding_params",
    "check_young_wellformed",
]


class YoungFunctionError(ValueError):
    """Parameters or data violate the Young-function contract."""


class BracketError(RuntimeError):
    """A monotone root bracket could not be established."""


class QuadratureError(RuntimeError):
    """Singular quadrature failed to converge."""


class EmbeddingConditionError(ValueError):
    """The growth/smoothness parameters violate s * p_plus < n."""


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GAUSS_CACHE[order] = (x, w)
    return _GAUSS_CACHE[order]


def _call_even(fn: Callable[[np.ndarray], np.ndarray], t) -> np.ndarray | float:
    arr = np.abs(np.asarray(t, dtype=float))
    out = fn(np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


@dataclass(frozen=True)
class YoungFunction:
    """Convex growth function G with density g = G' and index bounds.

    ``evaluate`` and ``derivative`` act on nonnegative arguments; calls go
    through ``__call__`` which applies the even extension G(|t|).  The index
    bounds satisfy p_minus <= t*g(t)/G(t) <= p_plus on the sampled range,
    with 1 < p_minus <= p_plus < inf.  ``inverse_fn``, when present, is a
    closed-form or tabulated inverse used to skip bisection.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    p_minus: float
    p_plus: float
    label: str
    inverse_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        if not (1.0 < self.p_minus <= self.p_plus < np.inf):
            raise YoungFunctionError(
                f"index bounds must satisfy 1 < p_minus <= p_plus < inf, got "
                f"({self.p_minus}, {self.p_plus}) for {self.label}"
            )

    def __call__(self, t):
        return _call_even(self.evaluate, t)

    def g(self, t):
        """Density g(|t|); callers needing the odd extension use slope_odd."""
        return _call_even(self.derivative, t)

    def slope_odd(self, t):
        """Odd extension sign(t) * g(|t|), the derivative of the even G."""
        arr = np.asarray(t, dtype=float)
        out = np.sign(arr) * _call_even(self.derivative, arr)
        if arr.ndim == 0:
            return float(out)
        return out

    def ratio(self, t):
        """Elasticity t * g(t) / G(t) for t > 0."""
        arr = np.abs(np.asarray(t, dtype=float))
        return arr * self.g(arr) / self(arr)

    @property
    def doubling_constant(self) -> float:
        """C = 2**p_plus, the doubling bound G(2t) <= C G(t)."""
        return 2.0 ** self.p_plus


@dataclass(frozen=True)
class WeightedSamples:
    """Sample values paired with positive quadrature weights (volume units)."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)
        if v.shape != w.shape or v.ndim != 1:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------


def make_power(p: float) -> YoungFunction:
    """G(t) = t**p for an exponent p > 1; both index bounds equal p."""
    if not p > 1.0:
        raise YoungFunctionError(f"power exponent must exceed 1, got {p}")
    p = float(p)

    def ev(t):
        return t**p

    def dv(t):
        return p * t ** (p - 1.0)

    def inv(y):
        return y ** (1.0 / p)

    return YoungFunction(ev, dv, p, p, f"power({p:g})", inv)


# least exponent for which power_log's G is convex: the larger root of
# p**2 - 3p + 1
_POWER_LOG_MIN = (3.0 + math.sqrt(5.0)) / 2.0


def make_power_log(p: float) -> YoungFunction:
    """G(t) = t**p * (1 + |log t|), G(0) = 0, for p >= (3 + sqrt(5)) / 2.

    The elasticity t*g/G equals (p - 1 + p*L)/(1 + L) below t = 1 (with
    L = -log t) and (p + 1 + p*L)/(1 + L) above, so its range is the open
    interval (p-1, p+1); these limits are recorded as the index bounds.
    Left of t = 1 the slope of g has the sign of (p - 1)**2 - p + (p - 1) p L,
    least at L = 0, so G is convex exactly when p**2 - 3p + 1 >= 0, that is
    p >= (3 + sqrt(5)) / 2.  A smaller exponent, whose g dips on an
    interval left of 1, is not a Young function and is refused.
    """
    if not p >= _POWER_LOG_MIN:
        raise YoungFunctionError(
            f"power_log exponent 'p' must be at least (3 + sqrt(5))/2 = "
            f"{_POWER_LOG_MIN:.6g} for G to be convex, got {p}"
        )
    p = float(p)

    def ev(t):
        out = np.zeros_like(t)
        pos = t > 0
        tp = t[pos]
        out[pos] = tp**p * (1.0 + np.abs(np.log(tp)))
        return out

    def dv(t):
        out = np.zeros_like(t)
        pos = t > 0
        tp = t[pos]
        lg = np.log(tp)
        # t**(p-1) times p - 1 - p log t below the kink t = 1 and
        # p + 1 + p log t from it on: right-continuous there
        fac = p - 1.0 - p * lg
        up = tp >= 1.0
        fac[up] = p + 1.0 + p * lg[up]
        out[pos] = tp ** (p - 1.0) * fac
        return out

    return YoungFunction(ev, dv, p - 1.0, p + 1.0, f"power_log({p:g})")


def make_piecewise_power(p: float, q: float) -> YoungFunction:
    """G(t) = t**p on [0, 1] and t**q beyond, continuous with G(1) = 1.

    Index bounds are (p, q).  Convexity requires p <= q: g jumps from p to
    q at t = 1, down when p > q, so such exponents are refused.  The density
    is taken right-continuous at the junction.
    """
    if not (p > 1.0 and q > 1.0):
        raise YoungFunctionError(f"piecewise exponents must exceed 1, got ({p}, {q})")
    if not p <= q:
        raise YoungFunctionError(
            f"piecewise_power needs 'p' <= 'q' for G to be convex, got p = {p}, q = {q}"
        )
    p, q = float(p), float(q)

    # the lower branch over the whole array, then the upper one only past
    # the knot: bitwise the np.where form (see the module docstring)
    def ev(t):
        t = np.asarray(t)
        out = np.asarray(t**p)
        up = t > 1.0
        out[up] = t[up] ** q
        return out

    def dv(t):
        t = np.asarray(t)
        out = np.asarray(p * t ** (p - 1.0))
        up = t >= 1.0
        out[up] = q * t[up] ** (q - 1.0)
        return out

    def inv(y):
        return np.where(y <= 1.0, y ** (1.0 / p), y ** (1.0 / q))

    return YoungFunction(ev, dv, p, q, f"piecewise_power({p:g},{q:g})", inv)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def combine(
    kind: str,
    parts: Sequence[YoungFunction],
    coefficients: Optional[Sequence[float]] = None,
) -> YoungFunction:
    """Combine Young functions by weighted sum, pointwise max, or composition.

    Sums and maxima inherit [min p_minus, max p_plus]; compositions multiply
    the bounds of their parts.  Results are generally unnormalized.
    """
    parts = list(parts)
    if not parts:
        raise YoungFunctionError("combine requires at least one part")

    if kind == "sum":
        if coefficients is None:
            coefficients = [1.0] * len(parts)
        coeffs = np.asarray(list(coefficients), dtype=float)
        if coeffs.shape != (len(parts),):
            raise YoungFunctionError("one coefficient per part is required")
        if np.any(coeffs < 0) or not np.any(coeffs > 0):
            raise YoungFunctionError("sum coefficients must be nonnegative, one positive")

        def ev(t):
            return sum(c * f.evaluate(t) for c, f in zip(coeffs, parts) if c > 0)

        def dv(t):
            return sum(c * f.derivative(t) for c, f in zip(coeffs, parts) if c > 0)

        active = [f for c, f in zip(coeffs, parts) if c > 0]
        p_minus = min(f.p_minus for f in active)
        p_plus = max(f.p_plus for f in active)
        label = "sum(" + ",".join(f"{c:g}*{f.label}" for c, f in zip(coeffs, parts)) + ")"
    elif kind == "max":
        if coefficients is not None:
            raise YoungFunctionError("max takes no coefficients")

        def ev(t):
            return np.maximum.reduce([f.evaluate(t) for f in parts])

        def dv(t):
            vals = np.stack([f.evaluate(t) for f in parts])
            slopes = np.stack([f.derivative(t) for f in parts])
            top = np.max(vals, axis=0)
            # right-continuous choice at crossings: steepest active branch
            tied = vals >= top * (1.0 - 1e-14)
            return np.max(np.where(tied, slopes, -np.inf), axis=0)

        p_minus = min(f.p_minus for f in parts)
        p_plus = max(f.p_plus for f in parts)
        label = "max(" + ",".join(f.label for f in parts) + ")"
    elif kind == "compose":
        if coefficients is not None:
            raise YoungFunctionError("compose takes no coefficients")

        def ev(t):
            v = t
            for f in reversed(parts):
                v = f.evaluate(v)
            return v

        def dv(t):
            v = t
            acc = np.ones_like(t)
            for f in reversed(parts):
                acc = acc * f.derivative(v)
                v = f.evaluate(v)
            return acc

        p_minus = float(np.prod([f.p_minus for f in parts]))
        p_plus = float(np.prod([f.p_plus for f in parts]))
        label = "compose(" + ",".join(f.label for f in parts) + ")"
    else:
        raise YoungFunctionError(f"unknown combinator kind {kind!r}")

    return YoungFunction(ev, dv, p_minus, p_plus, label)


def scale_young(yf: YoungFunction, c: float) -> YoungFunction:
    """Value rescaling c * G.  Index bounds are unchanged."""
    if not c > 0:
        raise YoungFunctionError("scale factor must be positive")
    c = float(c)
    inv = None
    if yf.inverse_fn is not None:
        base_inv = yf.inverse_fn

        def inv(y):
            return base_inv(y / c)

    return YoungFunction(
        lambda t: c * yf.evaluate(t),
        lambda t: c * yf.derivative(t),
        yf.p_minus,
        yf.p_plus,
        f"{c:g}*{yf.label}",
        inv,
    )


def normalize_young(yf: YoungFunction) -> YoungFunction:
    """Rescale values by 1/G(1) so that G(1) = 1; indices are preserved."""
    g1 = float(yf.evaluate(np.array([1.0]))[0])
    if not np.isfinite(g1) or g1 <= 0:
        raise YoungFunctionError(f"cannot normalize {yf.label}: G(1) = {g1}")
    return replace(scale_young(yf, 1.0 / g1), label=f"normalized({yf.label})")


# ---------------------------------------------------------------------------
# Inversion and conjugation
# ---------------------------------------------------------------------------


def _geometric_mid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """sqrt(lo * hi) for 0 < lo <= hi, and sqrt(lo) * sqrt(hi) wherever the
    product overflows (roots above about 1.3e154)."""
    if not np.any(hi > 1e154):  # then lo * hi <= 1e308 is finite
        return np.sqrt(lo * hi)
    with np.errstate(over="ignore"):
        mid = np.sqrt(lo * hi)
    big = np.isinf(mid)
    mid[big] = np.sqrt(lo[big]) * np.sqrt(hi[big])
    return mid


def _bisect_increasing(fn, target):
    """Solve fn(t) = target for nondecreasing fn with fn(0) = 0, fn -> inf.

    Vectorized bracket expansion followed by up to 110 steps of geometric
    bisection, which keeps the result accurate in relative terms across
    hundreds of orders of magnitude.  At jump discontinuities of fn the
    iteration converges to the jump location, the right-continuous
    generalized inverse.

    The loop ends early once a step leaves every bracket unchanged: the
    step is a deterministic map of (lo, hi), so all remaining steps would
    repeat that state, and the result is the full 110-step bisection's own
    bits.
    """
    y = np.asarray(target, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y).astype(float)
    if np.any(y < 0) or not np.all(np.isfinite(y)):
        raise ValueError("inverse targets must be finite and nonnegative")
    lo = np.full_like(y, 1e-300)
    hi = np.ones_like(y)
    short = np.asarray(fn(hi)) < y
    for _ in range(400):
        if not short.any():
            break
        lo[short] = hi[short]
        hi[short] *= 8.0
        if np.any(hi > 1e290):
            raise BracketError("bracket expansion exceeded floating-point range")
        short = np.asarray(fn(hi)) < y
    else:
        raise BracketError("no upper bracket found; malformed growth function")
    # geometric bisection: the log-interval halves every step, so ~110 steps
    # resolve any magnitude in [1e-300, 1e290] to full relative precision
    for _ in range(110):
        mid = _geometric_mid(lo, hi)
        left = np.asarray(fn(mid)) < y
        new_lo = np.where(left, mid, lo)
        new_hi = np.where(left, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    out = _geometric_mid(lo, hi)
    out[y == 0.0] = 0.0
    return float(out[0]) if scalar else out


def inverse(yf: YoungFunction, y) -> float | np.ndarray:
    """Inverse G^{-1}(y) for y >= 0, monotone in y.

    Uses a closed-form inverse when the family provides one, otherwise
    monotone bisection on G.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0):
        raise ValueError("inverse targets must be nonnegative")
    if yf.inverse_fn is not None:
        out = yf.inverse_fn(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else np.asarray(out).reshape(arr.shape)
    return _bisect_increasing(lambda t: yf.evaluate(t), arr)


def conjugate(yf: YoungFunction) -> YoungFunction:
    """Complementary function sup_a { t a - G(a) }.

    Evaluation solves the first-order condition g(a) = t by monotone
    bisection; the derivative of the result is the right-continuous
    generalized inverse of g.  Index bounds swap and conjugate:
    (p_plus', p_minus') with r' = r / (r - 1).
    """

    def maximizer(t):
        return _bisect_increasing(lambda a: yf.derivative(a), t)

    def ev(t):
        a = maximizer(t)
        val = t * a - yf.evaluate(a)
        return np.maximum(val, 0.0)

    def dv(t):
        return maximizer(t)

    p_minus = yf.p_plus / (yf.p_plus - 1.0)
    p_plus = yf.p_minus / (yf.p_minus - 1.0)
    return YoungFunction(ev, dv, p_minus, p_plus, f"conjugate({yf.label})")


# ---------------------------------------------------------------------------
# Critical Sobolev conjugate
# ---------------------------------------------------------------------------


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end knot, kept from breaking the
    end interval's monotonicity (Moler, *Numerical Computing with MATLAB*,
    2004, sec. 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot slopes of the monotone cubic through knots with spacings h and
    secant slopes m: the weighted harmonic mean of the neighbouring secants,
    zero where they change sign or vanish (Fritsch & Butland, SIAM J. Sci.
    Stat. Comput. 5, 1984), and three-point slopes at the ends."""
    if len(m) == 1:
        return np.array([m[0], m[0]])
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros(len(m) + 1)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


# arguments per block of a table evaluation: the gathered coefficient rows
# (5 float64 per argument) and the other temporaries of a block stay near
# 1 MiB, however many arguments a call passes
_EVAL_BLOCK = 1 << 13

# arguments from which a table finds its rows by arithmetic: about 14 us per
# call plus 6 ns per argument, which beats a binary search from 2,048
# arguments even when they are sorted (23 against 36 us; at 1,024 the two
# tie, and verify evaluates sorted grids of fewer)
_GUESS_MIN = 1 << 11


class _LogLogTable:
    """Monotone log-log interpolation with power-law extrapolation.

    log y is the PCHIP cubic of log x (Fritsch & Carlson, SIAM J. Numer.
    Anal. 17, 1980), with coefficients formed and evaluated in the order
    scipy 1.17's ``PchipInterpolator`` and its ``derivative()`` use, so
    values and derivatives match scipy's bit for bit.  Given ``slope``, the
    knot values of d log y / d log x, it is the cubic Hermite spline with
    those slopes instead, scipy's ``CubicHermiteSpline``; monotone where
    they are exact and the knots resolve log y.  ``left``, given with
    ``slope``, is the slope each knot shows the cubic on its left, where
    the tabulated function's log-slope jumps; where it equals ``slope`` the
    two cubics meet as the spline's do.  ``derivative`` is the exact
    derivative of the interpolant itself (C1 but at the knots whose two
    slopes differ, and right-continuous there), so integrands tabulated
    here can be paired with gradients that match them to rounding error.
    The power laws outside the knots take the end secants, or with
    ``slope`` the exact end slopes: the secant of closely spaced knots
    resolves the exponent poorly (for G* of t**3.9 at s/n = 1/4 it put G*
    2.8e-9 off, 3.7 log units past the top knot).

    Coefficients sit in n + 1 rows: row 0 is the power law below the first
    knot, row k + 1 the cubic on [logx[k], logx[k+1]) (the last one closed
    at the last knot), row n the power law above.  A row holds its origin
    and the coefficients of 1, s, s**2, s**3 in s = log x - origin; the
    power-law rows' zero higher coefficients add only signed zeros, so the
    rows evaluate with one formula.  With the row edges that is 6 float64
    words per knot: the knots and their values are the first two columns of
    rows 1 to n, and the derivative's coefficients 2*c2 and 3*c3 are formed
    from the gathered rows with the float operations scipy's
    ``derivative()`` uses.

    On log-uniform knots, and for at least ``_GUESS_MIN`` arguments at a
    time, a row is found by arithmetic: the guess
    floor((log x - edge 0) / step) + 1 is kept where the edges on either
    side confirm it, and every other argument is searched, so the rows are
    ``searchsorted``'s, bit for bit.  Whether the knots are log-uniform is
    decided once, at build.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        slope: Optional[np.ndarray] = None,
        left: Optional[np.ndarray] = None,
    ):
        logx = np.log(np.asarray(x, dtype=float))
        logy = np.log(np.asarray(y, dtype=float))
        # scipy's input checks, with its messages
        if logx.ndim != 1:
            raise ValueError("`x` must be 1-dimensional.")
        if len(logx) < 2:
            raise ValueError("`x` must contain at least 2 elements.")
        if logy.shape != logx.shape:
            raise ValueError("The length of `y` along `axis`=0 doesn't match the length of `x`")
        if not np.all(np.isfinite(logx)):
            raise ValueError("`x` must contain only finite values.")
        if not np.all(np.isfinite(logy)):
            raise ValueError("`y` must contain only finite values.")
        h = np.diff(logx)
        if np.any(h <= 0):
            raise ValueError("`x` must be strictly increasing sequence.")
        m = np.diff(logy) / h
        d = _pchip_slopes(h, m) if slope is None else np.asarray(slope, dtype=float)
        # the exponents of the power laws below and above the knots
        ends = m[[0, -1]] if slope is None else d[[0, -1]]
        # the slope at the right end of each cubic
        dr = d[1:] if left is None else np.asarray(left, dtype=float)[1:]
        t = (d[:-1] + dr - 2 * m) / h
        c3 = t / h
        c2 = (m - d[:-1]) / h - t
        zero = np.zeros(1)
        # columns: origin, then the coefficients of 1, s, s**2, s**3; scipy
        # starts its sums from 0.0, which turns a leading -0.0 into 0.0 (the
        # log of a positive value is never -0.0, so column 1 below row 0 is
        # logy itself).  The slope column holds 0.0 + d, the derivative's
        # constant term; the value's sum cannot tell it from d, because its
        # own constant term is never -0.0
        self._coef = np.column_stack([
            np.concatenate([logx[:1], logx]),
            np.concatenate([logy[:1], 0.0 + logy[:-1], logy[-1:]]),
            np.concatenate([ends[:1], 0.0 + d[:-1], ends[1:]]),
            np.concatenate([zero, c2, zero]),
            np.concatenate([zero, c3, zero]),
        ])
        # row r covers edges[r-1] <= log x < edges[r]; the last edge is
        # nudged up so that the last knot stays in the last cubic
        self._edges = np.concatenate([logx[:-1], [np.nextafter(logx[-1], np.inf)]])
        # knots count as log-uniform when the spacings spread by at most
        # 1e-6 of their mean, so guesses drift by at most 1e-6 rows per
        # knot; the reductions make no knot-length temporary
        step = (logx[-1] - logx[0]) / len(h)
        uniform = h.max() - h.min() <= 1e-6 * step
        self._inv_step = 1.0 / step if uniform else None
        # the value and derivative at +inf: the upper power law, as an
        # unbounded argument gives it.  scipy forms the PCHIP derivative as
        # top * exponent / inf, NaN when top is inf; with knot slopes it is
        # the limit of the power law's derivative a * y / x: inf, its
        # coefficient or 0 as the exponent a exceeds, equals or is below 1
        with np.errstate(over="ignore", invalid="ignore"):
            top = np.exp(logy[-1] + ends[1] * np.inf)
            if slope is None:
                dtop = top * ends[1] / np.inf
            else:
                dtop = ends[1] * np.exp(logy[-1] - logx[-1]) * np.inf ** (ends[1] - 1.0)
            self._at_inf = (top, dtop)

    def _rows(self, lx: np.ndarray) -> np.ndarray:
        """The row of every finite lx: ``searchsorted(edges, lx, "right")``."""
        edges = self._edges
        if self._inv_step is None or len(lx) < _GUESS_MIN:
            return np.searchsorted(edges, lx, "right")
        n = len(edges)
        # one float buffer holds the guess and then both edge reads (take
        # writes it unbuffered in the wrap and clip modes): with a fresh
        # array for each, verify's peak RSS read 0.4 MiB higher while all
        # its calls took this path
        buf = lx - edges[0]
        buf *= self._inv_step
        buf += 1.0
        # truncation is the floor wherever the clip leaves the guess above 0
        rows = buf.astype(np.intp)
        np.clip(rows, 0, n, out=rows)
        # row r holds edges[r - 1] <= lx < edges[r]; row 0 has no lower
        # edge and row n no upper one, so the wrapped and clipped reads
        # there are masked off
        rows -= 1
        miss = edges.take(rows, out=buf, mode="wrap") > lx
        rows += 1
        miss &= rows > 0
        above = edges.take(rows, out=buf, mode="clip") <= lx
        above &= rows < n
        miss |= above
        if miss.any():
            rows[miss] = np.searchsorted(edges, lx[miss], "right")
        return rows

    def _log_eval(self, lx: np.ndarray, want_slope: bool):
        """log y, and with ``want_slope`` d log y / d log x, at finite lx."""
        c = self._coef.take(self._rows(lx), axis=0)
        s = lx - c[:, 0]
        s2 = s * s
        ly = c[:, 2] * s
        ly += c[:, 1]
        ly += c[:, 3] * s2
        ls = None
        if want_slope:
            ls = 2 * c[:, 3]
            ls *= s
            ls += c[:, 2]
            ls += 3 * c[:, 4] * s2
        s2 *= s
        s2 *= c[:, 4]
        ly += s2
        return ly, ls

    def _eval(self, flat: np.ndarray, derivative: bool) -> np.ndarray:
        """The table, or its derivative, at every element of ``flat``: zero
        at nonpositive and NaN arguments.  Evaluated in blocks of
        ``_EVAL_BLOCK`` arguments, which moves no bit: every step acts on
        each argument alone."""
        out = np.zeros_like(flat)
        for k in range(0, len(flat), _EVAL_BLOCK):
            arg = flat[k : k + _EVAL_BLOCK]
            res = out[k : k + _EVAL_BLOCK]
            fin = (arg > 0.0) & (arg < np.inf)
            x = arg[fin]
            ly, ls = self._log_eval(np.log(x), derivative)
            val = np.exp(ly, out=ly)
            if derivative:
                # where val * ls overflows, as near the top of G*, though
                # the derivative does not, ls / x goes first; every finite
                # val * ls / x keeps scipy's bits
                with np.errstate(over="ignore"):
                    dv = val * ls / x
                    far = np.isinf(dv) & (val < np.inf)
                    dv[far] = val[far] * (ls[far] / x[far])
                val = dv
            res[fin] = val
            res[arg == np.inf] = self._at_inf[derivative]
        return out

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._eval(arr.ravel(), False)
        return out.reshape(arr.shape) if arr.ndim else float(out[0])

    def derivative(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._eval(arr.ravel(), True)
        return out.reshape(arr.shape) if arr.ndim else float(out[0])


# log knots in sigma of the tabulated integrals (the Ghat primitive of the
# operator and W = (G*)^{-1} o G of the Sobolev conjugate): 512 per decade
# over [1e-15, 1e15], with a knot exactly at 1
_KNOTS = np.logspace(-15.0, 15.0, 30 * 512 + 1)


# integrand points per block of a panel integral: the integrand's
# temporaries then stay a few MiB, whatever the number of knots
_PANEL_BLOCK = 1 << 15


def _panel_integral(
    integrand: Callable[[np.ndarray], np.ndarray], head: float, knots: np.ndarray = _KNOTS
) -> np.ndarray:
    """head plus the cumulative 8-point Gauss panel sums of ``integrand``
    over the intervals between consecutive ``knots``: the integral from 0
    to every knot, given the integral ``head`` from 0 to the first.

    ``integrand`` must act elementwise: it sees the Gauss points in blocks
    of about ``_PANEL_BLOCK``, and the panel sums are formed once, from
    every value."""
    x, w = _gauss(8)
    lo = knots[:-1]
    hi = knots[1:]
    vals = np.empty((len(lo), len(x)))
    rows = _PANEL_BLOCK // len(x)
    for k in range(0, len(lo), rows):
        a, b = lo[k : k + rows], hi[k : k + rows]
        mid = 0.5 * (b + a)[:, None] + 0.5 * (b - a)[:, None] * x[None, :]
        vals[k : k + rows] = integrand(mid.ravel()).reshape(mid.shape)
    segs = 0.5 * (hi - lo) * (vals @ w)
    return head + np.concatenate(([0.0], np.cumsum(segs)))


def _conjugate_integrand(yf: YoungFunction, s_over_n: float):
    """x -> x * g(x) * G(x)**(-1 - s/n), the integrand of
    W(sigma) = (G*)^{-1}(G(sigma)) in sigma, formed as the elasticity
    x g / G times G**(-s/n) so that it stays in range wherever G is a
    normal float."""

    def integrand(x):
        G = yf.evaluate(x)
        return x * yf.derivative(x) / G * G ** -s_over_n

    return integrand


def _head_integral(yf: YoungFunction, sigma0: float, s_over_n: float) -> float:
    """W(sigma0): the integral of x * g(x) * G(x)**(-1 - s/n) over (0, sigma0].

    Substituting x = sigma0 * y**(1/b) with b = 1 - p_plus * s/n turns the
    integrand into a bounded function of y on (0, 1], constant for a power
    at p_plus, so Gauss panels on the halvings of y gain at least a factor 2
    per panel.  The sum stops once a panel adds less than 1e-16 of the total.
    Where G at a panel's lower end leaves the normal range toward 0, the
    rest is the power law's, q / (1 - q s/n) * x * G(x)**(-s/n) at the
    panel's upper end x, with q = x g(x) / G(x) the elasticity there; that
    closure is exact for a power and diverges where q s/n >= 1.
    """
    b = 1.0 - yf.p_plus * s_over_n
    if not b > 0:
        raise QuadratureError("nonpositive head exponent; the integral diverges")
    integrand = _conjugate_integrand(yf, s_over_n)
    x, w = _gauss(8)
    total = 0.0
    hi = 1.0
    for _ in range(2000):
        lo = 0.5 * hi
        y = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        with np.errstate(under="ignore"):
            xs = sigma0 * np.append(y, lo) ** (1.0 / b)
            if not yf.evaluate(xs[-1:])[0] >= np.finfo(float).tiny:
                break
        contrib = float(np.sum(w * integrand(xs[:-1]) * xs[:-1] / y) * 0.5 * (hi - lo) / b)
        total += contrib
        if contrib < 1e-16 * total:
            return total
        hi = lo
    else:
        raise QuadratureError("singular head integral failed to converge")
    # the previous panel's lower end, or sigma0: G is a normal float there
    top = np.array([sigma0 * hi ** (1.0 / b)])
    G = yf.evaluate(top)[0]
    q = float(top[0] * yf.derivative(top)[0] / G)
    if not q * s_over_n < 1.0:
        raise QuadratureError(
            "integral of the inverse against the singular kernel diverges near 0"
        )
    return total + q / (1.0 - q * s_over_n) * float(top[0] * G**-s_over_n)


def _normal_knots(yf: YoungFunction) -> tuple[np.ndarray, np.ndarray]:
    """The log knots where G, and with it x * g <= p_plus * G, is a normal
    float, and G there: a contiguous run, since G increases."""
    with np.errstate(under="ignore", over="ignore"):
        gk = yf.evaluate(_KNOTS)
        keep = (gk >= np.finfo(float).tiny) & (yf.p_plus * gk < np.inf)
    return _KNOTS[keep], gk[keep]


def sobolev_conjugate(
    yf: YoungFunction,
    s: float,
    n: int,
) -> YoungFunction:
    """Critical conjugate G*: the function whose inverse is
    int_0^t G^{-1}(tau) * tau**(-(n+s)/n) dtau.

    Requires s * p_plus < n, which makes the integrand integrable at 0 and
    the integral divergent at infinity.  The substitution tau = G(sigma)
    takes the inverse of G out of the integral:
    W(sigma) = (G*)^{-1}(G(sigma)) is the integral of
    x * g(x) * G(x)**(-1 - s/n) over (0, sigma], tabulated at the log knots
    sigma_k where G is a normal float.  The inverse table maps G(sigma_k)
    to W_k and the forward table W_k to G(sigma_k): log-log cubics with the
    exact knot slopes and power-law extrapolation.  The result evaluates
    the forward table, its density is that table's derivative, and its
    ``inverse_fn`` is the inverse table, so nothing here inverts G.  Where
    G* overflows to inf, its density reads inf.
    """
    if not (0.0 < s < 1.0):
        raise EmbeddingConditionError(f"smoothness order must lie in (0,1), got {s}")
    if n < 1:
        raise EmbeddingConditionError(f"dimension must be >= 1, got {n}")
    if not s * yf.p_plus < n:
        raise EmbeddingConditionError(
            f"s * p_plus = {s * yf.p_plus:.6g} must be < n = {n} for {yf.label}"
        )
    s_over_n = s / float(n)

    knots, gk = _normal_knots(yf)
    if len(knots) < 2:
        raise QuadratureError(f"{yf.label} leaves the floating-point range on the knots")
    head = _head_integral(yf, knots[0], s_over_n)
    if head <= 0:
        raise QuadratureError("vanishing head integral; malformed growth function")
    wtab = _panel_integral(_conjugate_integrand(yf, s_over_n), head, knots)

    # d log W / d log G = sigma * G**(-s/n) / W at every knot: continuous
    # where g jumps, unlike the secants PCHIP would estimate it from
    slope = knots * gk ** -s_over_n / wtab
    inv_table = _LogLogTable(gk, wtab, slope)           # tau -> (G*)^{-1} value
    fwd_table = _LogLogTable(wtab, gk, 1.0 / slope)     # t -> G*(t)
    return YoungFunction(
        fwd_table,
        fwd_table.derivative,
        n * yf.p_minus / (n - s * yf.p_minus),
        n * yf.p_plus / (n - s * yf.p_plus),
        f"sobolev_conjugate({yf.label};s={s:g},n={n})",
        inv_table,
    )


# tabulated primitive Ghat(x) = int_0^x G(sigma)/sigma dsigma per growth
# function, for the operator's exterior rays; a knot sits exactly at sigma = 1
# so piecewise families keep their density corner at a panel boundary and
# every panel stays smooth.  Weakly keyed: lives as long as its function.
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


def embedding_composition(yf: YoungFunction, gstar: YoungFunction) -> YoungFunction:
    """The composition H = G* o G^{-1} of G with its critical conjugate
    ``gstar``, itself a Young function.

    Its Luxemburg norm bounds norms of superpositions G(u) in terms of the
    critical norm of u.  It is tabulated as the pairs (G(sigma), G*(sigma))
    on the sigma knots of :func:`sobolev_conjugate` where both are normal
    floats, so building it inverts nothing.  Where g jumps at a knot
    sigma_j, G* = G o W^{-1} has a second-derivative jump at
    t = W(sigma_j), so H has one at sigma = W(sigma_j), which the inverse
    table of ``gstar`` gives as (G*)^{-1}(G(sigma_j)); those sigma join the
    knots.  The elasticity of H at G(sigma) is the ratio e*/e of the
    elasticities of G* and G at sigma, in which sigma cancels:
    (g*/G*) / (g/G), with g* the density of ``gstar``.  That ratio is each
    knot's exact slope; where g jumps, the knot takes the ratio with
    g(sigma-) as its slope from the left, so no cubic straddles a kink of H.
    The density of H is its table's derivative, and its index bounds are
    the least and the greatest knot slope.
    """
    knots, gk = _normal_knots(yf)
    with np.errstate(under="ignore", over="ignore"):
        # g jumps where it exceeds g one float step below by more than
        # 1e-9 relative, the test the left slopes below take
        jumps = yf.derivative(knots) > yf.derivative(np.nextafter(knots, 0.0)) * (1.0 + 1e-9)
        bends = gstar.inverse_fn(gk[jumps])
        bends = bends[(bends > knots[0]) & (bends < knots[-1])]
        at = np.searchsorted(knots, bends)
        # a bend that is a knot already keeps its one knot
        new = knots[at] != bends
        knots = np.insert(knots, at[new], bends[new])
        gk = np.insert(gk, at[new], yf.evaluate(bends[new]))
        hk = gstar.evaluate(knots)
    keep = (hk >= np.finfo(float).tiny) & (hk < np.inf)
    knots, gk, hk = knots[keep], gk[keep], hk[keep]
    rel = gstar.derivative(knots) / hk
    slope = rel / (yf.derivative(knots) / gk)
    left = rel / (yf.derivative(np.nextafter(knots, 0.0)) / gk)
    # one float step below a knot where g is continuous, g is a few ulps
    # lower and one slope serves both sides; a left slope more than 1e-9
    # relative steeper marks a jump of g
    left = np.where(left > slope * (1.0 + 1e-9), left, slope)
    # the table build sets the traced peak of verify's superposition check
    del knots, rel
    table = _LogLogTable(gk, hk, slope, left)
    # no left slope is below its knot's own
    p_minus, p_plus = float(slope.min()), float(left.max())
    if p_minus <= 1.0:
        raise YoungFunctionError(
            f"composition of {gstar.label} with the inverse of {yf.label} has "
            f"elasticity {p_minus:.4g} <= 1"
        )
    return YoungFunction(
        table,
        table.derivative,
        p_minus,
        p_plus,
        f"embedding_composition({gstar.label})",
    )


def indicator_gauge(yf: YoungFunction, t, gstar: YoungFunction):
    """Gauge t * (G* o G^{-1})^{-1}(1/t) = t * G((G*)^{-1}(1/t)) for t > 0,
    with ``gstar`` the critical conjugate of G.

    Bounds the conjugate-norm of the indicator of a set of measure t.  For a
    pure power G = t**p and ``gstar`` at (s, n) it reduces to
    c * t**(s p / n).
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("the gauge is defined for positive measures only")
    flat = np.atleast_1d(arr)
    w = np.asarray(gstar.inverse_fn(1.0 / flat), dtype=float)
    out = flat * np.asarray(yf.evaluate(w), dtype=float)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Modulars, Luxemburg norms, tail bound
# ---------------------------------------------------------------------------


def modular(yf: YoungFunction, u: WeightedSamples) -> float:
    """Weighted sum of G(|values|); zero exactly when all values vanish."""
    return float(np.dot(u.weights, yf(np.abs(u.values))))


_SECANT_EVALS = 12  # evaluations spent looking for a certified window


def _replay_bisection(
    value: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    steps: int,
    decide: Callable[[float], int],
    upper: float,
    lower: float,
    seeds: Sequence[tuple[float, float]],
    adjacent_stop: bool = False,
) -> float:
    """Result of ``steps`` midpoint-bisection steps on a decreasing map.

    The bisection replayed here starts from (lo, hi) and repeats
    ``mid = 0.5 * (lo + hi)``, stopping first if ``adjacent_stop`` is set and
    mid equals lo or hi, then moves lo to mid when ``decide(value(mid))`` is
    positive, hi to mid when it is negative, and returns mid when it is 0.
    After the last step it returns ``0.5 * (lo + hi)``.

    Log-log secant steps from the evaluated ``seeds`` first look for a
    window [a, b] around the crossing whose ends are certified:
    value(a) > upper and value(b) < lower.  The caller places ``upper`` and
    ``lower`` beyond its decision thresholds by a relative margin well above
    the rounding error of one evaluation, so by monotonicity every midpoint
    <= a decides positive and every midpoint >= b decides negative.  Only
    midpoints inside the window are evaluated, and the result is the
    bisection's own bits.  A side without a certified end keeps the whole
    bracket, so every midpoint on it is evaluated; no branch is guessed.
    """
    a, b = -math.inf, math.inf  # certified window ends
    log_a = log_b = math.nan  # log values there
    model = []  # evaluated (x, log x, log value) with a finite positive value

    def note(x, v):
        nonlocal a, b, log_a, log_b
        if v > upper and x > a:
            a, log_a = x, math.log(v)
        elif v < lower and x < b:
            b, log_b = x, (math.log(v) if v > 0 else -math.inf)
        if 0.0 < v < math.inf and x > 0.0:
            model.append((x, math.log(x), math.log(v)))

    for x, v in seeds:
        note(x, v)
    log_up, log_low = math.log(upper), math.log(lower)
    gap = 0.5 * (log_up - log_low)
    for _ in range(_SECANT_EVALS):
        up_tight = log_a <= log_up + 3.0 * gap
        low_tight = log_b >= log_low - 3.0 * gap
        if (up_tight and low_tight) or len(model) < 2:
            break
        (_, lx0, ly0), (x1, lx1, ly1) = model[-2], model[-1]
        if lx1 == lx0:
            break
        slope = (ly1 - ly0) / (lx1 - lx0)
        if not slope < 0.0:
            break
        # aim just beyond the threshold on a side still loose, the side
        # opposite the last point when both are, so the points straddle
        if low_tight or (not up_tight and ly1 < log_up):
            aim = log_up + gap
        else:
            aim = log_low - gap
        left, right = max(a, lo), min(b, hi)
        x = math.exp(min(lx1 + (aim - ly1) / slope, 709.0))
        if not left < x < right:
            x = math.sqrt(left * right)
        if x == x1 or not left < x < right:
            break
        note(x, value(x))

    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if adjacent_stop and (mid == lo or mid == hi):
            break
        if mid <= a:
            d = 1
        elif mid >= b:
            d = -1
        else:
            d = decide(value(mid))
        if d == 0:
            return mid
        if d > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# relative margin beyond 1 +- tol that certifies a Luxemburg window end: it
# clears the rounding of a modular summed over millions of terms
_LUXEMBURG_MARGIN = 1e-12


def luxemburg_scale(
    modular_of_scaled: Callable[[float], float], *, tol: float = 1e-11
) -> float:
    """Smallest lam with modular(u/lam) <= 1 for a strictly decreasing map.

    ``modular_of_scaled(lam)`` must return the modular of u/lam, computed to
    rounding accuracy.  Returns the bisected lam with |modular - 1| <= tol,
    bit for bit the lam of plain midpoint bisection from the doubling
    bracket.  The bisection path stays the definition of the result;
    :func:`_replay_bisection` only skips the evaluations whose branch is
    certified by a window end beyond 1 +- tol.
    """
    lam = 1.0
    val = modular_of_scaled(lam)
    if val > 1.0:
        for _ in range(2000):
            prev = val
            lam *= 2.0
            val = modular_of_scaled(lam)
            if val <= 1.0:
                break
        else:
            raise BracketError("no upper bracket for the Luxemburg scale")
        lo, hi = lam / 2.0, lam
        seeds = ((lo, prev), (hi, val))
    else:
        for _ in range(2000):
            prev = val
            lam /= 2.0
            if lam < 1e-300:
                return 0.0
            val = modular_of_scaled(lam)
            if val > 1.0:
                break
        else:
            return 0.0
        lo, hi = lam, lam * 2.0
        seeds = ((hi, prev), (lo, val))

    def decide(v):
        if abs(v - 1.0) <= tol:
            return 0
        return 1 if v > 1.0 else -1

    return _replay_bisection(
        modular_of_scaled,
        lo,
        hi,
        steps=200,
        decide=decide,
        upper=(1.0 + tol) * (1.0 + _LUXEMBURG_MARGIN),
        lower=(1.0 - tol) * (1.0 - _LUXEMBURG_MARGIN),
        seeds=seeds,
    )


def _modular_scale(values: np.ndarray, weight: float, yf: YoungFunction, mu: float) -> float:
    """Scale c with weight * sum G(|values| / c) = mu, by bracketed bisection.

    The bracket comes from the index sandwich: with r = modular / mu the
    scale lies between r**(1/p_plus) and r**(1/p_minus) (order swapped for
    r < 1); a hair of slack covers families with sampled index bounds.

    The result is the bisection's own bits: :func:`_replay_bisection` skips
    only midpoints outside a window whose ends clear mu by a relative margin
    of 8 eps (4 + p_plus + log2 N).  That is at least twice the rounding
    error of the modular: eps/2 per quotient times the elasticity, a few
    ulps per G, and eps/2 per addition along numpy's pairwise sum, at most
    about 20 + log2 N of them.
    """
    absv = np.abs(values)

    # absv / c holds no -0.0, so G takes it as it is: no even extension, and
    # np.add.reduce is np.sum's pairwise sum without its dispatch
    def mod(c: float) -> float:
        return weight * float(np.add.reduce(yf.evaluate(absv / c)))

    r = mod(1.0) / mu
    if r == 0.0:
        raise ValueError("cannot rescale the zero function to a positive modular")
    br = sorted((r ** (1.0 / yf.p_plus), r ** (1.0 / yf.p_minus)))
    lo, hi = br[0] * (1.0 - 1e-9), br[1] * (1.0 + 1e-9)
    flo, fhi = mod(lo), mod(hi)
    for _ in range(200):
        if flo >= mu >= fhi:
            break
        lo *= 0.5
        hi *= 2.0
        flo, fhi = mod(lo), mod(hi)
    # bisect to the floating-point floor: downstream line searches compare
    # energies whose differences can sit near machine precision, so the
    # renormalization must not inject rounding noise of its own
    margin = 8.0 * np.finfo(float).eps * (4.0 + yf.p_plus + np.log2(len(absv)))
    return _replay_bisection(
        mod,
        lo,
        hi,
        steps=110,
        decide=lambda v: 1 if v > mu else -1,
        upper=mu * (1.0 + margin),
        lower=mu * (1.0 - margin),
        seeds=((lo, flo), (hi, fhi)),
        adjacent_stop=True,
    )


def luxemburg_norm(yf: YoungFunction, u: WeightedSamples) -> float:
    """Luxemburg norm inf{ lam > 0 : modular(u/lam) <= 1 }; 0 for u = 0."""
    if not np.any(u.values != 0.0):
        return 0.0
    absvals = np.abs(u.values)
    return luxemburg_scale(lambda lam: float(np.dot(u.weights, yf(absvals / lam))))


def chebyshev_bound(yf: YoungFunction, u: WeightedSamples, t: float) -> tuple[float, float]:
    """Measure of {values >= t} and the modular bound modular / G(t).

    The returned pair satisfies measure <= bound; a violation raises,
    since it would mean the weighted counting itself is broken.
    """
    if not t > 0:
        raise ValueError("threshold must be positive")
    measure = float(np.sum(u.weights[u.values >= t]))
    bound = modular(yf, u) / float(yf(t))
    if measure > bound * (1.0 + 1e-12) + 1e-300:
        raise AssertionError(
            f"tail bound violated: measure {measure} > bound {bound} at t={t}"
        )
    return measure, bound


# ---------------------------------------------------------------------------
# Superlinear recursion threshold
# ---------------------------------------------------------------------------


def sequence_threshold(c_bar: float, c_tilde: float, delta: float) -> float:
    """Starting level below which a_{k+1} = c_bar * c_tilde**(k+1) * a_k**(1+delta)
    is guaranteed to decay to zero.

    Solving the recursion in log space shows the sharp threshold is
    c_bar**(-1/delta) * c_tilde**(-(1+delta)/delta**2); a factor 0.5 of
    safety is applied.  For c_bar, c_tilde >= 1 the resulting iterates are
    strictly decreasing from the first step.
    """
    if not (c_bar > 0 and c_tilde > 0):
        raise ValueError("recursion constants must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("superlinearity exponent must lie in (0, 1)")
    log_eps = (
        np.log(0.5)
        - np.log(c_bar) / delta
        - np.log(c_tilde) * (1.0 + delta) / delta**2
    )
    if log_eps < -745.0:  # exp underflow; the guarantee degenerates to a_0 = 0
        return 0.0
    if log_eps > 690.0:  # constants below 1: any representable start decays
        return 1e300
    return float(np.exp(log_eps))


def iterate_recursion(
    c_bar: float, c_tilde: float, delta: float, a0: float, steps: int
) -> np.ndarray:
    """Worst-case iterates a_{k+1} = c_bar * c_tilde**(k+1) * a_k**(1+delta)."""
    out = np.empty(steps + 1)
    out[0] = a0
    a = float(a0)
    for k in range(steps):
        a = c_bar * c_tilde ** (k + 1) * a ** (1.0 + delta)
        a = min(a, 1e300)
        out[k + 1] = a
    return out


# ---------------------------------------------------------------------------
# Declarative descriptors and the built-in roster
# ---------------------------------------------------------------------------


def _finite_number(value) -> bool:
    """A JSON number other than NaN and the infinities; a bool is not one."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def young_from_config(desc: dict) -> YoungFunction:
    """Build a Young function from a declarative record.

    Records are either a family with parameters, e.g.
    ``{"family": "power", "p": 2}``, or a combinator tree
    ``{"family": "sum", "parts": [...], "coefficients": [...]}``.  A record
    may be wrapped as ``{"family": "normalized", "base": {...}}`` or scaled
    with ``{"family": "scaled", "base": {...}, "factor": c}``.  A record
    that lacks a parameter, or gives one of the wrong type (NaN and the
    infinities do not count as numbers), raises :class:`YoungFunctionError`
    naming the family and the key.
    """
    if not isinstance(desc, dict) or "family" not in desc:
        raise YoungFunctionError(f"malformed growth-function record: {desc!r}")
    fam = desc["family"]

    def param(key, valid, what):
        value = desc.get(key)
        if not valid(value):
            raise YoungFunctionError(
                f"{fam!r} record needs {what} {key!r}, got {value!r}"
            )
        return value

    def number(key):
        return param(key, _finite_number, "a finite number")

    def record(key):
        return param(key, lambda v: isinstance(v, dict), "a record")

    if fam == "power":
        return make_power(number("p"))
    if fam == "power_log":
        return make_power_log(number("p"))
    if fam == "piecewise_power":
        return make_piecewise_power(number("p"), number("q"))
    if fam in ("sum", "max", "compose"):
        parts = param("parts", lambda v: isinstance(v, list), "a list")
        parts = [young_from_config(d) for d in parts]
        coefficients = desc.get("coefficients")
        if coefficients is not None:
            param(
                "coefficients",
                lambda v: isinstance(v, list) and all(map(_finite_number, v)),
                "a list of finite numbers",
            )
        return combine(fam, parts, coefficients)
    if fam == "normalized":
        return normalize_young(young_from_config(record("base")))
    if fam == "scaled":
        base = young_from_config(record("base"))
        return scale_young(base, number("factor"))
    raise YoungFunctionError(f"unknown growth-function family {fam!r}")


def builtin_families() -> dict[str, YoungFunction]:
    """Roster of representative instances used by the verification suites."""
    return {
        "power2": make_power(2.0),
        "power3.5": make_power(3.5),
        "piecewise2_3": make_piecewise_power(2.0, 3.0),
        "powerlog3": make_power_log(3.0),
        "summix": normalize_young(combine("sum", [make_power(2.0), make_power(3.0)])),
    }


def builtin_embedding_params() -> dict[str, tuple[float, int]]:
    """Per-roster (s, n) pairs satisfying s * p_plus < n."""
    return {
        "power2": (0.5, 2),
        "power3.5": (0.5, 2),
        "piecewise2_3": (0.5, 2),
        "powerlog3": (0.45, 2),
        "summix": (0.5, 2),
    }


def check_young_wellformed(yf: YoungFunction) -> dict:
    """Sampled structural checks: G(0) = 0, and on [1e-3, 1e3] strict
    increase, elasticity inside the declared bounds, the doubling
    inequality and second differences of G on one uniform grid; on a
    geometric grid of 200,000 steps over [1e-6, 1e6], that the density g
    is nondecreasing, which is convexity of G.

    The density margin is the least relative step (g(t') - g(t)) / g(t')
    between neighbouring grid points, so a g that dips anywhere on the grid
    reads negative however few samples of G fall there.  An upward jump of
    g, as at an atom, passes.

    Returns a dict of worst-case margins (nonnegative means satisfied).
    """
    ts = np.logspace(-3, 3, 601)
    vals = yf(ts)
    g0 = float(yf(0.0))
    increase = float(np.min(np.diff(vals)))
    ratios = yf.ratio(ts)
    lower = float(np.min(ratios - yf.p_minus))
    upper = float(np.min(yf.p_plus - ratios))
    doubled = yf.doubling_constant * vals
    doubling = float(np.min((doubled - yf(2.0 * ts)) / doubled))
    tt = np.linspace(ts[0], ts[-1], 2048)
    vv = yf(tt)
    second = vv[2:] - 2.0 * vv[1:-1] + vv[:-2]
    # the geometric grid in 20 pieces that share their end points, so no
    # temporary holds more than 10,001 values
    density = np.inf
    edges = np.linspace(-6.0, 6.0, 21)
    for lo, hi in zip(edges[:-1], edges[1:]):
        gs = yf.g(np.logspace(lo, hi, 10001))
        steps = np.diff(gs) / np.maximum(gs[1:], np.finfo(float).tiny)
        density = min(density, float(np.min(steps)))
    return {
        "g_at_zero": g0,
        "strict_increase_margin": increase,
        "elasticity_lower_margin": lower,
        "elasticity_upper_margin": upper,
        "doubling_margin": doubling,
        "convexity_margin": float(np.min(second)),
        "density_monotone_margin": density,
    }
