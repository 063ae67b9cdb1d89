"""Constrained eigenproblem and semilinear solves, plus truncation diagnostics.

The eigen solve and the fixed-source solve share one descent core:
Barzilai-Borwein trial steps, Armijo backtracking through a projection, and
a damped Newton polish once the line search stalls at the floating-point
floor.  The eigen solver minimizes the nonlocal modular energy over the
modular sphere { int G(|u|) = mu }, projecting by renormalization onto the
sphere.

The eigen probe preconditions its direction with the grid's spectral
fractional Laplacian P (``_Kernel.precondition``):
d = P A2 - (<P A2, g> / <P g, g>) P g, tangent to the sphere's normal g,
with the natural step scaled by |d_plain| / |d| and the Armijo slope
h**n grad E . d.  The iteration count of the plain gradient grows with N
at s >= 1/2, and P takes the operator's stiffness out of it.  Where the
energy no longer resolves a step, the eigen solve backtracks the same step
on a sufficient decrease of the measured defect, along d and then along
the plain direction, before it falls back on the dense Newton polish.
The fixed-source descent takes the plain gradient, whose slope
h**n grad E . d is h**n d . d.  The reported eigenvalue is the ratio of
the weak pairing <A u, u> (the double sum of g(quotient) against
quotients of u) to the zero-order pairing sum h**n g(u) u.  For every
family the stationarity measure is the plain Euler-Lagrange defect
sup |2 * operator(u) - lambda * g(u)|, so at convergence the discrete
system  2 * operator(u) = lambda * g(u)  holds up to the residual
tolerance.  Where a minimizer parks quotients on a density jump, only the
subdifferential inclusion can close, not this defect, and the solve
raises.  Residuals are reported in operator units, i.e. the nodal
gradient divided by the cell weight.

The semilinear solver handles a fixed source by unconstrained convex
descent in the same core, and an autonomous right-hand side f(u) by damped
Picard iteration with a scalar ray rescaling each sweep, falling back on
non-convergence reporting.

The truncation diagnostic tracks the modular masses a_k of
w_k = (u - (1 - 2**-k))_+, verifies the level-set inclusions and the
pointwise domination identity between consecutive truncations, and fits the
superlinear recursion a_{k+1} <= C1 * C2**(k+1) * a_k**(1+delta) whose
threshold drives a_k to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grids import DiscreteFunction, Grid
from .operator import (
    OperatorParams,
    _energy_hessian,
    apply_operator,
    energy,
    get_kernel,
)
from .young import (
    WeightedSamples,
    YoungFunction,
    _modular_scale,
    modular,
    sequence_threshold,
    sobolev_conjugate,
)

__all__ = [
    "ConvergenceError",
    "StagnationError",
    "SubcriticalityError",
    "SolveOptions",
    "EigenResult",
    "DeGiorgiTrace",
    "RecursionFitReport",
    "domain_modular",
    "solve_eigen",
    "solve_semilinear",
    "is_subcritical",
    "degiorgi_trace",
    "degiorgi_rescale",
    "fit_recursion",
    "check_recursive_bound",
    "sup_norm",
    "truncation_energy_report",
]


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the tolerance."""


class StagnationError(ConvergenceError):
    """Line search collapsed; the iterate cannot make progress."""


class SubcriticalityError(ValueError):
    """The right-hand side grows too fast relative to the critical conjugate."""


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls shared by the solvers."""

    tol: float = 1e-6
    max_iter: int = 20000


# Armijo sufficient-decrease fraction, backtracking halvings per line search,
# and Newton polish steps of the descent core
_ARMIJO = 1e-4
_LS_MAX = 60
_POLISH_STEPS = 40
# averaging weight and sweep budget of the Picard iteration
_PICARD_DAMPING = 0.5
_MAX_SWEEPS = 200


@dataclass
class EigenResult:
    """Converged eigenpair with its modular level and iteration diagnostics.

    ``residual`` is the plain Euler-Lagrange defect in operator units,
    sup_k |2 A(u)_k - lam g(u_k)| at the returned pair, for every family.
    """

    u: DiscreteFunction
    lam: float
    mu: float
    iterations: int
    residual: float
    energy_history: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"eigenvalue must be positive, got {self.lam}")


@dataclass
class DeGiorgiTrace:
    """Modular masses of dyadic truncations with fitted recursion constants."""

    levels: np.ndarray
    a: np.ndarray
    c_bar: Optional[float]
    c_tilde: Optional[float]
    delta: Optional[float]
    epsilon0: Optional[float]
    inclusion_ok: bool
    domination_margin: float


@dataclass
class RecursionFitReport:
    trivial: bool
    ok: bool
    max_log_violation: float


def domain_modular(u: DiscreteFunction, yf: YoungFunction) -> float:
    """Modular int G(|u|) over the domain with midpoint weights."""
    w = np.full(u.grid.node_count, u.grid.node_weight)
    return modular(yf, WeightedSamples(u.values, w))


def _bump(grid: Grid) -> np.ndarray:
    """Positive product-of-boundary-distances profile, the descent seed."""
    vals = np.ones(grid.node_count)
    for k in range(grid.dim):
        vals *= (grid.nodes[:, k] - grid.bounds[k, 0]) * (
            grid.bounds[k, 1] - grid.nodes[:, k]
        )
    return vals


class _Probe(NamedTuple):
    """What the descent core needs to know about one iterate.

    ``res`` is the measured stationarity defect and ``defect`` the defect
    vector that Newton drives to zero; ``grad`` is the objective gradient
    and ``direction`` the descent direction, all in operator units.
    ``natural`` is the step taken when no Barzilai-Borwein step is
    available.  ``normal`` is the normal of the constraint surface and
    ``lam`` its multiplier, both None for an unconstrained objective.
    ``plain`` is the unpreconditioned tangent direction of a constrained
    probe, the defect tail's second direction; None for an unconstrained one.
    """

    res: float
    defect: np.ndarray
    grad: np.ndarray
    direction: np.ndarray
    natural: float
    normal: Optional[np.ndarray] = None
    lam: Optional[float] = None
    plain: Optional[np.ndarray] = None


# maps a candidate onto the feasible set; None when it cannot be projected
_Projection = Callable[[np.ndarray], Optional[np.ndarray]]


def _newton_polish(
    grid: Grid,
    yf: YoungFunction,
    params: OperatorParams,
    u: np.ndarray,
    p: _Probe,
    probe: Callable[[np.ndarray], _Probe],
    project: _Projection,
    tol: float,
) -> tuple[np.ndarray, _Probe]:
    """Damped Newton steps on the stationarity system, the energy Hessian
    bordered by the constraint normal when there is one.  Starts from u,
    whose probe p the caller has already taken.

    Energy-comparison line searches cannot resolve defects below the square
    root of machine precision; the Newton correction can.  Steps are
    accepted on decrease of the measured defect, so the last accepted
    iterate is the best one; it is returned with its probe.
    """
    hn = grid.node_weight
    n = len(u)
    for _ in range(_POLISH_STEPS):
        if p.res <= tol:
            break
        # one matrix: the Hessian, bordered by the normal when there is one
        K = np.empty((n + 1, n + 1) if p.normal is not None else (n, n))
        H = _energy_hessian(grid, yf, params, u, K)
        rhs = -hn * p.defect
        if p.normal is not None:
            bv = hn * p.normal
            K[:n, n] = bv
            K[n, :n] = bv
            K[n, n] = 0.0
            rhs = np.concatenate([rhs, [0.0]])
        try:
            delta = np.linalg.solve(K, rhs)[:n]
        except np.linalg.LinAlgError:
            K[:n, :n] += 1e-10 * np.trace(H) / n * np.eye(n)
            delta = np.linalg.lstsq(K, rhs, rcond=None)[0][:n]
        damp = 1.0
        for _ in range(12):
            cand = project(u + damp * delta)
            if cand is not None:
                pc = probe(cand)
                if pc.res < p.res * (1.0 - 1e-3 * damp):
                    u, p = cand, pc
                    break
            damp *= 0.5
        else:
            break
    return u, p


def _descend(
    grid: Grid,
    yf: YoungFunction,
    params: OperatorParams,
    u: np.ndarray,
    objective: Callable[[np.ndarray], float],
    project: _Projection,
    probe: Callable[[np.ndarray], _Probe],
    opts: SolveOptions,
):
    """The descent core shared by the eigen and source solves.

    Minimizes ``objective`` from the feasible start u: Barzilai-Borwein
    trial steps along the probe's descent direction (the natural step when
    the curvature estimate is not positive), halved until the projected
    candidate passes the Armijo test.  When no step clears the
    floating-point floor of the objective, a probe with a ``plain``
    direction first takes the defect tail: the same step, halved along
    both directions, accepted on a sufficient decrease of the measured
    defect.  Failing that, a damped Newton polish ends the descent.  Stops
    once the measured defect reaches opts.tol.

    Returns (u, probe, iterations, history, stall): the iterate with the
    smallest measured defect and its probe, the iteration count, the
    objective after every accepted step, and the defect of the polished
    iterate when the descent stalled above opts.tol (None otherwise).
    """
    hn = grid.node_weight

    def line_search(v, J0, direction, slope, step, floor):
        for _ in range(_LS_MAX):
            cand = project(v - step * direction)
            if cand is not None:
                Jc = objective(cand)
                if Jc <= J0 - _ARMIJO * step * slope:
                    return (cand, Jc) if step * slope > floor else None
            step *= 0.5
        return None

    def defect_tail(v, p, step):
        """The first candidate whose measured defect is below p's by the
        relative margin the Newton polish asks, halving step along the
        probe's direction and then along its plain one until the step no
        longer moves v; returned with its probe and whether the plain
        direction gave it."""
        for direction in (p.direction, p.plain):
            t = step
            for _ in range(_LS_MAX):
                moved = v - t * direction
                if np.array_equal(moved, v):
                    break
                cand = project(moved)
                if cand is not None:
                    pc = probe(cand)
                    if pc.res < p.res * (1.0 - 1e-3):
                        return cand, pc, direction is p.plain
                t *= 0.5
        return None

    J = objective(u)
    p = probe(u)
    history = [J]
    best = (u, p)
    prev = None
    step = p.natural
    stall = None
    it = 0
    for it in range(1, opts.max_iter + 1):
        if p.res < best[1].res:
            best = (u, p)
        if p.res <= opts.tol:
            break
        if prev is not None:
            ds = u - prev[0]
            dy = p.direction - prev[1]
            denom = float(np.dot(ds, dy))
            step = float(np.dot(ds, ds)) / denom if denom > 0 else p.natural
        step = float(np.clip(step, 1e-14, 1e14))
        floor = 1e-15 * max(1.0, abs(J))
        slope = hn * float(np.dot(p.grad, p.direction))
        found = line_search(u, J, p.direction, slope, step, floor)
        prev = (u, p.direction)
        probed = None
        if found is None and p.plain is not None:
            tail = defect_tail(u, p, step)
            if tail is not None:
                cand, probed, plain = tail
                found = (cand, objective(cand))
                if plain:
                    prev = None  # the direction family changed
        if found is None:
            polished = _newton_polish(grid, yf, params, u, p, probe, project, opts.tol)
            if polished[1].res < best[1].res:
                best = polished
            if polished[1].res > opts.tol:
                stall = polished[1].res
            break
        u, J = found
        history.append(J)
        p = probe(u) if probed is None else probed
    return best[0], best[1], it, history, stall


def solve_eigen(
    grid: Grid,
    yf: YoungFunction,
    params: OperatorParams,
    mu: float,
    opts: SolveOptions = SolveOptions(),
) -> EigenResult:
    """First eigenpair of the modular-constrained energy minimization.

    Runs the descent core on { int G(|u|) = mu }: the energy is the
    objective and renormalization onto the sphere the projection, and the
    direction is the spectrally preconditioned gradient.  Convergence is
    reached when the plain Euler-Lagrange defect, as :class:`EigenResult`
    describes its ``residual``, drops below opts.tol; a stalled descent
    raises :class:`StagnationError`.
    """
    if not mu > 0:
        raise ValueError("modular level mu must be positive")
    hn = grid.node_weight
    u = _bump(grid)
    u /= _modular_scale(u, hn, yf, mu)

    kern = get_kernel(grid, params)

    def objective(v: np.ndarray) -> float:
        return energy(DiscreteFunction(grid, v), yf, params)

    def project(v: np.ndarray) -> Optional[np.ndarray]:
        if not np.any(v != 0.0):
            return None
        return v / _modular_scale(v, hn, yf, mu)

    def probe(v: np.ndarray) -> _Probe:
        # DiscreteFunction rejects a non-finite iterate
        A2 = 2.0 * apply_operator(DiscreteFunction(grid, v), yf, params)
        gv = yf.slope_odd(v)
        lam = float(np.dot(A2, v) / np.dot(gv, v))
        r = A2 - lam * gv
        res = float(np.max(np.abs(r)))
        # the plain direction: gradient projected along g(u), the tangent
        # direction of the modular sphere (coincides with r for powers)
        d = A2 - (float(np.dot(A2, gv)) / float(np.dot(gv, gv))) * gv
        natural = 1.0 / max(abs(lam), 1e-12)
        # the preconditioned gradient, made tangent to the sphere along P g
        PA2, Pg = kern.precondition(A2), kern.precondition(gv)
        dp = PA2 - (float(np.dot(PA2, gv)) / float(np.dot(Pg, gv))) * Pg
        natural *= float(np.linalg.norm(d)) / float(np.linalg.norm(dp))
        return _Probe(res, r, A2, dp, natural, gv, lam, d)

    u, p, it, history, stall = _descend(grid, yf, params, u, objective, project, probe, opts)
    if p.res <= opts.tol:
        return EigenResult(
            DiscreteFunction(grid, u), p.lam, mu, it, p.res, np.asarray(history)
        )
    if stall is not None:
        raise StagnationError(
            f"line search collapsed at iteration {it} (best residual {p.res:.3e})"
        )
    raise ConvergenceError(
        f"eigen solve did not reach tol {opts.tol:.1e} in {opts.max_iter} iterations "
        f"(best residual {p.res:.3e})"
    )


def is_subcritical(F: YoungFunction, gstar: YoungFunction) -> bool:
    """Sampled check that F(k t) / G*(t) decays to zero along the decades
    t = 10 ... 1e6, for k = 1 and 2."""
    ts = 10.0 ** np.arange(1, 7, dtype=float)
    for k in (1.0, 2.0):
        ratios = np.asarray(F(k * ts), dtype=float) / np.asarray(gstar(ts), dtype=float)
        if not np.all(np.diff(ratios) < 0.0):
            return False
        if not ratios[-1] < 1e-2 * ratios[0]:
            return False
    return True


def _descent_fixed_rhs(
    grid: Grid,
    yf: YoungFunction,
    params: OperatorParams,
    rhs: np.ndarray,
    start: np.ndarray,
    opts: SolveOptions,
) -> np.ndarray:
    """Minimize energy(v) - h**n <rhs, v>; the unique solve of 2 A(v) = rhs.

    Runs the descent core without a constraint: the projection is the
    identity and the defect is the gradient itself.
    """
    hn = grid.node_weight

    def objective(v: np.ndarray) -> float:
        return energy(DiscreteFunction(grid, v), yf, params) - hn * float(np.dot(rhs, v))

    def probe(v: np.ndarray) -> _Probe:
        r = 2.0 * apply_operator(DiscreteFunction(grid, v), yf, params) - rhs
        return _Probe(float(np.max(np.abs(r))), r, r, r, 1.0)

    u, p, it, _, stall = _descend(
        grid, yf, params, start.copy(), objective, lambda v: v, probe, opts
    )
    if p.res <= opts.tol:
        return u
    if stall is not None:
        raise StagnationError(
            f"source solve stalled at iteration {it} (residual {stall:.3e})"
        )
    raise ConvergenceError(
        f"source solve did not reach tol {opts.tol:.1e} in {opts.max_iter} iterations"
    )


def solve_semilinear(
    grid: Grid,
    yf: YoungFunction,
    F: Optional[YoungFunction],
    params: OperatorParams,
    opts: SolveOptions = SolveOptions(),
    *,
    source: Optional[np.ndarray] = None,
) -> DiscreteFunction:
    """Solve 2 * operator(u) = f(u) + source on the grid, f = F' the odd
    density of the growth function F.

    With ``F`` absent the problem is a strictly convex source solve and
    opts.tol bounds the absolute defect sup-norm.  With an autonomous
    right-hand side the solver runs damped Picard sweeps: each sweep solves
    the convex problem with the frozen nonlinearity, rescales the update
    along its ray to best fit the equation, and averages with the damping
    factor; convergence is measured by the defect normalized by the term
    magnitudes, since the solution scale is not known in advance.  ``F``
    must pass the sampled subcriticality test against the critical
    conjugate before any iteration starts.
    """
    hn = grid.node_weight
    src = np.zeros(grid.node_count) if source is None else np.asarray(source, float)
    if F is None:
        if not np.any(src != 0.0):
            return DiscreteFunction(grid, np.zeros(grid.node_count))
        return DiscreteFunction(grid, _descent_fixed_rhs(grid, yf, params, src, _bump(grid), opts))

    gstar = sobolev_conjugate(yf, params.s, grid.dim)
    if not is_subcritical(F, gstar):
        raise SubcriticalityError(
            f"{F.label} does not decay against {gstar.label}; refusing to iterate"
        )

    def residuals(v: np.ndarray) -> tuple[float, float]:
        """(scale-normalized, absolute) equation defect of v."""
        A2 = 2.0 * apply_operator(DiscreteFunction(grid, v), yf, params)
        fv = F.slope_odd(v) + src
        res = float(np.max(np.abs(A2 - fv)))
        scale = float(np.max(np.abs(A2)) + np.max(np.abs(fv))) + 1e-300
        return res / scale, res

    u = _bump(grid)
    u /= _modular_scale(u, hn, yf, 1.0)
    best = np.inf
    bad_sweeps = 0
    for sweep in range(_MAX_SWEEPS):
        rel, res = residuals(u)
        if rel <= opts.tol:
            return DiscreteFunction(grid, u)
        if rel < best * (1.0 - 1e-12):
            best = rel
            bad_sweeps = 0
        else:
            bad_sweeps += 1
            if bad_sweeps > 10:
                raise ConvergenceError(
                    f"Picard sweeps stopped contracting (relative residual {rel:.3e})"
                )
        frozen = F.slope_odd(u) + src
        inner = SolveOptions(tol=max(0.02 * res, 1e-14), max_iter=opts.max_iter)
        w = _descent_fixed_rhs(grid, yf, params, frozen, u, inner)
        # rescale the update along its ray by minimizing the normalized
        # defect: the zero function solves the equation too, so the absolute
        # defect is useless for locating the nontrivial branch, while the
        # normalized one dips only near the right scale
        cs = np.logspace(-3.0, 6.0, 46)
        vals = [residuals(c * w)[0] for c in cs]
        i = int(np.argmin(vals))
        lo = np.log10(cs[max(i - 1, 0)])
        hi = np.log10(cs[min(i + 1, len(cs) - 1)])
        phi = 0.5 * (np.sqrt(5.0) - 1.0)
        x1 = hi - phi * (hi - lo)
        x2 = lo + phi * (hi - lo)
        f1, f2 = residuals(10.0**x1 * w)[0], residuals(10.0**x2 * w)[0]
        for _ in range(30):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - phi * (hi - lo)
                f1 = residuals(10.0**x1 * w)[0]
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + phi * (hi - lo)
                f2 = residuals(10.0**x2 * w)[0]
        c = 10.0 ** (x1 if f1 < f2 else x2)
        u = (1.0 - _PICARD_DAMPING) * u + _PICARD_DAMPING * (c * w)
    raise ConvergenceError(
        f"semilinear solve did not reach tol {opts.tol:.1e} in {_MAX_SWEEPS} sweeps "
        f"(relative residual {residuals(u)[0]:.3e})"
    )


# ---------------------------------------------------------------------------
# Truncation diagnostics
# ---------------------------------------------------------------------------


def degiorgi_rescale(u: DiscreteFunction) -> DiscreteFunction:
    """Default diagnostic scaling u / (sup|u| * (1 + 1e-6)), so the dyadic
    levels sweep the full range of the function."""
    m = sup_norm(u)
    if m == 0.0:
        return u
    return u.scaled(1.0 / (m * (1.0 + 1e-6)))


def degiorgi_trace(u: DiscreteFunction, yf: YoungFunction, K: int) -> DeGiorgiTrace:
    """Modular masses a_k of the truncations w_k = (u - (1 - 2**-k))_+.

    Verifies the level-set inclusion { w_{k+1} > 0 } in { w_k > 2**-(k+1) }
    and the domination u <= (2**(k+1) - 1) w_k on { w_{k+1} > 0 }; the worst
    signed violation of the latter is reported (nonpositive means it holds).
    The recursion constants are least-squares fitted on the positive range.
    """
    if K < 1:
        raise ValueError("need at least one truncation level")
    v = u.values
    hn = u.grid.node_weight
    levels = 1.0 - 2.0 ** (-np.arange(K + 1, dtype=float))
    a = np.empty(K + 1)
    inclusion_ok = True
    worst = -np.inf
    for k in range(K + 1):
        w = np.maximum(v - levels[k], 0.0)
        a[k] = hn * float(np.sum(yf(w)))
        if k >= 1:
            above_next = v > levels[k]
            above_prev = (np.maximum(v - levels[k - 1], 0.0)) > 2.0 ** (-k)
            if np.any(above_next & ~above_prev):
                inclusion_ok = False
            if np.any(above_next):
                wprev = np.maximum(v - levels[k - 1], 0.0)
                gap = v[above_next] - (2.0**k - 1.0) * wprev[above_next]
                worst = max(worst, float(np.max(gap)))
    fit = fit_recursion(a)
    if fit is None:
        c_bar = c_tilde = delta = eps0 = None
    else:
        c_bar, c_tilde, delta = fit
        try:
            eps0 = sequence_threshold(max(c_bar, 1e-300), max(c_tilde, 1e-300), delta)
        except ValueError:
            eps0 = None
    return DeGiorgiTrace(
        np.arange(K + 1), a, c_bar, c_tilde, delta, eps0, inclusion_ok, worst
    )


def fit_recursion(a: np.ndarray):
    """Least-squares fit of log a_{k+1} = log C1 + (k+1) log C2 + (1+delta) log a_k.

    Returns (c_bar, c_tilde, delta) or None when fewer than two consecutive
    positive entries exist.  A best-fit delta outside [1e-3, 1 - 1e-3] is
    clamped to the nearer bound and the remaining constants refitted.
    """
    a = np.asarray(a, dtype=float)
    ks = np.array([k for k in range(len(a) - 1) if a[k] > 0 and a[k + 1] > 0])
    if len(ks) < 2:
        return None
    x = np.log(a[ks])
    y = np.log(a[ks + 1])
    if len(ks) == 2:
        cols = np.column_stack([np.ones_like(x), ks + 1.0])
        coef, *_ = np.linalg.lstsq(cols, y - 1.5 * x, rcond=None)
        return float(np.exp(coef[0])), float(np.exp(coef[1])), 0.5
    cols = np.column_stack([np.ones_like(x), ks + 1.0, x])
    coef, *_ = np.linalg.lstsq(cols, y - x, rcond=None)
    delta = float(coef[2])
    if not (1e-3 <= delta <= 1.0 - 1e-3):
        delta = float(np.clip(delta, 1e-3, 1.0 - 1e-3))
        cols2 = np.column_stack([np.ones_like(x), ks + 1.0])
        coef2, *_ = np.linalg.lstsq(cols2, y - (1.0 + delta) * x, rcond=None)
        return float(np.exp(coef2[0])), float(np.exp(coef2[1])), delta
    return float(np.exp(coef[0])), float(np.exp(coef[1])), delta


def check_recursive_bound(trace: DeGiorgiTrace) -> RecursionFitReport:
    """Validate the fitted recursion with constants inflated by 5 percent.

    An all-zero trace passes trivially.  The report carries the worst log
    violation of a_{k+1} <= 1.05*C1 * (1.05*C2)**(k+1) * a_k**(1+delta)
    over the fitted range.
    """
    a = trace.a
    ks = np.array([k for k in range(len(a) - 1) if a[k] > 0 and a[k + 1] > 0])
    if len(ks) == 0 or trace.c_bar is None:
        return RecursionFitReport(True, True, -np.inf)
    c1 = 1.05 * trace.c_bar
    c2 = 1.05 * trace.c_tilde
    lhs = np.log(a[ks + 1])
    rhs = np.log(c1) + (ks + 1.0) * np.log(c2) + (1.0 + trace.delta) * np.log(a[ks])
    worst = float(np.max(lhs - rhs))
    return RecursionFitReport(False, worst <= 1e-9, worst)


# ---------------------------------------------------------------------------
# Norms and pointwise inequality reports
# ---------------------------------------------------------------------------


def sup_norm(u: DiscreteFunction) -> float:
    return float(np.max(np.abs(u.values))) if u.grid.node_count else 0.0


def truncation_energy_report(
    result: EigenResult, yf: YoungFunction, params: OperatorParams, K: int
) -> list[tuple[int, float, float]]:
    """Per-level pairs (k, energy(w_{k+1}), bound) for the converged eigenpair.

    The bound is (p_plus/p_minus) * lambda * (2**(k+1)-1)**(p_plus-1) times
    the modular of the coarser truncation w_k: the domination identity
    controls u by (2**(k+1)-1) * w_k on the support of w_{k+1}, so the
    chain closes with the previous level's modular on the right.  (Putting
    the same level's modular there is numerically false at the first level.)
    """
    out = []
    v = result.u.values
    ratio = yf.p_plus / yf.p_minus
    for k in range(K):
        level_next = 1.0 - 2.0 ** (-(k + 1))
        level_prev = 1.0 - 2.0 ** (-k)
        w_next = result.u.with_values(np.maximum(v - level_next, 0.0))
        w_prev = result.u.with_values(np.maximum(v - level_prev, 0.0))
        lhs = energy(w_next, yf, params) if np.any(w_next.values > 0) else 0.0
        rhs = (
            ratio
            * result.lam
            * (2.0 ** (k + 1) - 1.0) ** (yf.p_plus - 1.0)
            * domain_modular(w_prev, yf)
        )
        out.append((k, lhs, rhs))
    return out
