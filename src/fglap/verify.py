"""Batch verification harness: every module invariant as a named check.

Each check draws its randomness from an explicit seed, reports a worst-case
margin (nonnegative means the property held with room to spare) and the
number of samples involved.  Checks whose preconditions are not met by the
configured parameters (the embedding-dependent ones need s * p_plus < n)
are reported as skipped rather than failed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, asdict
from typing import Callable, Iterable, Optional

import numpy as np

from .grids import DiscreteFunction, Grid
from .operator import (
    OperatorParams,
    apply_operator,
    energy,
    energy_gradient,
    gagliardo_seminorm,
    holder_seminorm,
    pair_test_margin,
    s_quotient,
)
from .solver import (
    ConvergenceError,
    SolveOptions,
    degiorgi_trace,
    domain_modular,
    solve_eigen,
    sup_norm,
    truncation_energy_report,
)
from .young import (
    EmbeddingConditionError,
    WeightedSamples,
    YoungFunction,
    builtin_families,
    builtin_embedding_params,
    chebyshev_bound,
    check_young_wellformed,
    conjugate,
    embedding_composition,
    inverse,
    iterate_recursion,
    luxemburg_norm,
    modular,
    sequence_threshold,
    sobolev_conjugate,
)

__all__ = ["CheckResult", "VerifyReport", "INVARIANT_REGISTRY", "run_verify"]


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    margin: float
    samples: int
    detail: str = ""


@dataclass
class VerifyReport:
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "checks": [asdict(c) for c in self.checks],
        }


def _result(name, ok, margin, samples, detail="") -> CheckResult:
    # an exact-zero margin takes its sign from the reduction order; + 0.0
    # turns -0.0 into 0.0 so the report does not depend on it
    return CheckResult(name, "pass" if ok else "fail", float(margin) + 0.0, samples, detail)


def _skip(name, detail) -> CheckResult:
    return CheckResult(name, "skip", 0.0, 0, detail)


# ---------------------------------------------------------------------------
# growth-function checks
# ---------------------------------------------------------------------------


def _check_young_wellformed(ctx) -> CheckResult:
    worst = np.inf
    count = 0
    for name, yf in ctx.families.items():
        rep = check_young_wellformed(yf)
        worst = min(
            worst,
            rep["strict_increase_margin"],
            rep["elasticity_lower_margin"] + 1e-12,
            rep["elasticity_upper_margin"] + 1e-12,
            rep["doubling_margin"] + 1e-12,
            rep["convexity_margin"] + 1e-12,
            rep["density_monotone_margin"],
            -abs(rep["g_at_zero"]) + 1e-30,
        )
        count += 1
    return _result("young_wellformed", worst >= 0, worst, count)


def _check_young_inequality(ctx) -> CheckResult:
    ts = np.logspace(-3, 3, 50)
    worst = np.inf
    for yf in ctx.families.values():
        conj = conjugate(yf)
        T, A = np.meshgrid(ts, ts)
        lhs = T * A
        rhs = np.asarray(yf(T)) + np.asarray(conj(A))
        worst = min(worst, float(np.min(rhs - lhs) / np.max(rhs)))
    return _result("young_inequality", worst >= -1e-8, worst, 2500 * len(ctx.families))


def _check_young_equality(ctx) -> CheckResult:
    ts = np.logspace(-3, 3, 40)
    worst = np.inf
    for yf in ctx.families.values():
        conj = conjugate(yf)
        a = np.asarray(yf.g(ts))
        gap = ts * a - np.asarray(yf(ts)) - np.asarray(conj(a))
        worst = min(worst, -float(np.max(np.abs(gap) / (ts * a + 1.0))))
    return _result("young_equality_case", worst >= -1e-8, worst, 40 * len(ctx.families))


def _check_scaling_sandwich(ctx) -> CheckResult:
    alphas = np.logspace(-2, 2, 25)
    ts = np.logspace(-2, 2, 25)
    worst = np.inf
    for yf in ctx.families.values():
        A, T = np.meshgrid(alphas, ts)
        got = np.asarray(yf(A * T))
        base = np.asarray(yf(T))
        lo = base * np.minimum(A**yf.p_minus, A**yf.p_plus)
        hi = base * np.maximum(A**yf.p_minus, A**yf.p_plus)
        worst = min(
            worst,
            float(np.min((got - lo) / hi)),
            float(np.min((hi - got) / hi)),
        )
    return _result("scaling_sandwich", worst >= -1e-8, worst, 625 * len(ctx.families))


def _check_inverse_sandwich(ctx) -> CheckResult:
    alphas = np.logspace(-2, 2, 20)
    ts = np.logspace(-2, 2, 20)
    worst = np.inf
    for yf in ctx.families.values():
        A, T = np.meshgrid(alphas, ts)
        got = np.asarray(inverse(yf, (A * T).ravel())).reshape(A.shape)
        base = np.asarray(inverse(yf, T.ravel())).reshape(T.shape)
        lo = base * np.minimum(A ** (1.0 / yf.p_minus), A ** (1.0 / yf.p_plus))
        hi = base * np.maximum(A ** (1.0 / yf.p_minus), A ** (1.0 / yf.p_plus))
        worst = min(
            worst,
            float(np.min((got - lo) / hi)),
            float(np.min((hi - got) / hi)),
        )
    return _result("inverse_scaling_sandwich", worst >= -1e-6, worst, 400 * len(ctx.families))


def _check_sum_splitting(ctx) -> CheckResult:
    ts = np.logspace(-2, 2, 25)
    worst = np.inf
    for yf in ctx.families.values():
        A, B = np.meshgrid(ts, ts)
        lhs = np.asarray(yf(A + B))
        rhs = 0.5 * yf.doubling_constant * (np.asarray(yf(A)) + np.asarray(yf(B)))
        worst = min(worst, float(np.min((rhs - lhs) / rhs)))
    return _result("sum_splitting", worst >= -1e-8, worst, 625 * len(ctx.families))


def _check_double_conjugacy(ctx) -> CheckResult:
    ts = np.logspace(-3, 3, 25)
    worst = 0.0
    for yf in ctx.families.values():
        back = conjugate(conjugate(yf))
        ref = np.asarray(yf(ts))
        worst = max(worst, float(np.max(np.abs(np.asarray(back(ts)) - ref) / ref)))
    return _result("double_conjugacy", worst <= 1e-6, -worst, 25 * len(ctx.families))


def _check_crece(ctx) -> CheckResult:
    worst = np.inf
    count = 0
    for name, yf in ctx.families.items():
        s, n = ctx.embedding[name]
        if s * yf.p_plus >= n:
            continue
        taus = np.logspace(-6, 6, 2000)
        vals = np.asarray(inverse(yf, taus)) * taus ** (-s / n)
        worst = min(worst, float(np.min(np.diff(vals) / np.abs(vals[:-1]))))
        count += 1
    if count == 0:
        return _skip("critical_inverse_monotone", "s * p_plus < n fails for all families")
    return _result("critical_inverse_monotone", worst >= -1e-12, worst, count * 2000)


def _check_superposition_norm(ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.seed)
    worst = np.inf
    count = 0
    w = np.full(1000, 1.0 / 1000)
    for name, yf in ctx.families.items():
        s, n = ctx.embedding[name]
        if s * yf.p_plus >= n:
            continue
        # the only reader of these tables: built per family and dropped
        # before the next, so one family's tables are alive at a time
        gstar = sobolev_conjugate(yf, s, n)
        comp = embedding_composition(yf, gstar)
        for _ in range(ctx.draws):
            u = rng.lognormal(0.0, 1.0, 1000) * rng.choice([-1.0, 1.0], 1000)
            lhs = luxemburg_norm(comp, WeightedSamples(np.asarray(yf(np.abs(u))), w))
            nrm = luxemburg_norm(gstar, WeightedSamples(u, w))
            rhs = max(nrm**yf.p_plus, nrm**yf.p_minus)
            worst = min(worst, (rhs - lhs) / rhs)
            count += 1
        del gstar, comp
    if count == 0:
        return _skip("superposition_norm_bound", "s * p_plus < n fails for all families")
    return _result("superposition_norm_bound", worst >= -1e-6, worst, count)


def _check_modular_seminorm(ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 1)
    grid = Grid.build([0.0, 1.0], 64)
    params = OperatorParams(s=ctx.s)
    worst = np.inf
    count = 0
    for yf in ctx.families.values():
        u = DiscreteFunction(grid, rng.standard_normal(grid.node_count))
        M = energy(u, yf, params)
        scale = 1.0
        while M < 1.0:
            scale *= 2.0
            M = energy(u.scaled(scale), yf, params)
        sem = gagliardo_seminorm(u.scaled(scale), yf, params)
        bound = M ** (1.0 / yf.p_minus)
        worst = min(worst, (bound - sem) / bound)
        count += 1
    return _result("modular_controls_seminorm", worst >= -1e-9, worst, count)


def _check_chebyshev(ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 2)
    w = np.full(1000, 1.0 / 1000)
    worst = np.inf
    count = 0
    for yf in ctx.families.values():
        u = rng.lognormal(0.0, 1.0, 1000)
        samples = WeightedSamples(u, w)
        for t in np.logspace(-2, 1, 20):
            measure, bound = chebyshev_bound(yf, samples, float(t))
            worst = min(worst, bound - measure)
            count += 1
    return _result("chebyshev_tail", worst >= -1e-12, worst, count)


def _check_recursion_threshold(ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 3)
    worst = np.inf
    for _ in range(50):
        c1 = rng.uniform(1.0, 10.0)
        c2 = rng.uniform(1.0, 10.0)
        delta = rng.uniform(0.1, 0.9)
        a0 = sequence_threshold(c1, c2, delta)
        seq = iterate_recursion(c1, c2, delta, a0, 100)
        worst = min(worst, 1e-12 - float(np.min(seq[-1:])))
    return _result("truncation_recursion_threshold", worst >= 0, worst, 50)


def _check_luxemburg_homogeneity(ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 4)
    w = np.full(500, 1.0 / 500)
    worst = np.inf
    for yf in ctx.families.values():
        u = rng.standard_normal(500)
        nrm = luxemburg_norm(yf, WeightedSamples(u, w))
        scaled = luxemburg_norm(yf, WeightedSamples(3.0 * u, w))
        worst = min(worst, -abs(scaled - 3.0 * nrm) / (3.0 * nrm))
        unit = modular(yf, WeightedSamples(u / nrm, w))
        worst = min(worst, -abs(unit - 1.0))
    return _result("luxemburg_homogeneity", worst >= -1e-9, worst, len(ctx.families))


# ---------------------------------------------------------------------------
# operator checks
# ---------------------------------------------------------------------------


def _check_antisymmetry(ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 5)
    grid = Grid.build([0.0, 1.0], 32)
    u = DiscreteFunction(grid, rng.standard_normal(grid.node_count))
    worst = 0.0
    for _ in range(100):
        i, j = rng.integers(0, grid.node_count, 2)
        if i == j:
            continue
        x, y = grid.nodes[i], grid.nodes[j]
        worst = max(worst, abs(s_quotient(u, x, y, ctx.s) + s_quotient(u, y, x, ctx.s)))
    return _result("quotient_antisymmetry", worst <= 1e-14, -worst, 100)


def _check_linear_equivalence(ctx) -> CheckResult:
    from .young import make_power, scale_young

    s = ctx.s
    G = scale_young(make_power(2.0), 0.5)
    grid = Grid.build([0.0, 1.0], 24)
    params = OperatorParams(s=s)
    x = grid.nodes[:, 0]
    h = grid.h
    N = grid.node_count
    M = np.zeros((N, N))
    for i in range(N):
        diag = (x[i] ** (-2 * s) + (1.0 - x[i]) ** (-2 * s)) / (2 * s)
        for j in range(N):
            if i == j:
                continue
            k = abs(x[i] - x[j]) ** (-1 - 2 * s) * h
            M[i, j] = -k
            diag += k
        M[i, i] = diag
    rng = np.random.default_rng(ctx.seed + 6)
    u = DiscreteFunction(grid, rng.standard_normal(N))
    A = apply_operator(u, G, params)
    e1 = float(np.max(np.abs(A - M @ u.values)) / np.max(np.abs(A)))
    E = energy(u, G, params)
    q = h * u.values @ M @ u.values
    e2 = abs(E - q) / abs(q)
    g = energy_gradient(u, G, params)
    e3 = float(np.max(np.abs(g - 2 * h * M @ u.values)) / np.max(np.abs(g)))
    worst = max(e1, e2, e3)
    return _result("linear_matrix_equivalence", worst <= 1e-10, -worst, 3)


def _check_translation_reflection(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    params = OperatorParams(s=ctx.s)
    rng = np.random.default_rng(ctx.seed + 7)
    g1 = Grid.build([0.0, 1.0], 24)
    g2 = Grid.build([5.0, 6.0], 24)
    vals = rng.standard_normal(24)
    a1 = apply_operator(DiscreteFunction(g1, vals), yf, params)
    a2 = apply_operator(DiscreteFunction(g2, vals), yf, params)
    e1 = float(np.max(np.abs(a1 - a2)))
    a3 = apply_operator(DiscreteFunction(g1, vals[::-1].copy()), yf, params)
    e2 = float(np.max(np.abs(a3 - a1[::-1])))
    worst = max(e1, e2) / max(float(np.max(np.abs(a1))), 1e-300)
    return _result("translation_reflection_covariance", worst <= 1e-12, -worst, 2)


def _check_segment_convexity(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    params = OperatorParams(s=ctx.s)
    rng = np.random.default_rng(ctx.seed + 8)
    grid = Grid.build([0.0, 1.0], 24)
    u = rng.standard_normal(grid.node_count)
    v = rng.standard_normal(grid.node_count)
    thetas = np.linspace(-1.0, 1.0, 21)
    vals = np.array(
        [energy(DiscreteFunction(grid, u + t * v), yf, params) for t in thetas]
    )
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    worst = float(np.min(second))
    return _result("energy_segment_convexity", worst >= -1e-10, worst, 21)


def _check_pair_inequality(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    params = OperatorParams(s=ctx.s)
    rng = np.random.default_rng(ctx.seed + 9)
    grid = Grid.build([0.0, 1.0], 32)
    worst = np.inf
    for _ in range(5):
        v = DiscreteFunction(grid, rng.standard_normal(grid.node_count))
        w = v.with_values(np.maximum(v.values, 0.0))
        worst = min(worst, pair_test_margin(v, w, yf, params))
    return _result("truncation_pair_inequality", worst >= -1e-10, worst, 5)


def _check_refinement_consistency(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    params = OperatorParams(s=ctx.s)
    diffs = []
    prev = None
    for n in (32, 64, 128, 256):
        grid = Grid.build([0.0, 1.0], n)
        x = grid.nodes[:, 0]
        vals = np.where((x > 0.2) & (x < 0.8), np.exp(-0.05 / np.maximum((x - 0.2) * (0.8 - x), 1e-300)), 0.0)
        E = energy(DiscreteFunction(grid, vals), yf, params)
        if prev is not None:
            diffs.append(abs(E - prev))
        prev = E
    ok = diffs[0] > diffs[1] > diffs[2]
    return _result(
        "energy_refinement_consistency",
        ok,
        (diffs[1] - diffs[2]) / max(diffs[0], 1e-300),
        len(diffs),
        f"successive energy differences {diffs}",
    )


# ---------------------------------------------------------------------------
# solver checks (share one solve ladder)
# ---------------------------------------------------------------------------

# cells of the 1d grids the shared eigen solves run on, coarse to fine
_LADDER_SIZES = (24, 48, 96)


def _ladder(ctx):
    """The eigen solves shared by the solver checks, run once per context.

    A failed ladder is cached as its error, so every check that needs it
    fails with the same detail without solving again.  The cached error
    keeps no traceback, so no solver frame keeps its arrays alive, and each
    check raises a fresh copy of it: a raised error's traceback holds this
    frame and with it the context, so raising the cached error itself would
    tie the context into a reference cycle that outlives ``run_verify``.
    """
    if ctx._ladder is None:
        yf = ctx.families[ctx.primary]
        params = OperatorParams(s=ctx.s)
        opts = SolveOptions(tol=2e-6, max_iter=8000)
        try:
            ctx._ladder = [
                solve_eigen(Grid.build([0.0, 1.0], n), yf, params, ctx.mu, opts)
                for n in _LADDER_SIZES
            ]
        except ConvergenceError as exc:
            ctx._ladder = exc.with_traceback(None)
    if isinstance(ctx._ladder, ConvergenceError):
        raise copy.copy(ctx._ladder)
    return ctx._ladder


def _check_descent_monotone(ctx) -> CheckResult:
    hist = _ladder(ctx)[0].energy_history
    worst = float(np.min(hist[:-1] - hist[1:])) if len(hist) > 1 else 0.0
    return _result("descent_energy_monotone", worst >= -1e-12, worst, len(hist))


def _check_weak_identity(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    params = OperatorParams(s=ctx.s)
    res = _ladder(ctx)[0]
    v = res.u.values
    A2 = 2.0 * apply_operator(res.u, yf, params)
    gv = yf.slope_odd(v)
    lhs = float(np.dot(A2, v))
    rhs = res.lam * float(np.dot(gv, v))
    rel = abs(lhs - rhs) / abs(rhs)
    return _result("eigen_weak_identity", rel <= 1e-8, -rel, 1)


def _check_energy_bound(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    params = OperatorParams(s=ctx.s)
    worst = np.inf
    for res in _ladder(ctx):
        lhs = energy(res.u, yf, params)
        rhs = (yf.p_plus / yf.p_minus) * res.lam * domain_modular(res.u, yf)
        worst = min(worst, (rhs - lhs) / rhs)
    return _result("eigen_energy_bound", worst >= -1e-6, worst, len(_ladder(ctx)))


def _check_trace_monotone(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    res = _ladder(ctx)[-1]
    tr = degiorgi_trace(res.u, yf, 30)
    mono = float(np.min(tr.a[:-1] - tr.a[1:]))
    ok = mono >= -1e-15 and tr.inclusion_ok
    return _result("truncation_monotone_levels", ok, mono, 31)


def _check_domination(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    res = _ladder(ctx)[-1]
    tr = degiorgi_trace(res.u, yf, 30)
    margin = -tr.domination_margin if np.isfinite(tr.domination_margin) else 0.0
    return _result("level_domination_identity", tr.domination_margin <= 1e-12, margin, 31)


def _check_truncation_energy(ctx) -> CheckResult:
    yf = ctx.families[ctx.primary]
    params = OperatorParams(s=ctx.s)
    res = _ladder(ctx)[-1]
    worst = np.inf
    rows = truncation_energy_report(res, yf, params, 8)
    for _, lhs, rhs in rows:
        if rhs > 0:
            worst = min(worst, (rhs - lhs) / rhs)
    return _result("truncation_energy_bound", worst >= -1e-6, worst, len(rows))


def _check_sup_stability(ctx) -> CheckResult:
    sups = [sup_norm(r.u) for r in _ladder(ctx)]
    drift = max(
        abs(sups[i + 1] - sups[i]) / sups[i + 1] for i in range(len(sups) - 1)
    )
    return _result("supnorm_refinement_stability", drift < 0.05, 0.05 - drift, len(sups))


def _check_holder_stability(ctx) -> CheckResult:
    alpha = ctx.s / 2.0
    vals = [holder_seminorm(r.u, alpha) for r in _ladder(ctx)]
    drift = max(
        abs(vals[i + 1] - vals[i]) / vals[i + 1] for i in range(len(vals) - 1)
    )
    return _result("holder_refinement_stability", drift < 0.10, 0.10 - drift, len(vals))


# ---------------------------------------------------------------------------
# interface checks
# ---------------------------------------------------------------------------


def _check_config_roundtrip(ctx) -> CheckResult:
    import json

    from .cli import normalize_config

    cfg = {
        "command": "solve",
        "young": {"family": "piecewise_power", "p": 2.5, "q": 3.0},
        "s": ctx.s,
        "grid": {"bounds": [0.0, 1.0], "cells": 32},
        "mu": ctx.mu,
        "seed": ctx.seed,
    }
    first = normalize_config(cfg)
    second = normalize_config(json.loads(json.dumps(first, sort_keys=True)))
    ok = first == second
    return _result("config_roundtrip", ok, 0.0 if ok else -1.0, 1)


def _check_registry_complete(ctx) -> CheckResult:
    """Every registered name maps to a check function of this module, every
    check function is registered, and no name sits in two groups."""
    registered = [name for group in INVARIANT_REGISTRY.values() for name in group]
    written = {fn for key, fn in globals().items() if key.startswith("_check_")}
    missing = {name for name, fn in _CHECKS.items() if fn not in written}
    extra = {fn.__name__ for fn in written - set(_CHECKS.values())}
    dupes = len(registered) != len(_CHECKS)
    ok = not missing and not extra and not dupes
    return _result(
        "registry_complete",
        ok,
        0.0 if ok else -1.0,
        len(registered),
        f"missing={sorted(missing)} extra={sorted(extra)}",
    )


def _check_seeded_determinism(ctx) -> CheckResult:
    import json

    sub = ["young_inequality", "chebyshev_tail", "truncation_recursion_threshold"]
    r1 = run_verify(seed=ctx.seed, s=ctx.s, mu=ctx.mu, only=sub, families=ctx.families)
    r2 = run_verify(seed=ctx.seed, s=ctx.s, mu=ctx.mu, only=sub, families=ctx.families)
    ok = json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    return _result("seeded_report_determinism", ok, 0.0 if ok else -1.0, len(sub))


# every invariant check by group, in report order: the only list of checks
INVARIANT_REGISTRY: dict[str, dict[str, Callable[["_Context"], CheckResult]]] = {
    "young_calculus": {
        "young_wellformed": _check_young_wellformed,
        "young_inequality": _check_young_inequality,
        "young_equality_case": _check_young_equality,
        "scaling_sandwich": _check_scaling_sandwich,
        "inverse_scaling_sandwich": _check_inverse_sandwich,
        "sum_splitting": _check_sum_splitting,
        "double_conjugacy": _check_double_conjugacy,
        "critical_inverse_monotone": _check_crece,
        "superposition_norm_bound": _check_superposition_norm,
        "modular_controls_seminorm": _check_modular_seminorm,
        "chebyshev_tail": _check_chebyshev,
        "truncation_recursion_threshold": _check_recursion_threshold,
        "luxemburg_homogeneity": _check_luxemburg_homogeneity,
    },
    "frac_operator": {
        "quotient_antisymmetry": _check_antisymmetry,
        "linear_matrix_equivalence": _check_linear_equivalence,
        "translation_reflection_covariance": _check_translation_reflection,
        "energy_segment_convexity": _check_segment_convexity,
        "truncation_pair_inequality": _check_pair_inequality,
        "energy_refinement_consistency": _check_refinement_consistency,
    },
    "eigen_solver": {
        "descent_energy_monotone": _check_descent_monotone,
        "eigen_weak_identity": _check_weak_identity,
        "eigen_energy_bound": _check_energy_bound,
        "truncation_monotone_levels": _check_trace_monotone,
        "level_domination_identity": _check_domination,
        "truncation_energy_bound": _check_truncation_energy,
        "supnorm_refinement_stability": _check_sup_stability,
        "holder_refinement_stability": _check_holder_stability,
    },
    "cli_io": {
        "config_roundtrip": _check_config_roundtrip,
        "registry_complete": _check_registry_complete,
        "seeded_report_determinism": _check_seeded_determinism,
    },
}
_CHECKS = {name: fn for group in INVARIANT_REGISTRY.values() for name, fn in group.items()}


class _Context:
    def __init__(self, seed, s, mu, n, families, draws, primary):
        self.seed = seed
        self.s = s
        self.mu = mu
        self.families = families
        self.embedding = builtin_embedding_params()
        for name in families:
            self.embedding.setdefault(name, (s, n))
        self.draws = draws
        self.primary = primary
        self._ladder = None


def run_verify(
    seed: int = 0,
    s: float = 0.4,
    mu: float = 0.4,
    n: int = 2,
    *,
    draws: int = 10,
    primary: str = "piecewise2_3",
    only: Optional[Iterable[str]] = None,
    families: Optional[dict[str, YoungFunction]] = None,
) -> VerifyReport:
    """Run every registered invariant check (or the named subset).

    ``primary`` selects the family used by the operator and solver checks;
    embedding-dependent checks use the per-family (s, n) pairs from the
    roster, falling back to the configured (s, n), and are skipped for
    families with s * p_plus >= n.
    """
    ctx = _Context(
        seed,
        s,
        mu,
        n,
        families if families is not None else builtin_families(),
        draws,
        primary,
    )
    report = VerifyReport(seed=seed)
    for name in only if only is not None else _CHECKS:
        fn = _CHECKS[name]
        try:
            report.checks.append(fn(ctx))
        except EmbeddingConditionError as exc:
            report.checks.append(_skip(name, str(exc)))
        except Exception as exc:  # a crashed check is a failed check
            report.checks.append(
                CheckResult(name, "fail", -np.inf, 0, f"{type(exc).__name__}: {exc}")
            )
    return report
