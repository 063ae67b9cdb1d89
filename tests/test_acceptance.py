"""Acceptance criteria, one test per criterion.

Each test pins the tolerances stated for the criterion it implements, prints
one PASS line with the worst observed margin, and enforces the stated
runtime budget.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from fglap import (
    DiscreteFunction,
    Grid,
    OperatorParams,
    SolveOptions,
    WeightedSamples,
    apply_operator,
    conjugate,
    degiorgi_trace,
    energy,
    energy_gradient,
    gagliardo_seminorm,
    holder_seminorm,
    indicator_gauge,
    inverse,
    iterate_recursion,
    luxemburg_norm,
    make_power,
    modular,
    pair_test_margin,
    scale_young,
    sequence_threshold,
    solve_eigen,
    solve_semilinear,
    sup_norm,
    truncation_energy_report,
    chebyshev_bound,
)
from conftest import kink_safe
from test_operator import dense_linear_matrix_1d, linear_family
from test_solver import bump_profile, reference_linear_operator


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: "
                f"{self.elapsed:.1f}s >= {self.seconds}s"
            )
        return False


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_acceptance_young_calculus_suite(families):
    with Budget("young-calculus suite", 10.0) as budget:
        ts = np.logspace(-3, 3, 60)
        closed_worst = 0.0  # closed-form paths, tolerance 1e-8
        numeric_worst = 0.0  # root-finding / quadrature backed, tolerance 1e-6
        for name, yf in families.items():
            # two-sided argument-scaling sandwich
            A, T = np.meshgrid(ts, ts)
            got = np.asarray(yf(A * T))
            base = np.asarray(yf(T))
            lo = base * np.minimum(A**yf.p_minus, A**yf.p_plus)
            hi = base * np.maximum(A**yf.p_minus, A**yf.p_plus)
            closed_worst = max(
                closed_worst,
                float(np.max((lo - got) / hi)),
                float(np.max((got - hi) / hi)),
            )
            # the same sandwich for the inverse with reciprocal exponents
            gotI = np.asarray(inverse(yf, (A * T).ravel())).reshape(A.shape)
            baseI = np.asarray(inverse(yf, T.ravel())).reshape(T.shape)
            loI = baseI * np.minimum(A ** (1 / yf.p_minus), A ** (1 / yf.p_plus))
            hiI = baseI * np.maximum(A ** (1 / yf.p_minus), A ** (1 / yf.p_plus))
            numeric_worst = max(
                numeric_worst,
                float(np.max((loI - gotI) / hiI)),
                float(np.max((gotI - hiI) / hiI)),
            )
            # doubling and sum splitting
            doubled = yf.doubling_constant * np.asarray(yf(ts))
            closed_worst = max(
                closed_worst, float(np.max((np.asarray(yf(2 * ts)) - doubled) / doubled))
            )
            splits = np.asarray(yf(A + T)) - 0.5 * yf.doubling_constant * (
                np.asarray(yf(A)) + np.asarray(yf(T))
            )
            closed_worst = max(
                closed_worst,
                float(np.max(splits / (0.5 * yf.doubling_constant * (np.asarray(yf(A)) + np.asarray(yf(T)))))),
            )
            # conjugation: pairing inequality and double conjugacy
            C = conjugate(yf)
            lhs = A * T
            rhs = np.asarray(yf(A)) + np.asarray(C(T))
            numeric_worst = max(numeric_worst, float(np.max((lhs - rhs) / rhs)))
            back = conjugate(C)
            ref = np.asarray(yf(ts))
            numeric_worst = max(
                numeric_worst, float(np.max(np.abs(np.asarray(back(ts)) - ref) / ref))
            )
        # monotone growth of the inverse against the singular weight
        from fglap import builtin_embedding_params

        emb = builtin_embedding_params()
        for name, yf in families.items():
            s, n = emb[name]
            taus = np.logspace(-3, 3, 1500)
            vals = np.asarray(inverse(yf, taus)) * taus ** (-s / n)
            numeric_worst = max(
                numeric_worst, float(np.max(-np.diff(vals) / np.abs(vals[:-1])))
            )
        assert closed_worst <= 1e-8, closed_worst
        assert numeric_worst <= 1e-6, numeric_worst
    report(
        "young-calculus suite",
        f"closed-form violation {closed_worst:.2e} <= 1e-8, "
        f"numeric-path violation {numeric_worst:.2e} <= 1e-6, "
        f"{budget.seconds:.0f}s budget",
    )


def test_acceptance_indicator_gauge(families, embedding, gstars):
    with Budget("indicator gauge", 30.0):
        # pure square at s = 1/2 in the plane: gauge equals 16 sqrt(t)
        ts = np.logspace(-4, 4, 400)
        K = indicator_gauge(families["power2"], 0.5, 2, ts, gstars["power2"])
        worst_power = float(np.max(np.abs(K / (16.0 * np.sqrt(ts)) - 1.0)))
        assert worst_power < 0.01
        # kinked and logarithmic families: one fitted constant on the coarse
        # grid bounds the gauge on a finer grid across the whole range
        fits = {}
        for name in ("powerlog3", "piecewise2_3"):
            yf = families[name]
            s, n = embedding[name]
            q = 0.95 * yf.p_minus
            coarse = np.logspace(-6, 6, 400)
            C = float(
                np.max(
                    indicator_gauge(yf, s, n, coarse, gstars[name])
                    / np.maximum(coarse, coarse ** (s * q / n))
                )
            )
            fine = np.logspace(-6, 6, 1601)
            vals = indicator_gauge(yf, s, n, fine, gstars[name])
            assert np.all(vals <= 1.05 * C * np.maximum(fine, fine ** (s * q / n))), name
            fits[name] = C
    report(
        "indicator gauge",
        f"power-case constancy off by {worst_power:.2e} < 1e-2; fitted "
        f"envelopes {fits}",
    )


def test_acceptance_norm_and_tail_bounds(families, embedding, gstars, compositions):
    with Budget("norm and tail bounds", 60.0):
        rng = np.random.default_rng(2027)
        nodes = 1000
        w = np.full(nodes, 1.0 / nodes)
        grid = Grid.build([0.0, 1.0], nodes)
        params = OperatorParams(s=0.4)
        draws = 200
        violations = 0
        checked = 0
        for name, yf in families.items():
            gstar, comp = gstars[name], compositions[name]
            spm = 1.0 / yf.p_minus
            for i in range(draws):
                u = rng.lognormal(0.0, 1.0, nodes) * rng.choice([-1.0, 1.0], nodes)
                # superposition norm against powers of the critical norm
                lhs = luxemburg_norm(
                    comp, WeightedSamples(np.asarray(yf(np.abs(u))), w)
                )
                nrm = luxemburg_norm(gstar, WeightedSamples(u, w))
                if lhs > max(nrm**yf.p_plus, nrm**yf.p_minus) * (1 + 1e-6):
                    violations += 1
                # tail bound at a random threshold
                t = float(rng.uniform(0.05, 3.0))
                measure, bound = chebyshev_bound(
                    yf, WeightedSamples(np.abs(u), w), t
                )
                if measure > bound * (1 + 1e-12):
                    violations += 1
                # modular level controls the seminorm once it exceeds one:
                # feasibility of the candidate scale certifies the bound
                if i < 40:
                    udf = DiscreteFunction(grid, u)
                    M = energy(udf, yf, params)
                    scale = 1.0
                    while M < 1.0:
                        scale *= 2.0
                        M = energy(udf.scaled(scale), yf, params)
                    cand = M**spm
                    if energy(udf.scaled(scale / cand), yf, params) > 1.0 + 1e-9:
                        violations += 1
                checked += 1
        assert violations == 0
        # the bisected seminorm agrees with the feasibility route on a sample
        for name, yf in families.items():
            u = DiscreteFunction(grid, rng.standard_normal(nodes))
            M = energy(u, yf, params)
            scale = 1.0
            while M < 1.0:
                scale *= 2.0
                M = energy(u.scaled(scale), yf, params)
            sem = gagliardo_seminorm(u.scaled(scale), yf, params)
            assert sem <= M ** (1.0 / yf.p_minus) * (1 + 1e-9), name
    report(
        "norm and tail bounds",
        f"{checked} random draws across {len(families)} families, 0 violations",
    )


def test_acceptance_recursion_threshold():
    with Budget("recursion threshold", 1.0):
        rng = np.random.default_rng(3)
        worst_tail = 0.0
        for _ in range(50):
            c1 = float(rng.uniform(1.0, 10.0))
            c2 = float(rng.uniform(1.0, 10.0))
            delta = float(rng.uniform(0.1, 0.9))
            a0 = sequence_threshold(c1, c2, delta)
            seq = iterate_recursion(c1, c2, delta, a0, 100)
            worst_tail = max(worst_tail, float(seq[-1]))
            assert seq[-1] < 1e-12
    report("recursion threshold", f"50 random triples, worst a_100 = {worst_tail:.2e}")


def test_acceptance_linear_oracle():
    with Budget("linear oracle", 30.0):
        s = 0.5
        G = linear_family()
        grid = Grid.build([0.0, 1.0], 64)
        params = OperatorParams(s=s)
        M = dense_linear_matrix_1d(grid, s)
        # three-way agreement of operator, energy and gradient
        rng = np.random.default_rng(5)
        u = DiscreteFunction(grid, rng.standard_normal(64))
        A = apply_operator(u, G, params)
        three_way = max(
            float(np.max(np.abs(A - M @ u.values)) / np.max(np.abs(A))),
            abs(energy(u, G, params) - grid.h * u.values @ M @ u.values)
            / abs(grid.h * u.values @ M @ u.values),
            float(
                np.max(np.abs(energy_gradient(u, G, params) - 2 * grid.h * M @ u.values))
                / np.max(np.abs(energy_gradient(u, G, params)))
            ),
        )
        assert three_way <= 1e-10
        # smallest eigenpair against the dense symmetric solve
        evals, evecs = np.linalg.eigh(2.0 * M)
        lam_ref = evals[0]
        v_ref = evecs[:, 0]
        if v_ref.sum() < 0:
            v_ref = -v_ref
        res = solve_eigen(grid, G, params, 1.0, SolveOptions(tol=1e-9, max_iter=40000))
        lam_err = abs(res.lam - lam_ref) / lam_ref
        vec_err = float(
            np.max(
                np.abs(
                    res.u.values / np.max(np.abs(res.u.values))
                    - v_ref / np.max(np.abs(v_ref))
                )
            )
        )
        assert lam_err <= 1e-6 and vec_err <= 1e-6
    report(
        "linear oracle",
        f"eigenvalue error {lam_err:.2e}, eigenvector error {vec_err:.2e}, "
        f"three-way agreement {three_way:.2e} <= 1e-10",
    )


def test_acceptance_gradient_correctness(families):
    with Budget("gradient correctness", 10.0):
        grid = Grid.build([0.0, 1.0], 32)
        params = OperatorParams(s=0.5)
        rng = np.random.default_rng(0)
        base = rng.standard_normal(32)
        eps = 1e-6 * (1 + np.max(np.abs(base)))
        worst = 0.0
        for name, yf in families.items():
            vals = kink_safe(base, np.logspace(-2, 2, 9), eps=10 * eps)
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
            rel = float(np.max(np.abs(grad - fd) / (np.abs(fd) + 1e-300)))
            worst = max(worst, rel)
            assert rel < 1e-5, (name, rel)
    report("gradient correctness", f"worst per-node relative error {worst:.2e} < 1e-5")


def test_acceptance_boundedness_study(families, eigen_ladder):
    # eigenfunctions of the kinked family on a refinement ladder: stable
    # sup-norms, vanishing truncation masses, and the pointwise and energy
    # inequalities at every truncation level
    with Budget("boundedness study", 300.0):
        yf = families["piecewise2_3"]
        params = OperatorParams(s=0.4)
        sups = [sup_norm(eigen_ladder[n].u) for n in (64, 128, 256)]
        drift = max(abs(b - a) / b for a, b in zip(sups, sups[1:]))
        assert drift < 0.05
        res = eigen_ladder[256]
        tr = degiorgi_trace(res.u, yf, 30)
        assert np.all(np.diff(tr.a) <= 1e-15)
        assert tr.a[30] < 1e-8
        assert tr.inclusion_ok
        assert tr.domination_margin <= 1e-12
        worst_pair = np.inf
        worst_energy = np.inf
        rows = truncation_energy_report(res, yf, params, 30)
        for k, lhs, rhs in rows:
            if rhs > 0:
                worst_energy = min(worst_energy, (rhs - lhs) / rhs)
            else:
                assert lhs == 0.0
            level = 1.0 - 2.0 ** (-(k + 1))
            w = res.u.with_values(np.maximum(res.u.values - level, 0.0))
            worst_pair = min(worst_pair, pair_test_margin(res.u, w, yf, params))
        assert worst_pair >= -1e-10
        assert worst_energy >= -1e-6
    report(
        "boundedness study",
        f"sup drift {drift:.3%} < 5%, a_30 = {tr.a[30]:.1e} < 1e-8, "
        f"pointwise margin {worst_pair:.2e}, energy-bound margin {worst_energy:.2e}",
    )


def test_acceptance_regularity_study(eigen_ladder):
    with Budget("regularity study", 300.0):
        alpha = 0.4 / 2.0
        vals = [holder_seminorm(eigen_ladder[n].u, alpha) for n in (64, 128, 256)]
        drift = max(abs(b - a) / b for a, b in zip(vals, vals[1:]))
        assert drift < 0.10
    report("regularity study", f"Hoelder seminorm drift {drift:.3%} < 10%")


def test_acceptance_semilinear_study():
    with Budget("semilinear study", 300.0):
        # autonomous right-hand side below the critical growth
        G = make_power(2.0)
        F = make_power(2.2)
        grid = Grid.build([0.0, 1.0], 48)
        params = OperatorParams(s=0.4)
        u = solve_semilinear(
            grid, G, F, params,
            SolveOptions(tol=1e-6, max_iter=40000),
        )
        A2 = 2.0 * apply_operator(u, G, params)
        fv = F.slope_odd(u.values)
        rel = float(
            np.max(np.abs(A2 - fv)) / (np.max(np.abs(A2)) + np.max(np.abs(fv)))
        )
        assert rel <= 1e-6
        assert sup_norm(u) > 1.0
        # manufactured solution via the quadrature reference operator
        s = 0.4
        Glin = linear_family()
        errs = []
        for n in (16, 32, 64):
            g = Grid.build([0.0, 1.0], n)
            x = g.nodes[:, 0]
            src = np.array([2.0 * reference_linear_operator(xx, s) for xx in x])
            uh = solve_semilinear(
                g, Glin, None, OperatorParams(s=s),
                SolveOptions(tol=1e-8, max_iter=40000), source=src,
            )
            errs.append(float(np.max(np.abs(uh.values - bump_profile(x)))))
        assert errs[0] > errs[1] > errs[2]
    report(
        "semilinear study",
        f"autonomous relative residual {rel:.1e} <= 1e-6, manufactured errors "
        f"{[f'{e:.2e}' for e in errs]} strictly decreasing",
    )
