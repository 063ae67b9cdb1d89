"""Command-line front end: config parsing, solves, tabulation, verification.

Commands (chosen by the ``command`` field of the JSON config):
  young       tabulate a growth function and its derived functions
  solve       constrained eigenproblem on a grid
  semilinear  autonomous right-hand-side problem
  degiorgi    solve, then run the truncation diagnostic
  verify      run every registered invariant check

Exit codes: 0 success, 2 malformed configuration (an unknown or wrong-typed
key, a non-finite number, a missing section, or a growth-function record
missing a parameter),
3 solver non-convergence, 4 failed verification checks.  For a fixed config,
seed and BLAS thread count all artifacts are byte-identical run to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .grids import Grid, refine
from .operator import OperatorParams, apply_operator, holder_seminorm
from .solver import (
    ConvergenceError,
    SolveOptions,
    check_recursive_bound,
    degiorgi_rescale,
    degiorgi_trace,
    solve_eigen,
    solve_semilinear,
    sup_norm,
)
from .young import (
    _finite_number,
    conjugate,
    embedding_composition,
    indicator_gauge,
    sobolev_conjugate,
    young_from_config,
)

__all__ = ["main", "normalize_config", "run_command", "ConfigError"]


class ConfigError(ValueError):
    """The run configuration has a bad key or violates a precondition."""


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _record(v) -> bool:
    return isinstance(v, dict) and isinstance(v.get("family"), str)


def _numbers(v) -> bool:
    return isinstance(v, list) and all(_finite_number(x) for x in v)


def _grid(v) -> bool:
    if not isinstance(v, dict):
        return False
    bounds, cells = v.get("bounds"), v.get("cells")
    return (
        _numbers(bounds) or isinstance(bounds, list) and all(_numbers(b) for b in bounds)
    ) and (
        _integer(cells) or isinstance(cells, list) and all(_integer(c) for c in cells)
    )


# the keys each command requires
_REQUIRED = {
    "young": ("young", "n"),
    "solve": ("young", "grid"),
    "semilinear": ("young", "grid", "semilinear"),
    "degiorgi": ("young", "grid"),
    "verify": (),
}

_RECORD = "an object with a string 'family'"

# every config key: what its JSON value must be, the check of that, and the
# default (None: the key stays absent unless the config gives it)
_KEYS = {
    "command": (
        f"one of {', '.join(_REQUIRED)}",
        lambda v: isinstance(v, str) and v in _REQUIRED,
        None,
    ),
    "young": (_RECORD, _record, None),
    "s": ("a finite number", _finite_number, 0.5),
    "n": ("the integer 1 or 2", lambda v: _integer(v) and 1 <= v <= 2, None),
    "grid": (
        "an object with 'bounds' a list of finite numbers or of such lists and "
        "'cells' an integer or a list of integers",
        _grid,
        None,
    ),
    "mu": ("a finite number", _finite_number, 1.0),
    "tol": ("a finite number", _finite_number, 1e-6),
    "max_iter": ("an integer >= 1", lambda v: _integer(v) and v >= 1, 20000),
    "degiorgi_depth": ("an integer >= 1", lambda v: _integer(v) and v >= 1, 30),
    "semilinear": (_RECORD, _record, None),
    "seed": ("an integer >= 0", lambda v: _integer(v) and v >= 0, 0),
    "points": ("an integer >= 2", lambda v: _integer(v) and v >= 2, 100),
    "out": ("a string", lambda v: isinstance(v, str), None),
}


def normalize_config(cfg: dict, overrides: dict | None = None) -> dict:
    """Check a raw config dict against ``_KEYS`` and ``_REQUIRED`` and fill
    defaults; returns a canonical dict whose serialize-parse round trip is
    the identity."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config is a JSON object, not {type(cfg).__name__}")
    merged = dict(cfg)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    out = {key: d for key, (_, _, d) in _KEYS.items() if d is not None}
    for key, value in merged.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        what, valid, _ = _KEYS[key]
        if not valid(value):
            raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
        out[key] = value
    if "command" not in out:
        raise ConfigError("config key 'command' is missing")
    for key in _REQUIRED[out["command"]]:
        if key not in out:
            raise ConfigError(f"command {out['command']!r} requires the key {key!r}")
    if not (0.0 < out["s"] < 1.0):
        raise ConfigError(f"smoothness order must lie in (0, 1), got s = {out['s']}")
    if not out["mu"] > 0:
        raise ConfigError(f"modular level mu must be positive, got {out['mu']}")
    return out


def _fmt(x) -> str:
    return repr(float(x))


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _solution_csv(u) -> str:
    header = ["x", "value"] if u.grid.dim == 1 else ["x", "y", "value"]
    rows = [list(pt) + [val] for pt, val in zip(u.grid.nodes, u.values)]
    return _csv(header, rows)


def _run_young(cfg) -> dict[str, str]:
    yf = young_from_config(cfg["young"])
    s, n = cfg["s"], cfg["n"]
    gstar = sobolev_conjugate(yf, s, n)
    comp = embedding_composition(yf, s, n, gstar)
    conj = conjugate(yf)
    ts = np.logspace(-3, 3, cfg["points"])
    G = yf(ts)
    K = indicator_gauge(yf, s, n, ts, gstar)
    columns = (ts, G, yf.g(ts), conj(ts), gstar(ts), comp(ts), K)
    table = _csv(["t", "G", "g", "Gtilde", "Gstar", "H", "K"], zip(*columns))
    two_col = _csv(["t", "G"], zip(ts, G))
    return {"young_table.csv": table, "young_function.csv": two_col}


def _solve_once(cfg, grid):
    yf = young_from_config(cfg["young"])
    params = OperatorParams(s=cfg["s"])
    opts = SolveOptions(tol=cfg["tol"], max_iter=cfg["max_iter"])
    return yf, solve_eigen(grid, yf, params, cfg["mu"], opts)


def _run_solve(cfg, refine_levels: int = 0):
    """Solve and write the eigen artifacts; returns (artifacts, yf, result)."""
    grid = Grid.build(cfg["grid"]["bounds"], cfg["grid"]["cells"])
    yf, res = _solve_once(cfg, grid)
    artifacts = {
        "eigen_result.json": _json(
            {
                "lambda": res.lam,
                "mu": res.mu,
                "residual": res.residual,
                "iterations": res.iterations,
            }
        ),
        "eigenfunction.csv": _solution_csv(res.u),
    }
    if refine_levels > 0:
        rows = []
        g, r = grid, res
        for _ in range(refine_levels + 1):
            rows.append(
                [
                    g.node_count,
                    g.h,
                    r.lam,
                    r.mu,
                    r.residual,
                    sup_norm(r.u),
                    holder_seminorm(r.u, cfg["s"] / 2.0),
                ]
            )
            g = refine(g)
            if len(rows) <= refine_levels:
                _, r = _solve_once(cfg, g)
        artifacts["refinement_table.csv"] = _csv(
            ["nodes", "h", "lambda", "mu", "residual", "sup_norm", "holder_half_s"],
            rows,
        )
    return artifacts, yf, res


def _run_semilinear(cfg) -> dict[str, str]:
    grid = Grid.build(cfg["grid"]["bounds"], cfg["grid"]["cells"])
    yf = young_from_config(cfg["young"])
    F = young_from_config(cfg["semilinear"])
    params = OperatorParams(s=cfg["s"])
    opts = SolveOptions(tol=cfg["tol"], max_iter=cfg["max_iter"])
    u = solve_semilinear(grid, yf, F, params, opts)
    A2 = 2.0 * apply_operator(u, yf, params)
    fv = F.slope_odd(u.values)
    rel = float(np.max(np.abs(A2 - fv)) / (np.max(np.abs(A2)) + np.max(np.abs(fv))))
    return {
        "semilinear_result.json": _json(
            {"relative_residual": rel, "sup_norm": sup_norm(u)}
        ),
        "solution.csv": _solution_csv(u),
    }


def _run_degiorgi(cfg) -> dict[str, str]:
    artifacts, yf, res = _run_solve(cfg)
    trace = degiorgi_trace(degiorgi_rescale(res.u), yf, cfg["degiorgi_depth"])
    fit = check_recursive_bound(trace)
    artifacts["trace.csv"] = _csv(
        ["k", "a_k"], [[float(k), a] for k, a in zip(trace.levels, trace.a)]
    )
    artifacts["fit_report.json"] = _json(
        {
            "c_bar": trace.c_bar,
            "c_tilde": trace.c_tilde,
            "delta": trace.delta,
            "epsilon0": trace.epsilon0,
            "inclusions_ok": trace.inclusion_ok,
            "domination_margin": trace.domination_margin
            if np.isfinite(trace.domination_margin)
            else None,
            "recursion_ok": fit.ok,
            "recursion_trivial": fit.trivial,
            "max_log_violation": fit.max_log_violation
            if np.isfinite(fit.max_log_violation)
            else None,
        }
    )
    return artifacts


def _run_verify(cfg) -> tuple[dict[str, str], bool]:
    from .verify import run_verify
    from .young import builtin_families

    families = builtin_families()
    primary = "piecewise2_3"
    if "young" in cfg:
        families = dict(families)
        families["config"] = young_from_config(cfg["young"])
        primary = "config"
    report = run_verify(
        seed=cfg["seed"],
        s=cfg["s"],
        mu=cfg["mu"],
        n=cfg.get("n", 2),
        primary=primary,
        families=families,
    )
    return {"verify_report.json": _json(report.to_dict())}, report.ok


def run_command(cfg: dict, refine_levels: int = 0) -> tuple[dict[str, str], int]:
    """Execute the configured command; returns (artifacts, exit_code)."""
    cmd = cfg["command"]
    if refine_levels < 0:
        raise ConfigError(f"--refine takes a count >= 0, got {refine_levels}")
    if refine_levels and cmd != "solve":
        raise ConfigError(f"--refine applies to the solve command only, not {cmd!r}")
    try:
        if cmd == "young":
            return _run_young(cfg), 0
        if cmd == "solve":
            return _run_solve(cfg, refine_levels)[0], 0
        if cmd == "semilinear":
            return _run_semilinear(cfg), 0
        if cmd == "degiorgi":
            return _run_degiorgi(cfg), 0
        artifacts, ok = _run_verify(cfg)
        return artifacts, 0 if ok else 4
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fglap",
        description="numerical laboratory for nonlocal g-Laplacian eigenproblems",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--refine",
        type=int,
        default=0,
        help="solve only: rerun the solve on this many successive grid refinements",
    )
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = normalize_config(raw, {"seed": args.seed, "out": args.out})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        artifacts, code = run_command(cfg, refine_levels=args.refine)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 3

    outdir = Path(cfg.get("out") or "fglap_out")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        (outdir / name).write_text(content)
    for name in sorted(artifacts):
        print(f"wrote {outdir / name}")
    if code == 4:
        print("verification failures detected", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
