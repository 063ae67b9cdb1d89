"""Command-line interface: schema validation, exit codes, artifact formats,
determinism, and the invariant registry."""

import gc
import json
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import fglap.cli
from fglap.cli import ConfigError, main, normalize_config, run_command
from fglap.solver import StagnationError
from fglap.verify import INVARIANT_REGISTRY, run_verify
from fglap.young import (
    conjugate,
    embedding_composition,
    indicator_gauge,
    sobolev_conjugate,
    young_from_config,
)
from conftest import fresh_process_env


def run_cli(tmp_path, cfg, *extra):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return (
        main(["--config", str(cfg_path), "--out", str(out), *extra]),
        out,
    )


def test_normalize_fills_defaults_and_round_trips():
    cfg = {
        "command": "solve",
        "young": {"family": "power", "p": 2},
        "s": 0.5,
        "grid": {"bounds": [0, 1], "cells": 16},
        "mu": 1.0,
    }
    first = normalize_config(cfg)
    again = normalize_config(json.loads(json.dumps(first)))
    assert first == again
    assert first["tol"] == 1e-6
    assert first["seed"] == 0


def test_schema_violations_raise_config_error():
    with pytest.raises(ConfigError):
        normalize_config({"command": "fly"})
    with pytest.raises(ConfigError):
        normalize_config({"command": "solve"})  # no young/grid
    with pytest.raises(ConfigError):
        normalize_config(
            {
                "command": "solve",
                "young": {"family": "power", "p": 2},
                "grid": {"bounds": [0, 1], "cells": 16},
                "s": 1.5,
            }
        )


_YOUNG_CFG = {
    "command": "young",
    "young": {"family": "power", "p": 2},
    "s": 0.5,
    "n": 2,
    "points": 5,
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_iter", 100.0),
        ("degiorgi_depth", 3.0),
        ("points", 10.0),
        ("seed", 1.0),
        ("grid", {"bounds": [0, 1], "cells": 16.0}),
    ],
)
def test_integer_keys_reject_integral_floats(tmp_path, capsys, key, value):
    cfg = dict(_YOUNG_CFG, **{key: value})
    with pytest.raises(ConfigError, match=repr(key)):
        normalize_config(cfg)
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "record, key",
    [
        ({"family": "power"}, "p"),
        ({"family": "power", "p": "2"}, "p"),
        ({"family": "piecewise_power", "p": 2}, "q"),
        ({"family": "sum"}, "parts"),
        ({"family": "scaled", "base": {"family": "power", "p": 2}}, "factor"),
        ({"family": "sum", "parts": [{"family": "power", "p": 2}], "coefficients": 2}, "coefficients"),
        ({"family": "sum", "parts": [{"family": "power", "p": 2}], "coefficients": ["2"]}, "coefficients"),
    ],
)
def test_growth_record_missing_or_non_number_parameter_exits_two(
    tmp_path, capsys, record, key
):
    cfg = normalize_config(dict(_YOUNG_CFG, young=record))
    with pytest.raises(ConfigError) as info:
        run_command(cfg)
    for name in (record["family"], key):
        assert repr(name) in str(info.value)
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        {"bounds": [0, 1], "cells": [[16]]},
        {"bounds": [{"a": 1}], "cells": 16},
        {"bounds": [0, 1], "cells": [16.5]},
    ],
    ids=["nested-cells", "record-bounds", "fractional-cells"],
)
def test_grid_entries_exit_two(tmp_path, capsys, grid):
    cfg = {"command": "solve", "young": {"family": "power", "p": 2}, "grid": grid}
    with pytest.raises(ConfigError, match="'grid'"):
        normalize_config(cfg)
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert "'grid'" in capsys.readouterr().err


_SOLVE_CFG = {
    "command": "solve",
    "young": {"family": "power", "p": 2},
    "grid": {"bounds": [0, 1], "cells": 8},
}
_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "cfg, key",
    [
        (dict(_SOLVE_CFG, tol=_INF), "tol"),
        (dict(_SOLVE_CFG, tol=_NAN), "tol"),
        (dict(_SOLVE_CFG, mu=_INF), "mu"),
        (dict(_SOLVE_CFG, grid={"bounds": [0, _INF], "cells": 8}), "grid"),
        (
            dict(
                _YOUNG_CFG,
                young={"family": "scaled", "base": {"family": "power", "p": 2}, "factor": _INF},
            ),
            "factor",
        ),
        (
            dict(
                _YOUNG_CFG,
                young={
                    "family": "sum",
                    "parts": [{"family": "power", "p": 2}],
                    "coefficients": [_INF],
                },
            ),
            "coefficients",
        ),
        (dict(_YOUNG_CFG, young={"family": "power", "p": _NAN}), "p"),
    ],
    ids=["tol-inf", "tol-nan", "mu-inf", "bounds-inf", "factor-inf", "coefficients-inf", "p-nan"],
)
def test_non_finite_numbers_exit_two(tmp_path, capsys, cfg, key):
    # json writes and reads the literals Infinity and NaN
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_stagnation_tol_is_unknown(tmp_path, capsys):
    cfg = dict(_SOLVE_CFG, stagnation_tol=5e-3)
    with pytest.raises(ConfigError, match="unknown config key 'stagnation_tol'"):
        normalize_config(cfg)
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert "unknown config key 'stagnation_tol'" in capsys.readouterr().err


def test_fast_is_unknown(tmp_path, capsys):
    # verify always runs its 24/48/96 ladder with 10 draws
    cfg = {"command": "verify", "fast": True}
    with pytest.raises(ConfigError, match="unknown config key 'fast'"):
        normalize_config(cfg)
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert "unknown config key 'fast'" in capsys.readouterr().err


def test_bad_smoothness_exit_code_and_message(tmp_path, capsys):
    cfg = {
        "command": "solve",
        "young": {"family": "power", "p": 2},
        "s": 1.5,
        "grid": {"bounds": [0, 1], "cells": 16},
    }
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert "smoothness order" in capsys.readouterr().err


def test_malformed_young_family_exit_two(tmp_path):
    cfg = {
        "command": "solve",
        "young": {"family": "power", "p": 0.5},
        "s": 0.5,
        "grid": {"bounds": [0, 1], "cells": 16},
    }
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2


def test_solve_artifacts_and_determinism(tmp_path):
    cfg = {
        "command": "solve",
        "young": {"family": "scaled", "base": {"family": "power", "p": 2}, "factor": 0.5},
        "s": 0.5,
        "grid": {"bounds": [0, 1], "cells": 24},
        "mu": 1.0,
        "tol": 1e-8,
    }
    code, out1 = run_cli(tmp_path, cfg)
    assert code == 0
    result = json.loads((out1 / "eigen_result.json").read_text())
    assert result["lambda"] > 0
    assert result["residual"] <= 1e-8
    lines = (out1 / "eigenfunction.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 25

    cfg_path2 = tmp_path / "again.json"
    cfg_path2.write_text(json.dumps(cfg))
    out2 = tmp_path / "out2"
    assert main(["--config", str(cfg_path2), "--out", str(out2)]) == 0
    for name in ("eigen_result.json", "eigenfunction.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "record, key",
    [
        # g would jump down at t = 1; the solve stalled at iteration 116
        ({"family": "piecewise_power", "p": 3, "q": 2}, "q"),
        # g dips left of t = 1 below p = (3 + sqrt(5))/2
        ({"family": "power_log", "p": 2}, "p"),
    ],
)
def test_nonconvex_growth_record_exits_two(tmp_path, capsys, record, key):
    code, _ = run_cli(tmp_path, dict(_SOLVE_CFG, young=record))
    assert code == 2
    assert repr(key) in capsys.readouterr().err


def test_refine_flag_emits_table(tmp_path):
    cfg = {
        "command": "solve",
        "young": {"family": "piecewise_power", "p": 2.5, "q": 3},
        "s": 0.4,
        "grid": {"bounds": [0, 1], "cells": 16},
        "mu": 0.4,
        "tol": 2e-6,
    }
    code, out = run_cli(tmp_path, cfg, "--refine", "1")
    assert code == 0
    lines = (out / "refinement_table.csv").read_text().splitlines()
    assert lines[0] == "nodes,h,lambda,mu,residual,sup_norm,holder_half_s"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "cfg, levels",
    [
        (_SOLVE_CFG, "-2"),
        (dict(_SOLVE_CFG, command="degiorgi"), "2"),
        (dict(_SOLVE_CFG, command="semilinear", semilinear={"family": "power", "p": 2.2}), "2"),
        (_YOUNG_CFG, "2"),
        ({"command": "verify"}, "2"),
    ],
    ids=["negative", "degiorgi", "semilinear", "young", "verify"],
)
def test_refine_misuse_exits_two(tmp_path, capsys, cfg, levels):
    # a negative count, or a ladder asked of a command that runs none
    code, out = run_cli(tmp_path, cfg, "--refine", levels)
    assert code == 2
    assert "--refine" in capsys.readouterr().err
    assert not out.exists()


def test_young_table_format(tmp_path):
    cfg = {
        "command": "young",
        "young": {"family": "power", "p": 2},
        "s": 0.5,
        "n": 2,
        "points": 40,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    lines = (out / "young_table.csv").read_text().splitlines()
    assert lines[0] == "t,G,g,Gtilde,Gstar,H,K"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    t, G, g, Gt, Gs, H, K = data.T
    assert np.all(np.diff(t) > 0)
    for col in (G, g, Gt, Gs, H):
        assert np.all(np.diff(col) > 0)
    assert np.allclose(Gt, t**2 / 4.0, rtol=1e-8)
    assert np.allclose(K, 16.0 * np.sqrt(t), rtol=1e-2)
    two = (out / "young_function.csv").read_text().splitlines()
    assert two[0] == "t,G"


def _per_point_young_tables(cfg):
    """The young command's two files with every function evaluated one
    point at a time, each value written as repr(float)."""
    yf = young_from_config(cfg["young"])
    s, n = cfg["s"], cfg["n"]
    gstar = sobolev_conjugate(yf, s, n)
    comp = embedding_composition(yf, gstar)
    conj = conjugate(yf)
    ts = np.logspace(-3, 3, cfg["points"])
    rows = [
        [t, yf(t), yf.g(t), conj(t), gstar(t), comp(t), indicator_gauge(yf, t, gstar)]
        for t in ts
    ]

    def text(header, rows):
        lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    return {
        "young_table.csv": text("t,G,g,Gtilde,Gstar,H,K", rows),
        "young_function.csv": text("t,G", [[t, yf(t)] for t in ts]),
    }


_POWER2 = {"family": "power", "p": 2}
_SUMMIX = {"family": "sum", "parts": [_POWER2, {"family": "power", "p": 3}]}


@pytest.mark.parametrize(
    "record",
    [
        _POWER2,
        {"family": "piecewise_power", "p": 2, "q": 3},
        {"family": "power_log", "p": 3},
        {"family": "normalized", "base": _SUMMIX},
        {"family": "max", "parts": [_POWER2, {"family": "power", "p": 2.5}]},
    ],
    ids=["power2", "piecewise2_3", "powerlog3", "summix", "max"],
)
def test_young_tables_are_bitwise_the_per_point_loop(record):
    cfg = normalize_config(dict(_YOUNG_CFG, young=record, s=0.4, points=60))
    artifacts, code = run_command(cfg)
    assert code == 0
    assert artifacts == _per_point_young_tables(cfg)


def test_degiorgi_artifacts(tmp_path, monkeypatch):
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return solve_eigen(*args, **kwargs)

    solve_eigen = fglap.cli.solve_eigen
    monkeypatch.setattr(fglap.cli, "solve_eigen", counted)
    cfg = {
        "command": "degiorgi",
        "young": {"family": "piecewise_power", "p": 2.5, "q": 3},
        "s": 0.4,
        "grid": {"bounds": [0, 1], "cells": 32},
        "mu": 0.4,
        "tol": 2e-6,
        "degiorgi_depth": 12,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert len(solves) == 1  # the trace reuses the eigenpair it writes
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,a_k"
    assert len(lines) == 14
    a = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.all(np.diff(a) <= 1e-15)
    fit = json.loads((out / "fit_report.json").read_text())
    assert fit["inclusions_ok"] is True
    assert fit["recursion_ok"] is True


def test_semilinear_command(tmp_path):
    cfg = {
        "command": "semilinear",
        "young": {"family": "power", "p": 2},
        "semilinear": {"family": "power", "p": 2.2},
        "s": 0.4,
        "grid": {"bounds": [0, 1], "cells": 32},
        "tol": 1e-6,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    result = json.loads((out / "semilinear_result.json").read_text())
    assert result["relative_residual"] <= 1e-6
    assert result["sup_norm"] > 1.0


def test_solution_csv_round_trip(tmp_path):
    from fglap import Grid

    cfg = {
        "command": "solve",
        "young": {"family": "power", "p": 2},
        "s": 0.5,
        "grid": {"bounds": [0, 1], "cells": 16},
        "mu": 1.0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    text = (out / "eigenfunction.csv").read_text()
    assert text.splitlines()[0] == "x,value"
    data = np.loadtxt(out / "eigenfunction.csv", delimiter=",", skiprows=1)
    grid = Grid.build([0.0, 1.0], 16)
    assert data.shape == (16, 2)
    # coordinates are written with repr, so they parse back to the lattice bits
    assert np.array_equal(data[:, 0], grid.nodes[:, 0])
    assert np.all(data[:, 1] > 0)


def test_console_entry_point(tmp_path):
    cfg = {
        "command": "young",
        "young": {"family": "power", "p": 2},
        "s": 0.5,
        "n": 2,
        "points": 5,
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "fglap", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def _third_party_modules(module):
    """Top-level names outside the standard library that a fresh Python
    holds after importing module."""
    code = (
        f"import sys, {module}; "
        "print(*{m.split('.')[0] for m in sys.modules} - set(sys.stdlib_module_names))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=fresh_process_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_imports_nothing_beyond_numpy():
    # numpy is the only runtime dependency: scipy and the other test
    # dependencies stay out of every command, and so does anything else
    extra = _third_party_modules("fglap.cli") - _third_party_modules("numpy")
    assert extra == {"fglap"}


# ---------------------------------------------------------------------------
# verification registry
# ---------------------------------------------------------------------------


def test_registry_names_unique_and_counted():
    names = [n for group in INVARIANT_REGISTRY.values() for n in group]
    assert len(names) == len(set(names))
    assert len(names) == 30


def test_registry_covers_every_module():
    assert set(INVARIANT_REGISTRY) == {
        "young_calculus",
        "frac_operator",
        "eigen_solver",
        "cli_io",
    }


def test_verify_subset_seeded_determinism():
    sub = ["young_inequality", "chebyshev_tail", "truncation_recursion_threshold"]
    r1 = run_verify(seed=11, only=sub)
    r2 = run_verify(seed=11, only=sub)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
        r2.to_dict(), sort_keys=True
    )
    assert all(c.status == "pass" for c in r1.checks)


def test_verify_registry_check_passes():
    rep = run_verify(seed=0, only=["registry_complete"])
    assert rep.checks[0].status == "pass"


def test_full_verify_no_failures():
    rep = run_verify(seed=7, draws=5)
    failed = [c.name for c in rep.failed]
    assert rep.ok, failed
    names = {c.name for c in rep.checks}
    assert names == {n for group in INVARIANT_REGISTRY.values() for n in group}


def test_verify_skips_when_embedding_condition_fails(tmp_path):
    # a configured family at the embedding threshold is skipped, not failed,
    # and the run still exits successfully
    cfg = {
        "command": "verify",
        "young": {"family": "power", "p": 2},
        "s": 0.5,
        "n": 1,
        "mu": 1.0,
        "seed": 3,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["ok"] is True


def _failing_solve(calls):
    def solve(*args, **kwargs):
        calls.append(args)
        raise StagnationError("line search collapsed at iteration 7 (best residual 1.000e-02)")

    return solve


def test_failed_ladder_is_solved_once(monkeypatch):
    calls = []
    monkeypatch.setattr("fglap.verify.solve_eigen", _failing_solve(calls))
    rep = run_verify(seed=0, only=INVARIANT_REGISTRY["eigen_solver"])
    assert len(calls) == 1
    assert [c.status for c in rep.checks] == ["fail"] * 8
    assert {c.detail for c in rep.checks} == {
        "StagnationError: line search collapsed at iteration 7 (best residual 1.000e-02)"
    }


def test_failed_ladder_leaves_no_reference_cycle(monkeypatch):
    # every check that reads a failed ladder raises its cached error; the
    # context must die with run_verify even when no cyclic collection runs
    monkeypatch.setattr("fglap.verify.solve_eigen", _failing_solve([]))
    made = []

    class Recording(fglap.verify._Context):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr("fglap.verify._Context", Recording)
    gc.collect()
    gc.disable()
    try:
        rep = run_verify(seed=0, only=INVARIANT_REGISTRY["eigen_solver"])
        assert len(made) == 1
        assert made[0]() is None
    finally:
        gc.enable()
    assert [c.status for c in rep.checks] == ["fail"] * 8


def test_superposition_check_peak_memory():
    # the check builds each family's critical conjugate and composition
    # itself and drops them before the next family, and the tables are
    # built in blocks.  Peaks measured under tracemalloc: 3.6 MiB; 10.3 MiB
    # with every family's tables kept for the whole run, 10.7 MiB with
    # unblocked builds, 21.6 MiB with both.  Since the composition takes
    # every sigma knot of the conjugate, the peak reads 5.3 MiB
    tracemalloc.start()
    try:
        rep = run_verify(seed=0, only=["superposition_norm_bound"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [c.status for c in rep.checks] == ["pass"]
    assert peak < 6 * 2**20, peak / 2**20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_margins_carry_no_negative_zero(monkeypatch, families, seed):
    # exact-zero margins are canonical, whatever the reduction order gives;
    # the solve ladder is stubbed out, it has no zero margins to check, and
    # the primary family alone keeps the growth-function checks quick
    monkeypatch.setattr("fglap.verify.solve_eigen", _failing_solve([]))
    primary = {"piecewise2_3": families["piecewise2_3"]}
    rep = run_verify(seed=seed, s=0.5, mu=1.0, draws=1, families=primary)
    assert len(rep.checks) == 30
    zeros = [c.name for c in rep.checks if c.margin == 0.0]
    assert "truncation_pair_inequality" in zeros
    assert all(np.copysign(1.0, c.margin) > 0 for c in rep.checks if c.margin == 0.0)


def test_cli_import_builds_nothing():
    # importing the CLI is all a command's set-up does before its config is
    # read: it loads no verify suite and builds no Ghat table or kernel
    code = (
        "import sys, fglap.cli; from fglap import operator, young; "
        "print('fglap.verify' in sys.modules, len(young._HATS), len(operator._KERNELS))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=fresh_process_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["False", "0", "0"]
