"""Traced runs repeat their counts exactly and show the layer contrast the
workloads were chosen for.

    python3 -m pytest perfbench/tests -q      (from the repository root)

Each workload is traced twice, each time in a fresh process; verify-default
takes about 20 s per run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".pairs", ".elems", ".iterations", ".repeat_calls",
                  ".failed", ".builds")
TABULATIONS = ("young.sobolev_conjugate.calls", "young.luxemburg_norm.calls",
               "young.inverse.elems")


def traced_counts(workload: str, seed: int) -> dict:
    out = run.run_child(run.child_env(), "--workload", workload, "--seed", seed,
                        "--mode", "trace", "--seconds", 0)
    counts = {k: v for k, v in out["trace"].items() if k.endswith(COUNT_SUFFIXES)}
    counts.update({f"verify.checks.{k}": v for k, v in out["traced"]["checks"].items()})
    counts["failed_operations"] = out["traced"]["failed"]
    counts["artifact_bytes"] = out["traced"]["artifact_bytes"]
    return counts


@pytest.fixture(scope="module")
def counts():
    return {w: (traced_counts(w, 7), traced_counts(w, 7)) for w in workloads.CONFIGS}


@pytest.mark.parametrize("workload", sorted(workloads.CONFIGS))
def test_counts_repeat_exactly(counts, workload):
    first, second = counts[workload]
    assert first == second


def test_layer_contrast(counts):
    """semilinear-1d bypasses the eigen solver; the two eigen workloads do no
    growth-function tabulation, so verify-default alone measures it."""
    c = {w: pair[0] for w, pair in counts.items()}
    assert c["semilinear-1d"]["solver.solve_eigen.calls"] == 0
    for w in ("degiorgi-1d", "solve-2d"):
        assert all(c[w][k] == 0 for k in TABULATIONS), w
    assert all(c["verify-default"][k] > 0 for k in TABULATIONS)
