"""fglap benchmark: one workload per invocation, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it in an fglap checkout.  The driver launches, one at a time, one
workload process that sets up and runs the workload's command for S seconds
(with --trace 1: first one command under the span tracer, then untraced ones
for the tracing overhead), and around it SETUP_SAMPLES - 1 processes that
only time the set-up.  Every output is checked against reference.json.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The full
record (environment, every sample, problems found) is written to
.perfbench_out/, and with --trace 1 the spans too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(env, *args) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(env, base) -> float:
    return run_child(env, *base, "--mode", "setup")["setup_s"]


def timing_summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples), "count": n}
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = statistics.quantiles(samples, n=1000, method="inclusive")[
                int(p * 10) - 1
            ]
            break
    return out


def code_identity() -> dict:
    """Git sha when the checkout is a repository, and a hash of the sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def declared_metrics(kind: str) -> dict:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src/fglap/__init__.py").is_file():
        return fail(f"no fglap sources under {ROOT / 'src'}: perfbench/ must sit in an fglap checkout")
    if args.seed < 0:
        return fail("--seed must be nonnegative (verify's seed field is)")
    if not args.seconds > 0:
        return fail("--seconds must be positive")
    name = args.workload
    env = child_env()
    base = ["--workload", name, "--seed", args.seed]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    mode = ["--mode", "trace", "--trace-out", OUT_DIR / f"{stem}.spans.json"] \
        if args.trace else ["--mode", "measure"]
    # set-up samples taken on both sides of the workload process, so the
    # median spans the run's window rather than a few seconds of it
    before = (SETUP_SAMPLES - 1) // 2
    try:
        setups = [setup_sample(env, base) for _ in range(before)]
        main_run = run_child(env, *base, *mode, "--seconds", args.seconds)
        setups += [main_run["setup_s"]]
        setups += [setup_sample(env, base) for _ in range(SETUP_SAMPLES - 1 - before)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    commands = main_run["commands"] + ([main_run["traced"]] if args.trace else [])
    attempted = sum(c["attempted"] for c in commands)
    failed = sum(c["failed"] for c in commands)
    correct = not any(c["regressed"] for c in commands)
    walls = [c["s"] for c in main_run["commands"]]
    wall = timing_summary(walls)

    print(f"workload {name}  seed {args.seed}  "
          + ("(seed passed to verify)" if name == "verify-default"
             else "(no random input: the seed changes nothing)"))
    print(f"  setup_s       {statistics.median(setups):.4f} s     median of {len(setups)} fresh processes")
    extra = "".join(f", {k} {v:.4f} s" for k, v in wall.items() if k.startswith("p"))
    print(f"  wall_s        {wall['median']:.4f} s     median of {wall['count']} commands{extra}"
          + ("" if len(wall) > 2 else " (too few samples for a higher percentile)"))
    print(f"  peak_rss_mib  {main_run['peak_rss_mib']:.1f} MiB")
    print(f"  fail_frac     {failed}/{attempted} = {failed / attempted:.4f} (1)  "
          + ("operations = verify checks" if name == "verify-default" else "operations = commands"))
    problems = sorted({p for c in commands for p in c["problems"]})
    for p in problems:
        print(f"  failed: {p}")
    if not correct:
        print("  REGRESSION: an output no longer matches the reference")

    if args.trace:
        t = main_run["trace"]
        traced = main_run["traced"]
        t["cli.artifact_bytes"] = traced["artifact_bytes"]
        t["cli.artifacts_identical"] = int(traced["identical"])
        for st in ("pass", "fail", "skip"):
            t[f"verify.checks.{st}"] = traced["checks"].get(st, 0)
        t["setup.import_s"] = main_run["import_s"]
        t["trace.overhead_s"] = traced["s"] - wall["median"]
        units = declared_metrics("per_layer")
    else:
        t = {
            "setup_s": statistics.median(setups),
            "wall_s": wall["median"],
            "peak_rss_mib": main_run["peak_rss_mib"],
            "ok_frac": (attempted - failed) / attempted,
        }
        units = declared_metrics("end_to_end")
    metrics = {k: {"value": t[k], "unit": u} for k, u in units.items()}
    if args.trace:
        for k, m in metrics.items():
            print(f"  {k:48s} {m['value']:.6g} {m['unit']}")

    record = {
        "workload": name,
        "config": workloads.raw_config(name, args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "code": code_identity(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: env[v] for v in THREAD_VARS + ("FGLAP_NUM_THREADS",) if v in env},
        "environment": main_run["environment"],
        "setup_samples": setups,
        "wall": wall,
        "run": {k: v for k, v in main_run.items() if k != "environment"},
        "metrics": metrics,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
