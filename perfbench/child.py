"""One workload process: set-up, then timed commands, optionally one traced.

Started by run.py with the thread variables already set, so numpy's
thread pools start single-threaded.  Set-up is timed inside the process,
from before ``import fglap.cli`` to the end of ``prepare``.  Prints one JSON
line on stdout.

Modes:
  setup    time the set-up only
  measure  set up, then run the command for --seconds (at least once)
  trace    set up and run one command under the tracer, then run
           untraced commands for --seconds (none if 0), for the
           tracing overhead
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

KERNEL_METRICS = ("operator.kernel_mib", "operator.get_kernel.builds", "operator.kernel_build_s")


def prepare(name: str, seed: int) -> dict:
    """The set-up after ``import fglap.cli``: config normalisation, grid and
    growth function, and the lazy builds the first operation would otherwise
    pay (kernel and Ghat table, via one ``energy`` call).  Returns the
    normalised config."""
    from fglap.cli import normalize_config

    cfg = normalize_config(workloads.raw_config(name, seed))
    if "grid" in cfg:
        import numpy as np

        from fglap import DiscreteFunction, Grid, OperatorParams, energy, young_from_config

        grid = Grid.build(cfg["grid"]["bounds"], cfg["grid"]["cells"])
        yf = young_from_config(cfg["young"])
        energy(DiscreteFunction(grid, np.ones(grid.node_count)), yf, OperatorParams(s=cfg["s"]))
    return cfg


def run_once(name: str, cfg: dict, ref: dict) -> dict:
    """One timed ``run_command`` and the check of its outputs."""
    from fglap.cli import run_command

    artifacts, code, error = None, None, None
    start = time.perf_counter()
    try:
        artifacts, code = run_command(cfg)
    except Exception as exc:  # any raise is a failed operation, reported
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    out = workloads.check(name, cfg, artifacts, code, error, ref)
    report = {}
    if artifacts and "verify_report.json" in artifacts:
        checks = json.loads(artifacts["verify_report.json"])["checks"]
        report = {st: sum(c["status"] == st for c in checks) for st in ("pass", "fail", "skip")}
    return {
        "s": seconds,
        "attempted": out.attempted,
        "failed": out.failed,
        "regressed": out.regressed,
        "identical": out.identical,
        "artifact_bytes": out.artifact_bytes,
        "problems": out.problems,
        "checks": report,
    }


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_config": blas,
    }


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    clock_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    name = args.workload

    import fglap.cli  # noqa: F401

    import_s = time.perf_counter() - clock_start
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_operation()
    cfg = prepare(name, args.seed)
    setup_s = time.perf_counter() - clock_start
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ref = workloads.load_reference()[name]
    commands, traced = [], None
    if tracer is not None:
        at_setup = tracer.metrics()
        tracer.begin_operation()
        traced = run_once(name, cfg, ref)
        tracer.uninstall()
        # per-command figures, except the kernel figures, which include the
        # builds the set-up paid for
        result["trace"] = {
            k: v if k in KERNEL_METRICS else v - at_setup[k]
            for k, v in tracer.metrics().items()
        }
    # at least one command; stop before one more would likely overrun
    window = time.perf_counter()
    rss = None
    while args.seconds > 0:
        commands.append(run_once(name, cfg, ref))
        if rss is None:
            # through the first command only: every later command adds to
            # module caches, so a faster program would otherwise show more
            rss = peak_rss_mib()
        elapsed = time.perf_counter() - window
        typical = sorted(c["s"] for c in commands)[len(commands) // 2]
        if elapsed + typical > args.seconds:
            break
    result.update(
        commands=commands,
        traced=traced,
        peak_rss_mib=rss,
        environment=environment(),
    )
    if tracer is not None and args.trace_out:
        Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
