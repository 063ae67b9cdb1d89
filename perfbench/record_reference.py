"""Record reference.json: the outputs every later run is checked against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run once at the commit whose outputs are the reference.  For the solve
workloads it keeps lambda or the sup norm and a digest of every artifact.
For verify-default it runs two seeds and keeps each check's status (they
must agree) and a digest of every report entry whose text is the same at
both seeds.
"""

from __future__ import annotations

import json
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import workloads  # noqa: E402
from fglap.cli import normalize_config, run_command  # noqa: E402


def run(name: str, seed: int) -> dict:
    artifacts, _ = run_command(normalize_config(workloads.raw_config(name, seed)))
    return artifacts


def main() -> int:
    ref = {}
    for name in ("degiorgi-1d", "solve-2d", "semilinear-1d"):
        artifacts = run(name, 0)
        entry = {"artifacts": {k: workloads.digest(v) for k, v in artifacts.items()}}
        if name == "semilinear-1d":
            entry["sup_norm"] = json.loads(artifacts["semilinear_result.json"])["sup_norm"]
        else:
            entry["lambda"] = json.loads(artifacts["eigen_result.json"])["lambda"]
        ref[name] = entry
        print(name, entry, flush=True)
    reports = [json.loads(run("verify-default", seed)["verify_report.json"]) for seed in (0, 1)]
    checks = [{c["name"]: c for c in r["checks"]} for r in reports]
    status = {n: c["status"] for n, c in checks[0].items()}
    if status != {n: c["status"] for n, c in checks[1].items()}:
        raise SystemExit("verify statuses depend on the seed; no seed-free reference")
    ref["verify-default"] = {
        "status": status,
        "entries": {
            n: workloads.digest(json.dumps(c, sort_keys=True))
            for n, c in checks[0].items()
            if c == checks[1][n]
        },
    }
    print("verify-default", ref["verify-default"]["status"], flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
