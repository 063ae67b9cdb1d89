"""The benchmark's four workloads: fixed CLI configs and their output checks.

Every workload runs through ``fglap.cli.run_command``, the function behind
``fglap --config``.  The three solve workloads take no random input, so the
benchmark seed changes nothing in them; ``verify-default`` passes the seed
to verify's ``seed`` field.  WORKLOADS.md records why each was chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# a changed lambda or sup norm beyond this relative distance is a failed
# operation; the 256- and 512-cell lambdas of degiorgi-1d differ by 1e-3
VALUE_RTOL = 1e-6

CONFIGS = {
    "degiorgi-1d": {
        "command": "degiorgi",
        "young": {"family": "piecewise_power", "p": 2, "q": 3},
        "s": 0.4,
        "mu": 0.4,
        "tol": 2e-6,
        "grid": {"bounds": [0, 1], "cells": 512},
    },
    "solve-2d": {
        "command": "solve",
        "young": {
            "family": "normalized",
            "base": {
                "family": "sum",
                "parts": [{"family": "power", "p": 2}, {"family": "power", "p": 3}],
            },
        },
        "s": 0.4,
        "mu": 0.4,
        "tol": 2e-6,
        "grid": {"bounds": [[0, 1], [0, 1]], "cells": 32},
    },
    "semilinear-1d": {
        "command": "semilinear",
        "young": {"family": "power", "p": 2},
        "semilinear": {"family": "power", "p": 2.2},
        "s": 0.4,
        "tol": 1e-6,
        "grid": {"bounds": [0, 1], "cells": 256},
    },
    "verify-default": {"command": "verify"},
}


def raw_config(name: str, seed: int) -> dict:
    """The workload's config before ``normalize_config``."""
    cfg = json.loads(json.dumps(CONFIGS[name]))
    if cfg["command"] == "verify":
        cfg["seed"] = seed
    return cfg


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class Outcome:
    """Result of checking one command.

    ``attempted``/``failed`` count operations: the command itself on the
    solve workloads, each check on ``verify-default``.  ``regressed`` is set
    when an operation failed that passed at the reference commit, or when an
    output is missing or malformed.  ``identical`` reports byte identity with
    the reference artifacts and is never counted as a failure.
    """

    attempted: int
    failed: int
    regressed: bool
    identical: bool
    artifact_bytes: int
    problems: list


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check(name: str, cfg: dict, artifacts, code, error, ref: dict) -> Outcome:
    """Check one ``run_command`` result against the workload's reference.

    ``error`` is the exception text when the command raised, else None."""
    if name == "verify-default":
        return _check_verify(artifacts, code, error, ref)
    problems = []
    if error is not None:
        problems.append(f"raised {error}")
    elif code != 0:
        problems.append(f"exit code {code}")
    else:
        try:
            problems += _solve_problems(name, cfg, artifacts, ref)
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"malformed artifacts: {exc!r}")
    artifacts = artifacts or {}
    identical = {k: digest(v) for k, v in artifacts.items()} == ref["artifacts"]
    nbytes = sum(len(v.encode()) for v in artifacts.values())
    failed = 1 if problems else 0
    return Outcome(1, failed, bool(problems), identical, nbytes, problems)


def _solve_problems(name, cfg, artifacts, ref) -> list:
    problems = []
    if name == "semilinear-1d":
        sup = json.loads(artifacts["semilinear_result.json"])["sup_norm"]
        if not _rel(sup, ref["sup_norm"]) <= VALUE_RTOL:
            problems.append(f"sup norm {sup!r} != reference {ref['sup_norm']!r}")
        return problems
    eig = json.loads(artifacts["eigen_result.json"])
    if not eig["residual"] <= cfg["tol"]:
        # acceptance under stagnation_tol lands here too
        problems.append(f"residual {eig['residual']:.3e} above tol {cfg['tol']:.1e}")
    if not _rel(eig["lambda"], ref["lambda"]) <= VALUE_RTOL:
        problems.append(f"lambda {eig['lambda']!r} != reference {ref['lambda']!r}")
    if name == "degiorgi-1d":
        fit = json.loads(artifacts["fit_report.json"])
        for key in ("inclusions_ok", "recursion_ok"):
            if fit[key] is not True:
                problems.append(f"{key} is {fit[key]!r}")
    return problems


def _check_verify(artifacts, code, error, ref) -> Outcome:
    ref_status = ref["status"]
    text = (artifacts or {}).get("verify_report.json")
    if error is not None or text is None:
        problem = f"raised {error}" if error is not None else "no verify_report.json"
        return Outcome(len(ref_status), len(ref_status), True, False, 0, [problem])
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    failed = [n for n, c in checks.items() if c["status"] != "pass"]
    problems = [f"check {n}: {checks[n]['status']}" for n in failed]
    regressed = set(checks) != set(ref_status) or any(
        ref_status[n] == "pass" for n in failed
    )
    if code != (4 if failed else 0):
        problems.append(f"exit code {code} with {len(failed)} failed checks")
        regressed = True
    # entries whose text does not depend on the seed, compared byte for byte
    identical = all(
        n in checks and digest(json.dumps(checks[n], sort_keys=True)) == h
        for n, h in ref["entries"].items()
    )
    return Outcome(
        len(checks),
        len(failed),
        regressed,
        identical,
        len(text.encode()),
        problems,
    )
