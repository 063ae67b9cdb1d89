"""Shared fixtures: family roster and cached derived objects.

The critical-conjugate tabulations and eigen ladders are expensive, so they
are built once per session and shared across test modules.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import fglap
from fglap import (
    Grid,
    OperatorParams,
    SolveOptions,
    builtin_embedding_params,
    builtin_families,
    embedding_composition,
    sobolev_conjugate,
    solve_eigen,
)


@pytest.fixture(scope="session")
def families():
    return builtin_families()


@pytest.fixture(scope="session")
def embedding():
    return builtin_embedding_params()


@pytest.fixture(scope="session")
def gstars(families, embedding):
    out = {}
    for name, yf in families.items():
        s, n = embedding[name]
        out[name] = sobolev_conjugate(yf, s, n)
    return out


@pytest.fixture(scope="session")
def compositions(families, embedding, gstars):
    out = {}
    for name, yf in families.items():
        s, n = embedding[name]
        out[name] = embedding_composition(yf, s, n, gstars[name])
    return out


@pytest.fixture(scope="session")
def eigen_ladder(families):
    """The 64/128/256-node eigenpairs for the piecewise family at s = 0.4."""
    yf = families["piecewise2_3"]
    params = OperatorParams(s=0.4)
    opts = SolveOptions(tol=2e-6, max_iter=8000)
    return {
        n: solve_eigen(Grid.build([0.0, 1.0], n), yf, params, 0.4, opts)
        for n in (64, 128, 256)
    }


def kink_safe(values, scales, kinks=(1.0,), eps=1e-5):
    """Rescale a sample vector until no product with any scale sits within
    eps of a density kink; keeps central differences clean oracles."""
    v = np.asarray(values, dtype=float)
    for _ in range(50):
        prods = np.abs(v[:, None] * np.asarray(scales)[None, :]).ravel()
        ok = True
        for k in kinks:
            if np.any(np.abs(prods - k) < eps):
                ok = False
                break
        if ok:
            return v
        v = v * 1.00371
    raise AssertionError("could not displace samples away from density kinks")


def fresh_process_env():
    """Environment for a child Python that imports this checkout's fglap,
    with glibc's default malloc: any MALLOC_*_ or GLIBC_TUNABLES setting of
    a threshold turns off the dynamic thresholds that fglap.operator raises."""
    src = str(Path(fglap.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return env


def _lattice_offsets(kern):
    """Index of entry (i, j) of an N x N array in the kernel's per-offset
    tables: the lattice offset from node i to node j, axis by axis."""
    cells = kern.grid.cells
    idx = np.indices(cells).reshape(len(cells), -1)
    center = (np.array(cells) - 1)[:, None, None]
    return tuple(idx[:, None, :] - idx[:, :, None] + center)


def dense_kernel(kern):
    """The kernel's quotient scales and operator weights as N x N arrays,
    entry (i, j) read from its per-offset table at the lattice offset from
    node i to node j, independently of the kernel's row-block accessors."""
    offsets = _lattice_offsets(kern)
    return kern.qs_offsets[offsets], kern.wop_offsets[offsets]


def dense_energy_weights(kern):
    """The kernel's energy weights as an N x N array, read from its
    per-offset table like ``dense_kernel``."""
    return kern.wen_offsets[_lattice_offsets(kern)]
