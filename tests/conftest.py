"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from repro.sparse import (
    SymmetricCSC,
    grid_laplacian,
    random_spd,
    tridiagonal,
    vector_stencil,
)
from repro.symbolic import analyze


@pytest.fixture(scope="session")
def small_grid():
    """An 8x8x3 Laplacian — small but with real 3-D structure."""
    return grid_laplacian((8, 8, 3))


@pytest.fixture(scope="session")
def small_vec():
    """A 3-dof vector stencil — produces chunky supernodes."""
    return vector_stencil((5, 5, 4), 3, seed=7)


@pytest.fixture(scope="session")
def small_random():
    """A random sparse SPD matrix."""
    return random_spd(120, density=0.05, seed=3)


@pytest.fixture(scope="session")
def analyzed_grid(small_grid):
    """Full symbolic pipeline output for the small grid."""
    return analyze(small_grid)


@pytest.fixture(scope="session")
def analyzed_vec(small_vec):
    return analyze(small_vec)


@pytest.fixture(scope="session")
def tiny_tridiag():
    return tridiagonal(16)


def dense_chol_lower(system):
    """Reference lower Cholesky factor of an AnalyzedSystem's matrix."""
    return np.tril(sla.cholesky(system.matrix.to_dense(), lower=True))


def assert_factor_matches(result, system, tol=1e-10):
    """Assert a FactorizeResult's storage equals the dense reference."""
    L = result.storage.to_dense_lower()
    Lref = dense_chol_lower(system)
    err = np.abs(L - Lref).max()
    assert err < tol, f"factor mismatch: max abs error {err}"


MODEL_FIELDS = ("modeled_seconds", "cpu_times_by_threads", "best_threads",
                "flops", "kernel_count", "assembly_bytes")


def assert_measured(res):
    """Assert a threads or process row's FactorizeResult is measured, not
    modeled: every model field ``None``, a positive wall clock, and the
    schedule it ran in ``extra``."""
    for name in MODEL_FIELDS:
        assert getattr(res, name) is None, name
    assert res.wall_seconds > 0.0
    assert {"workers", "backend", "granularity", "tasks"} <= res.extra.keys()


def random_spd_dense(n, rng):
    """Dense random SPD matrix for oracle tests."""
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def spd_from_pattern(pattern):
    """Diagonally dominant SPD matrix with the (symmetrised) off-diagonal
    pattern of the boolean array ``pattern``."""
    off = np.triu(pattern, 1).astype(float)
    off = -(off + off.T)
    return SymmetricCSC.from_dense(off + np.diag(1.0 - off.sum(axis=1)))


def arrow_spd(n):
    """Arrow matrix: the first row/column is full."""
    pattern = np.zeros((n, n), dtype=bool)
    pattern[0, 1:] = True
    return spd_from_pattern(pattern)


def two_component_spd(n):
    """Two disconnected paths of ``n`` vertices, the second closed into a
    cycle."""
    pattern = np.zeros((2 * n, 2 * n), dtype=bool)
    idx = np.arange(n - 1)
    pattern[idx, idx + 1] = True
    pattern[n + idx, n + idx + 1] = True
    pattern[n, 2 * n - 1] = True
    return spd_from_pattern(pattern)


#: The forced task-range cuts (``repro.symbolic.ranges``): every supernode
#: alone, a budget of a few small supernodes (closed ranges under single
#: supernodes even on test-sized patterns), the fitted constants, one range
#: per pattern.
CUTS = ("singletons", "mixed", "default", "one")


def force_cut(monkeypatch, cut):
    """Patch the cut's module constants to force the partition ``cut`` (one
    of :data:`CUTS`) on every pattern analyzed *afterwards* — partitions are
    memoised per symbolic factor, so build fresh systems under it."""
    from repro.symbolic import ranges

    if cut == "singletons":
        monkeypatch.setattr(ranges, "RANGE_WORK", 0.0)
        monkeypatch.setattr(ranges, "RANGE_SHARE", 0.0)
    elif cut == "mixed":
        monkeypatch.setattr(ranges, "RANGE_WORK", 5 * ranges.SNODE_WORK)
        monkeypatch.setattr(ranges, "RANGE_SHARE", 0.0)
    elif cut == "one":
        monkeypatch.setattr(ranges, "RANGE_WORK", float("inf"))
    else:
        assert cut == "default"


def capture_devices(monkeypatch):
    """Record every :class:`~repro.gpu.device.SimulatedGpu` the offload
    engines construct (they all build theirs in :mod:`repro.numeric.rl_gpu`)."""
    from repro.numeric import rl_gpu

    made = []

    class Recorded(rl_gpu.SimulatedGpu):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(rl_gpu, "SimulatedGpu", Recorded)
    return made
