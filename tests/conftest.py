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


def engine_of(family, backend=None):
    """The first registry row running ``family`` (``"rl"`` / ``"rlb"``) on
    ``backend`` (``None``: serial) — rows are named, never re-targeted;
    ``("rlb", "gpu")`` is ``rlb_gpu_v2``, the paper's method, ahead of
    ``rlb_gpu_v1``."""
    from repro.numeric.registry import ENGINES

    return next(s.name for s in ENGINES.values()
                if s.family == family and s.backend == (backend or "serial"))


def rows_of(families, backends):
    """One ``pytest.param(family, backend)``, id ``family-backend``, per
    pair of ``families`` x ``backends`` the registry has a row for
    (``backend`` ``None``: serial) — the process backend runs rl only."""
    from repro.numeric.registry import ENGINES

    have = {(s.family, s.backend) for s in ENGINES.values()}
    return [pytest.param(f, b, id=f"{f}-{b}")
            for f in families for b in backends if (f, b or "serial") in have]


def factor_snode(storage, s):
    """Supernode ``s`` of ``storage`` factorized in place — ``?potrf`` on
    the diagonal block, ``?trsm`` on the rectangle below, the serial bodies'
    routines — for loops that drive a factorization supernode by supernode;
    returns ``(panel, w, b)``."""
    from repro.dense.kernels import factor_routines
    from repro.numeric.rl import factor_entry

    entry = storage.factor_program()[s]
    potrf, trsm, _ = factor_routines(storage.dtype)
    factor_entry(entry, potrf, trsm)
    return entry[3], entry[1], entry[2]


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
    engines construct (they all build theirs in
    :func:`repro.numeric.rl_gpu.gpu_schedule`)."""
    from repro.numeric import rl_gpu

    made = []

    class Recorded(rl_gpu.SimulatedGpu):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(rl_gpu, "SimulatedGpu", Recorded)
    return made


def arena_copy(storage):
    """A writable arena-backed storage holding ``storage``'s panels — a
    derived storage's merged over its root, as a pickle ships it.  A
    returned factor is read-only, so a test that writes into a factor
    (a hand-damaged pivot, a reference sweep) writes into this copy."""
    from repro.numeric.storage import FactorStorage

    flat = [p.ravel(order="F") for p in storage.panels]
    return FactorStorage(storage.symb, arena=np.concatenate(flat or [np.zeros(0, storage.dtype)]))


def writable_twin(factor):
    """``factor`` under the same plan and matrix over :func:`arena_copy`
    of its storage: the factor a fault-injection test damages."""
    import copy

    from repro.api import Factor

    result = copy.copy(factor.result)
    result.extra = dict(result.extra)
    result.storage = arena_copy(factor.storage)
    return Factor(factor.plan, result, factor.matrix)
