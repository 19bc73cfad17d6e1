"""The compiled serial loop (``numeric/_rl_loop.c``) against the Python
bodies it stands in for: ``rl``'s (:func:`repro.numeric.rl._python_body`)
and ``rlb``'s (:func:`repro.numeric.rlb.run_pair_range` over every
supernode).

Contracts, on both families:

* **same bytes** — ``plan.factorize(engine=...)`` (one call into the
  compiled loop where it could be built) leaves the arena the Python body
  leaves, byte for byte, dead space and upper triangles included: every
  pattern family, fp64 and fp32, every flat-form cut (all blocks, a mix, the
  default, all flat); ``rlb`` with its batched sources (the default
  :data:`~repro.symbolic.blocks.BATCHED_GEMM_MADDS`) and with every source
  per pair (``BATCHED_GEMM_MADDS = 0``);
* **threads** — two threads running the loop at once on distinct storages
  both get the serial bytes;
* **fallback** — a loader that cannot build (``$CC`` fails) or load gives
  ``None``, the door then runs the Python body, same bytes; a truncated
  cached library is rebuilt once (``numeric/_native.py``);
* **pivots** — a failed ``?potrf`` inside the loop raises the Python body's
  ``NotPositiveDefiniteError`` column from ``factorize``,
  ``factorize_batch`` (``batch_index``) and a serving session
  (``stream_index``), and the plan's work storage serves the next request
  with the serial bits.

Where no compiler is available the door *is* the Python body, and every
test here still holds: that is the fallback run.
"""

from __future__ import annotations

import os
import shutil
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.dense import NotPositiveDefiniteError
from repro.numeric import FactorStorage, _native, rl, rlb
from repro.sparse import SymmetricCSC, grid_laplacian, kkt_like, vector_stencil
from repro.symbolic import blocks, relind
from tests.conftest import spd_from_pattern as _spd

DTYPES = [np.float64, np.float32]

PATTERNS = {
    "n1": lambda: _spd(np.zeros((1, 1), dtype=bool)),
    "diagonal": lambda: _spd(np.zeros((9, 9), dtype=bool)),
    "dense": lambda: _spd(np.ones((11, 11), dtype=bool)),
    "grid2d": lambda: grid_laplacian((9, 8)),
    "grid3d": lambda: grid_laplacian((6, 5, 4)),
    "vec3d": lambda: vector_stencil((5, 5, 5), 4, connectivity="box"),
    "kkt": lambda: kkt_like(120, 30, density=0.05),
    "random": lambda: _spd(sp.random(60, 60, density=0.08, random_state=7).toarray() != 0),
}


def _mixed_cut(symb):
    """A flat-form cut between the smallest and the largest update matrix."""
    b = np.diff(symb.rowptr) - np.diff(symb.snptr)
    b = b[b > 0]
    return int(b.min() ** 2 + b.max() ** 2) // 2 if b.size else 0


FAMILIES = ["rl", "rlb"]

#: each family's Python body, in place on a storage
PYTHON_BODIES = {
    "rl": rl._python_body,
    "rlb": lambda storage: rlb.run_pair_range(
        storage, blocks.pair_index(storage.symb), 0, storage.symb.nsup
    ),
}

#: each family's door and the module it looks its loader and bodies up in
DOORS = {"rl": (rl, "_factorize_rl_in", "_python_body"),
         "rlb": (rlb, "_factorize_rlb_in", "run_pair_range")}  # fmt: skip


def _python(plan, values=None, dtype=np.float64, family="rl"):
    """The Python body's arena for ``values`` (the plan's own by default)."""
    M = plan.system.matrix
    if values is not None:
        M = SymmetricCSC(M.n, M.indptr, M.indices, values[plan.gather], check=False)
    storage = FactorStorage.from_matrix(plan.symb, M, dtype=dtype)
    PYTHON_BODIES[family](storage)
    return storage.arena


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


#: no ``cc`` to build with, or ``$CC`` names another compiler (the fallback run)
NO_DEFAULT_CC = "CC" in os.environ or shutil.which("cc") is None


@pytest.mark.skipif(NO_DEFAULT_CC, reason="no default compiler")
def test_a_machine_with_cc_builds_the_loop():
    """Where ``cc`` exists and ``$CC`` does not name another compiler, the
    door runs compiled: the differential tests below compare two bodies."""
    loops = _native.rl_loop()
    assert loops is not None and set(loops) == {np.dtype(np.float64), np.dtype(np.float32)}


@pytest.mark.parametrize("family", FAMILIES)
def test_the_door_runs_the_loop_when_there_is_one(monkeypatch, family):
    module, _, python_body = DOORS[family]
    ran = []
    for name in (python_body, "_compiled_body"):
        body = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _b=body: ran.append(_n) or _b(*a))
    repro.plan(PATTERNS["grid2d"]()).factorize(engine=family)
    assert ran == [python_body if module.rl_loop() is None else "_compiled_body"]


@pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
@pytest.mark.parametrize("cut", ["per_run", "mixed", "default", "flat"])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("family", ["rl", "rlb", "rlb_per_pair"])
def test_door_is_the_python_body_byte_for_byte(monkeypatch, family, pattern, cut, dtype):
    A = PATTERNS[pattern]()
    if cut != "default":
        value = {"per_run": 0, "flat": 10**9}.get(cut)
        if value is None:
            value = _mixed_cut(repro.plan(A).symb)
        monkeypatch.setattr(relind, "FLAT_UPDATE_ENTRIES", value)
    if family == "rlb_per_pair":
        family = "rlb"
        monkeypatch.setattr(blocks, "BATCHED_GEMM_MADDS", 0)
    plan = repro.plan(A)
    got = plan.factorize(engine=family, dtype=dtype).storage.arena
    _same_bytes(got, _python(plan, dtype=dtype, family=family))


@pytest.mark.parametrize("family", FAMILIES)
def test_two_threads_at_once_get_the_serial_bytes(family):
    """Both threads run the loop on their own storage, over and over, lined
    up by a barrier: each arena is the Python body's."""
    plan = repro.plan(vector_stencil((6, 6, 6), 4, connectivity="box"))
    want = _python(plan, family=family)
    module, door, _ = DOORS[family]
    door = getattr(module, door)
    barrier, errors, rounds = threading.Barrier(2), [], 8

    def run():
        try:
            for _ in range(rounds):
                storage = FactorStorage.from_matrix(plan.symb, plan.system.matrix)
                barrier.wait(timeout=60)
                door(storage)
                _same_bytes(storage.arena, want)
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


@pytest.mark.parametrize("family", FAMILIES)
def test_a_failed_loader_takes_the_python_body(monkeypatch, family):
    plan = repro.plan(PATTERNS["vec3d"]())
    want = {dtype: plan.factorize(engine=family, dtype=dtype).storage.arena for dtype in DTYPES}
    module, _, python_body = DOORS[family]
    calls = []
    body = getattr(module, python_body)
    monkeypatch.setattr(module, "rl_loop", lambda: None)
    monkeypatch.setattr(module, python_body, lambda *a: calls.append(1) or body(*a))
    for dtype in DTYPES:
        _same_bytes(plan.factorize(engine=family, dtype=dtype).storage.arena, want[dtype])
    assert calls == [1, 1]


def test_the_loader_gives_none_when_the_compiler_fails(monkeypatch, tmp_path):
    """``$CC`` that cannot compile, an empty cache: no library, no error."""
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.library.__wrapped__() is None
    assert [p.name for p in (tmp_path / "repro").iterdir()] == []  # no temporary left


@pytest.mark.skipif(NO_DEFAULT_CC, reason="no default compiler")
def test_a_build_lands_in_the_cache_once(monkeypatch, tmp_path):
    """A fresh cache directory gets one library named by the hash of every
    source; a second load builds nothing."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.library.__wrapped__() is not None
    (built,) = (tmp_path / "repro").iterdir()
    assert built.name.startswith("_native-") and built.suffix == ".so"
    assert str(built) == _native.library_path()
    stamp = built.stat().st_mtime_ns
    monkeypatch.setenv("CC", "false")  # a rebuild would fail
    assert _native.library.__wrapped__() is not None
    assert [p.stat().st_mtime_ns for p in (tmp_path / "repro").iterdir()] == [stamp]


@pytest.mark.skipif(NO_DEFAULT_CC, reason="no default compiler")
def test_a_corrupt_cached_library_is_rebuilt(monkeypatch, tmp_path):
    """A truncated library in the cache is rebuilt once and loaded, not
    given up on; where the rebuild fails too, there is no library.  Each
    cache directory is fresh, so no process has its file loaded."""
    for sub, cc in (("rebuilt", None), ("no_compiler", "false")):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / sub))
        if cc is not None:
            monkeypatch.setenv("CC", cc)
        path = _native.library_path()
        with open(path, "wb") as out:
            out.write(b"\x7fELF" + bytes(96))  # the first 100 bytes survived
        lib = _native.library.__wrapped__()
        if cc is None:
            assert lib is not None and hasattr(lib, "solve_loop_d") and hasattr(lib, "rl_loop_d")
            assert os.path.getsize(path) > 100
        else:
            assert lib is None
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]


@pytest.mark.parametrize("family", FAMILIES, scope="class")
class TestPivotParity:
    @pytest.fixture(scope="class")
    def broken(self, family):
        A = grid_laplacian((7, 6, 3))
        plan = repro.plan(A)
        bad = A.data.copy()
        bad[A.indptr[A.n // 2]] = -5.0  # a negative diagonal entry mid-matrix
        pivots = {}
        for dtype in DTYPES:
            with pytest.raises(NotPositiveDefiniteError) as ei:
                _python(plan, bad, dtype, family)
            pivots[np.dtype(dtype)] = ei.value.pivot
        return plan, A.data.copy(), bad, pivots

    @pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
    def test_factorize(self, broken, family, dtype):
        plan, good, bad, pivots = broken
        with pytest.raises(NotPositiveDefiniteError) as ei:
            plan.factorize(bad, engine=family, dtype=dtype)
        assert ei.value.pivot == pivots[np.dtype(dtype)]
        _same_bytes(plan.factorize(good, engine=family, dtype=dtype).storage.arena,
                    _python(plan, good, dtype, family))

    @pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
    def test_factorize_batch(self, broken, family, dtype):
        plan, good, bad, pivots = broken
        with pytest.raises(NotPositiveDefiniteError) as ei:
            plan.factorize_batch([good, bad, good], engine=family, dtype=dtype)
        assert ei.value.pivot == pivots[np.dtype(dtype)] and ei.value.batch_index == 1

    @pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
    def test_session_then_the_work_storage_serves(self, broken, family, dtype):
        plan, good, bad, pivots = broken
        b = np.cos(np.arange(plan.n))
        with plan.serve(engine=family, dtype=dtype) as session:
            session.submit_solve(good, b).result(timeout=60)
            (storage,) = plan._work[np.dtype(dtype)]
            with pytest.raises(NotPositiveDefiniteError) as ei:
                session.submit_solve(bad, b).result(timeout=60)
            assert ei.value.pivot == pivots[np.dtype(dtype)] and ei.value.stream_index == 1
            x = session.submit_solve(good, b).result(timeout=60)
        assert tuple(plan._work[np.dtype(dtype)]) == (storage,)
        _same_bytes(storage.arena, _python(plan, good, dtype, family))
        want = plan.factorize(good, engine=family, dtype=dtype).solve(b)
        assert np.array_equal(x, want)
