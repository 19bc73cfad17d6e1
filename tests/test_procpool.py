"""Worker-process backend tests (:mod:`repro.numeric.procpool`).

Covers the multiprocess executor's contracts end to end: bit-identity
against the serial engines for every worker count under BOTH start
methods (fork and spawn) and both granularities, a measured report with
no model field, ``NotPositiveDefiniteError``
propagation across the process boundary (raw pivot, ``batch_index``
through :meth:`SymbolicPlan.factorize_batch`, ``stream_index`` through
``plan.serve``), leak-free shared-memory teardown on :meth:`ProcessPool.
close`, the registry wiring (``rl_proc``/``rlb_proc``,
``backend="process"``), and the measured ``proc0``/``proc1`` tracer lanes.
"""

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro
from repro.dense import NotPositiveDefiniteError
from repro.numeric import (
    ProcessPool,
    factorize_process,
    factorize_rl_cpu,
    factorize_rlb_cpu,
)
from repro.numeric.executor import dag_plan
from repro.numeric.procpool import close_default_pools, default_process_pool
from repro.numeric.registry import BACKENDS, get_engine, serial_twin
from repro.sparse import grid_laplacian, spd_value_sweep
from repro.symbolic import analyze, task_ranges
from tests.conftest import (
    CUTS,
    assert_factor_matches,
    assert_measured,
    force_cut,
)

GRANULARITIES = ["coarse", "fine"]
SERIAL = {"coarse": factorize_rl_cpu, "fine": factorize_rlb_cpu}
START_METHODS = [m for m in ("fork", "spawn")
                 if m in mp.get_all_start_methods()]


def assert_same_panels(res, ref):
    assert len(res.storage.panels) == len(ref.storage.panels)
    for p, q in zip(res.storage.panels, ref.storage.panels):
        assert np.array_equal(p, q)


@pytest.fixture(scope="module")
def system():
    return analyze(grid_laplacian((7, 6, 3)))


@pytest.fixture(scope="module")
def serial_refs(system):
    return {g: SERIAL[g](system.symb, system.matrix) for g in GRANULARITIES}


@pytest.fixture(scope="module", autouse=True)
def _release_default_pools():
    """Default pools are cached per (workers, start_method) and reused by
    every test in this module; tear them all down (and verify the atexit
    path is exercised) once the module is done."""
    yield
    close_default_pools()


# ---------------------------------------------------------------------------
# bit-identity: workers x granularity x start method
# ---------------------------------------------------------------------------
class TestDeterminism:
    """The reduction-order contract survives the process boundary: factors
    bit-identical to the serial engine of the same granularity, for any
    worker count, under fork AND spawn."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_bit_identical_to_serial(self, system, serial_refs, start_method,
                                     workers, granularity):
        res = factorize_process(
            system.symb, system.matrix, granularity=granularity,
            workers=workers, start_method=start_method,
        )
        assert_same_panels(res, serial_refs[granularity])

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_repeated_runs_identical(self, system, granularity):
        one = factorize_process(system.symb, system.matrix,
                                granularity=granularity, workers=2)
        two = factorize_process(system.symb, system.matrix,
                                granularity=granularity, workers=2)
        assert_same_panels(one, two)

    def test_matches_dense_reference(self, system):
        res = factorize_process(system.symb, system.matrix, workers=2)
        assert_factor_matches(res, system)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_result_metadata_is_measured(self, system, granularity):
        res = factorize_process(system.symb, system.matrix,
                                granularity=granularity, workers=2)
        assert res.method == ("rl_proc" if granularity == "coarse"
                              else "rlb_proc")
        assert res.extra["workers"] == 2
        assert res.extra["backend"] == "process"
        assert res.extra["granularity"] == granularity
        assert res.extra["start_method"] in mp.get_all_start_methods()
        assert res.extra["wall_seconds"] > 0.0
        # the scheduled tasks: one per task range, plus (fine) the pair
        # tasks of the single supernodes above the cut
        plan = dag_plan(system.symb, granularity)
        assert res.extra["tasks"] == plan.ntasks >= len(task_ranges(system.symb))
        # measured, not modeled, in either precision
        for dtype in (np.float64, np.float32):
            res = factorize_process(system.symb, system.matrix, dtype=dtype,
                                    granularity=granularity, workers=2)
            assert_measured(res)


# ---------------------------------------------------------------------------
# failure propagation across the process boundary
# ---------------------------------------------------------------------------
class TestFailurePropagation:
    def test_non_spd_raises_with_pivot(self, system):
        bad = analyze(grid_laplacian((6, 6, 2)).shift_diagonal(-100.0))
        with pytest.raises(NotPositiveDefiniteError) as info:
            factorize_process(bad.symb, bad.matrix, workers=2)
        assert info.value.pivot >= 0
        # the pool survives the failure and keeps serving
        res = factorize_process(system.symb, system.matrix, workers=2)
        assert_factor_matches(res, system)

    def test_batch_annotates_batch_index(self):
        A = grid_laplacian((6, 5, 3))
        plan = repro.plan(A)
        good = spd_value_sweep(A, 2)
        poisoned = A.data.copy()
        poisoned[A.indptr[:-1]] = -1.0
        with pytest.raises(NotPositiveDefiniteError) as info:
            plan.factorize_batch([good[0], poisoned, good[1]],
                                 backend="process", workers=2)
        assert info.value.batch_index == 1
        assert info.value.pivot >= 0

    def test_serve_annotates_stream_index_and_keeps_serving(self):
        A = grid_laplacian((6, 5, 3))
        plan = repro.plan(A)
        good = spd_value_sweep(A, 2)
        poisoned = A.data.copy()
        poisoned[A.indptr[:-1]] = -1.0
        default_process_pool(2)  # warm on the main thread (fork safety)
        with plan.serve(backend="process", workers=2) as session:
            futs = [session.submit(v) for v in (good[0], poisoned, good[1])]
            with pytest.raises(NotPositiveDefiniteError) as info:
                futs[1].result()
            # the failure is annotated with its submission index and fails
            # only its own future — the session keeps serving
            assert info.value.stream_index == 1
            for fut, values in ((futs[0], good[0]), (futs[2], good[1])):
                ref = plan.factorize(values, engine="rlb")
                assert_same_panels(fut.result().result, ref.result)


# ---------------------------------------------------------------------------
# pool lifecycle: shared-memory hygiene, close semantics, validation
# ---------------------------------------------------------------------------
class TestPoolLifecycle:
    def test_close_releases_every_shared_memory_segment(self, system):
        pool = ProcessPool(2)
        res = factorize_process(system.symb, system.matrix, pool=pool)
        assert res.extra["workers"] == 2
        names = pool.shm_names()
        assert len(names) == 2  # one panels arena + one scratch arena
        pool.close()
        assert pool.closed
        for name in names:
            # unlinked: attaching again must fail — nothing leaked for the
            # resource tracker to clean up at interpreter exit
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_job(system.symb, system.matrix, "coarse")
        pool.close()  # idempotent

    def test_context_manager_closes(self, system):
        with ProcessPool(1) as pool:
            factorize_process(system.symb, system.matrix, pool=pool,
                              granularity="fine")
            assert not pool.closed
        assert pool.closed
        assert pool.shm_names() == []

    def test_default_pool_cached_and_recreated_after_close(self):
        p = default_process_pool(2)
        assert default_process_pool(2) is p
        p.close()
        q = default_process_pool(2)
        assert q is not p and not q.closed

    def test_dead_worker_fails_one_request_typed_and_releases_the_pool(self):
        """SIGKILL one worker between two requests: the next request
        raises ``WorkerDiedError`` (at the parent: a raw BrokenPipeError
        on every later request, pool never closed, arenas left in
        /dev/shm), the pool is closed with its segments unlinked, and the
        request after that runs on a fresh default pool."""
        A = grid_laplacian((6, 5, 3))
        plan = repro.plan(A)
        ref = plan.factorize(engine="rl")
        pool = default_process_pool(2)
        plan.factorize(engine="rl_proc", workers=2)
        names = pool.shm_names()
        assert len(names) == 2
        victim = pool._procs[0]
        victim.kill()
        victim.join(timeout=30)
        assert not victim.is_alive()
        with pytest.raises(repro.WorkerDiedError):
            plan.factorize(engine="rl_proc", workers=2)
        assert pool.closed and pool.shm_names() == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        factor = plan.factorize(engine="rl_proc", workers=2)
        assert default_process_pool(2) is not pool
        assert_same_panels(factor.result, ref.result)

    def test_rejects_bad_arguments(self, system):
        with pytest.raises(ValueError, match="workers"):
            ProcessPool(0)
        with pytest.raises(ValueError, match="granularity"):
            factorize_process(system.symb, system.matrix, granularity="huge")
        with pytest.raises(ValueError, match="start method"):
            ProcessPool(1, start_method="teleport")
        with ProcessPool(1) as pool:
            with pytest.raises(ValueError, match="not both"):
                factorize_process(system.symb, system.matrix, pool=pool,
                                  workers=2)
            with pytest.raises(ValueError, match="not both"):
                factorize_process(system.symb, system.matrix, pool=pool,
                                  start_method="spawn")


# ---------------------------------------------------------------------------
# registry wiring
# ---------------------------------------------------------------------------
class TestBackendSeam:
    def test_registry_wiring(self):
        assert BACKENDS["process"] == {"coarse": "rl_proc",
                                       "fine": "rlb_proc"}
        for name in ("rl_proc", "rlb_proc"):
            spec = get_engine(name)
            assert spec.backend == "process"
            assert "workers" in spec.accepts
            assert "devices" not in spec.accepts
        assert serial_twin("rl_proc") == "rl"
        assert serial_twin("rlb_proc") == "rlb"


# ---------------------------------------------------------------------------
# staged-API integration: plan.factorize / factorize_batch / serve
# ---------------------------------------------------------------------------
class TestApiIntegration:
    @pytest.fixture(scope="class")
    def plan(self):
        return repro.plan(grid_laplacian((6, 5, 3)))

    def test_plan_factorize_process(self, plan):
        f = plan.factorize(backend="process", workers=2)
        twin = serial_twin(f.result.method)
        ref = plan.factorize(engine=twin)
        assert_same_panels(f.result, ref.result)
        assert f.result.extra["backend"] == "process"
        b = np.ones(plan.n)
        assert np.array_equal(f.solve(b), ref.solve(b))

    def test_factorize_batch_process(self, plan):
        datas = spd_value_sweep(plan.matrix, 3)
        batch = plan.factorize_batch(datas, backend="process", workers=2)
        for d, f in zip(datas, batch):
            twin = serial_twin(f.result.method)
            assert_same_panels(f.result, plan.factorize(d,
                                                        engine=twin).result)

    def test_serve_process_submit_and_solve(self, plan):
        datas = spd_value_sweep(plan.matrix, 2)
        b = np.ones(plan.n)
        default_process_pool(2)  # warm on the main thread (fork safety)
        with plan.serve(backend="process", workers=2) as session:
            f = session.submit(datas[0]).result()
            x = session.submit_solve(datas[1], b).result()
        ref0 = plan.factorize(datas[0], engine="rlb")
        assert_same_panels(f.result, ref0.result)
        assert np.array_equal(x, plan.factorize(datas[1],
                                                engine="rlb").solve(b))


# ---------------------------------------------------------------------------
# tracing: measured per-task spans on proc0, proc1, ... lanes
# ---------------------------------------------------------------------------
def test_tracer_records_proc_lanes(monkeypatch):
    from repro.gpu import Tracer

    for cut in CUTS:
        with monkeypatch.context() as patch:
            force_cut(patch, cut)
            system = analyze(grid_laplacian((7, 6, 3)))
            symb = system.symb
            bounds = task_ranges(symb).bounds
        tracer = Tracer()
        res = factorize_process(symb, system.matrix, workers=2, tracer=tracer)
        spans = {w: tracer.by_lane(f"proc{w}") for w in range(2)}
        assert res.extra["tasks"] == len(bounds) - 1
        assert sum(len(evs) for evs in spans.values()) == res.extra["tasks"]
        # every scheduled range ran once, labelled as what it was
        want = sorted(
            f"snode:{lo}" if hi - lo == 1 else f"snodes:{lo}-{hi - 1}"
            for lo, hi in zip(bounds, bounds[1:]))
        assert sorted(e.name for evs in spans.values() for e in evs) == want
        if cut == "singletons":
            assert res.extra["tasks"] == symb.nsup
            # both workers actually ran tasks on this DAG (wide enough to
            # share)
            assert all(spans[w] for w in range(2))
        elif cut == "one":
            assert want == [f"snodes:0-{symb.nsup - 1}"]
        assert all(e.end >= e.start for evs in spans.values() for e in evs)
