"""Level-scheduled parallel triangular solves + streaming serving tests.

The solve-side determinism contract: the parallel forward/backward sweeps,
``Factor.solve(workers=N)`` and every ``ServingSession`` result
must be *bit-identical* to the serial path for every worker count; a
non-SPD matrix in a streaming session fails only its own future.  Also
covers the :class:`SolvePlan` level-schedule introspection, the executor's
per-task trace instrumentation and the solve-mode registry dispatch.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dense import NotPositiveDefiniteError
from repro.gpu import Tracer
from repro.gpu.trace import LANES
from repro.numeric import factorize_executor, factorize_rl_cpu
from repro.numeric.registry import SOLVE_MODES, get_solve_mode
from repro.solve import backward_solve, forward_solve, solve_factored
from repro.sparse import (
    grid_laplacian,
    random_spd,
    spd_value_sweep,
    tridiagonal,
)
from repro.symbolic import analyze, solve_levels, solve_schedule, task_ranges
from tests.conftest import force_cut

WORKERS = [1, 2, 4]
#: factor-producing engines of both task granularities — the solve sweeps
#: consume the same FactorStorage either way, so results must agree too
GRANULARITY_ENGINES = ["rl_par", "rlb_par"]


@pytest.fixture(scope="module")
def system():
    return analyze(grid_laplacian((7, 6, 3)))


@pytest.fixture(scope="module")
def factored(system):
    return factorize_rl_cpu(system.symb, system.matrix)


@pytest.fixture(scope="module")
def aplan():
    return repro.plan(grid_laplacian((7, 6, 3)))


def rhs(n, shape_kind, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n if shape_kind == "vector" else (n, 5))


class TestBitIdentity:
    """workers x granularity x RHS-shape sweep: exact equality with the
    serial sweeps."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("shape_kind", ["vector", "block"])
    def test_sweeps_match_serial(self, factored, workers, shape_kind):
        b = rhs(factored.storage.symb.n, shape_kind)
        assert np.array_equal(
            forward_solve(factored.storage, b, workers=workers),
            forward_solve(factored.storage, b),
        )
        assert np.array_equal(
            backward_solve(factored.storage, b, workers=workers),
            backward_solve(factored.storage, b),
        )
        assert np.array_equal(
            solve_factored(factored.storage, b, workers=workers),
            solve_factored(factored.storage, b),
        )

    @pytest.mark.parametrize("engine", GRANULARITY_ENGINES)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("shape_kind", ["vector", "block"])
    def test_factor_solve_matches_serial(self, aplan, engine, workers,
                                         shape_kind):
        factor = aplan.factorize(engine=engine, workers=2)
        b = rhs(aplan.n, shape_kind, seed=1)
        assert np.array_equal(factor.solve(b, workers=workers),
                              factor.solve(b))

    def test_repeated_parallel_runs_identical(self, factored):
        b = rhs(factored.storage.symb.n, "block", seed=2)
        one = solve_factored(factored.storage, b, workers=4)
        two = solve_factored(factored.storage, b, workers=4)
        assert np.array_equal(one, two)

    def test_fused_graph_matches_split_sweeps(self, factored):
        """solve_graph fuses both sweeps into one task graph; it must agree
        exactly with running the two per-sweep graphs back to back."""
        from repro.numeric.executor import run_task_graph
        from repro.solve import solve_graph

        n = factored.storage.symb.n
        b = rhs(n, "block", seed=14)
        y = b.copy()
        run_task_graph(*solve_graph(factored.storage, y), 4)
        ref = backward_solve(factored.storage,
                             forward_solve(factored.storage, b))
        assert np.array_equal(y, ref)

    def test_staged_api_uses_unified_rhs_message(self, aplan):
        factor = aplan.factorize(engine="rl")
        with pytest.raises(ValueError, match="right-hand side 'b'"):
            factor.solve(np.ones(3))
        with pytest.raises(ValueError, match="right-hand side 'b'"):
            factor.solve(np.ones(3), workers=2)


class TestEdgeCases:
    def test_single_supernode(self):
        sys1 = analyze(random_spd(12, density=1.0), merge=True,
                       growth_cap=10.0)
        assert sys1.symb.nsup == 1
        res = factorize_rl_cpu(sys1.symb, sys1.matrix)
        b = rhs(sys1.symb.n, "block", seed=6)
        assert np.array_equal(solve_factored(res.storage, b, workers=4),
                              solve_factored(res.storage, b))

    def test_chain_etree_no_parallelism(self):
        sysc = analyze(tridiagonal(24), ordering="natural", merge=False,
                       refine=False)
        res = factorize_rl_cpu(sysc.symb, sysc.matrix)
        sched = solve_schedule(sysc.symb)
        assert sched.nlevels == sysc.symb.nsup  # pure chain: width-1 levels
        assert sched.max_width == 1
        b = rhs(sysc.symb.n, "vector", seed=7)
        assert np.array_equal(solve_factored(res.storage, b, workers=4),
                              solve_factored(res.storage, b))

    def test_more_workers_than_tasks(self, factored):
        b = rhs(factored.storage.symb.n, "vector", seed=8)
        workers = 8 * (factored.storage.symb.nsup + 1)
        assert np.array_equal(
            solve_factored(factored.storage, b, workers=workers),
            solve_factored(factored.storage, b),
        )

    def test_rejects_bad_workers(self, factored):
        b = rhs(factored.storage.symb.n, "vector")
        with pytest.raises(ValueError, match="workers"):
            solve_factored(factored.storage, b, workers=0)

    def test_overwrite_contract_holds_in_parallel(self, factored):
        """workers= must not change the copy/in-place semantics."""
        n = factored.storage.symb.n
        b = rhs(n, "vector", seed=9)
        keep = b.copy()
        solve_factored(factored.storage, b, workers=2)
        assert np.array_equal(b, keep)  # default still copies
        buf = b.copy()
        out = solve_factored(factored.storage, buf, overwrite_b=True,
                             workers=2)
        assert out is buf  # in-place really is in place


class TestSolveSchedule:
    def test_levels_respect_dependencies(self, system):
        sched = solve_schedule(system.symb)
        # every forward source sits at a strictly lower level than its
        # target, so processing whole levels is a valid schedule
        for src, runs in enumerate(sched.runs):
            for target, _, _ in runs:
                assert sched.level[src] < sched.level[target]

    def test_levels_match_tree_depth(self, system):
        symb = system.symb
        level = solve_levels(symb)
        for s in range(symb.nsup):
            p = symb.sn_parent[s]
            if p >= 0:
                assert level[p] > level[s]

    def test_runs_cover_below_rows(self, system):
        symb = system.symb
        sched = solve_schedule(symb)
        for s in range(symb.nsup):
            below = symb.snode_below_rows(s)
            covered = sum(hi - lo for _, lo, hi in sched.runs[s])
            assert covered == below.size
            for p, lo, hi in sched.runs[s]:
                assert (symb.col2sn[below[lo:hi]] == p).all()

    def test_memoised_on_symbolic_cache(self, system):
        assert solve_schedule(system.symb) is solve_schedule(system.symb)

    def test_solve_plan_introspection(self, aplan):
        sp = aplan.solve_plan()
        assert sp.nsup == aplan.nsup
        assert sp.level_widths().sum() == aplan.nsup
        assert 1 <= sp.max_parallelism <= aplan.nsup
        assert sp.nlevels >= 1
        assert sp.plan is aplan
        # shared memoised schedule: factor-side access hits the same object
        factor = aplan.factorize(engine="rl")
        assert factor.solve_plan().schedule is sp.schedule


class TestSolveModeDispatch:
    def test_registry_names(self):
        assert set(SOLVE_MODES) == {"serial", "level", "gpu"}
        assert get_solve_mode("level").parallel
        assert not get_solve_mode("serial").parallel
        assert get_solve_mode("gpu").offload
        assert not get_solve_mode("gpu").parallel
        with pytest.raises(ValueError, match="unknown solve mode"):
            get_solve_mode("turbo")

    def test_factor_solve_mode_validation(self, aplan):
        factor = aplan.factorize(engine="rl")
        b = rhs(aplan.n, "vector", seed=10)
        with pytest.raises(ValueError, match="unknown solve mode"):
            factor.solve(b, mode="turbo")
        with pytest.raises(ValueError, match="parallel solve modes"):
            factor.solve(b, workers=2, mode="serial")
        # explicit level mode without workers uses the default pool size
        assert np.array_equal(factor.solve(b, mode="level"),
                              factor.solve(b))


class TestServingSession:
    def test_streamed_factors_and_solutions_bit_identical(self, aplan):
        datas = spd_value_sweep(aplan.matrix, 5)
        b = rhs(aplan.n, "vector", seed=11)
        with aplan.serve(engine="rlb_par", workers=3) as session:
            fut_f = session.submit(datas[0])
            fut_xs = [session.submit_solve(d, b) for d in datas]
            factor = fut_f.result(timeout=60)
            xs = [f.result(timeout=60) for f in fut_xs]
        ref = aplan.factorize(datas[0], engine="rlb")
        assert all(np.array_equal(p, q) for p, q in
                   zip(factor.storage.panels, ref.storage.panels))
        for d, x in zip(datas, xs):
            assert np.array_equal(
                x, aplan.factorize(d, engine="rlb").solve(b))

    def test_mid_stream_non_spd_fails_only_its_future(self, aplan):
        datas = spd_value_sweep(aplan.matrix, 3)
        bad = datas[1].copy()
        bad[aplan.matrix.indptr[:-1]] = -100.0
        b = rhs(aplan.n, "vector", seed=12)
        with aplan.serve(engine="rlb_par", workers=2) as session:
            before = session.submit_solve(datas[0], b)
            poisoned = session.submit(bad)
            after = session.submit_solve(datas[2], b)
            exc = poisoned.exception(timeout=60)
            assert isinstance(exc, NotPositiveDefiniteError)
            assert exc.stream_index == 1
            assert "stream submission 1" in str(exc)
            # the pool survived: neighbours resolve normally
            x0 = before.result(timeout=60)
            x2 = after.result(timeout=60)
        assert np.array_equal(
            x0, aplan.factorize(datas[0], engine="rlb").solve(b))
        assert np.array_equal(
            x2, aplan.factorize(datas[2], engine="rlb").solve(b))

    def test_submit_after_close_raises(self, aplan):
        session = aplan.serve(engine="rl_par", workers=2)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(None)
        with pytest.raises(RuntimeError, match="closed"):
            session.submit_solve(None, np.ones(aplan.n))

    def test_pattern_and_shape_mismatch_raise_immediately(self, aplan):
        with aplan.serve(engine="rlb_par", workers=2) as session:
            with pytest.raises(ValueError, match="values must have shape"):
                session.submit(np.ones(3))
            with pytest.raises(ValueError, match="shape"):
                session.submit_solve(None, np.ones(3))
            assert session.submitted == 0

    def test_serial_engine_rejected(self, aplan):
        with pytest.raises(ValueError, match="task-DAG engines only"):
            aplan.serve(engine="rl")

    def test_counts_and_default_values(self, aplan):
        b = rhs(aplan.n, "vector", seed=13)
        with aplan.serve(engine="rlb_par", workers=2) as session:
            fut = session.submit_solve(None, b)  # None = the plan's matrix
            x = fut.result(timeout=60)
            assert session.submitted == 1
        assert np.array_equal(
            x, aplan.factorize(engine="rlb").solve(b))

    def test_stream_result_metadata(self, aplan):
        with aplan.serve(engine="rl_par", workers=2) as session:
            factor = session.submit(None).result(timeout=60)
        assert factor.result.extra["stream_index"] == 0
        assert factor.result.extra["granularity"] == "coarse"
        assert factor.result.extra["wall_seconds"] > 0.0
        assert factor.engine == "rl_par"


class TestStreamPoolRobustness:
    def test_raising_on_complete_reroutes_to_on_error(self):
        """A broken completion callback must neither kill a worker thread
        nor strand later graphs (regression: the pool's only worker died
        and close() returned with futures unresolved)."""
        from concurrent.futures import Future

        from repro.numeric.executor import StreamPool

        first, second = Future(), Future()
        with StreamPool(1) as pool:
            pool.submit_graph(
                1, [0], lambda tid: [],
                on_complete=lambda: (_ for _ in ()).throw(RuntimeError("cb")),
                on_error=first.set_exception)
            pool.submit_graph(
                1, [0], lambda tid: [],
                on_complete=lambda: second.set_result("ok"),
                on_error=second.set_exception)
            assert isinstance(first.exception(timeout=30), RuntimeError)
            assert second.result(timeout=30) == "ok"

    def test_raising_on_error_does_not_kill_worker(self):
        from concurrent.futures import Future

        from repro.numeric.executor import StreamPool

        def boom(tid):
            raise ValueError("task")

        done = Future()
        with StreamPool(1) as pool:
            pool.submit_graph(
                1, [0], boom,
                on_complete=lambda: done.set_result("no"),
                on_error=lambda exc: (_ for _ in ()).throw(exc))
            pool.submit_graph(
                1, [0], lambda tid: [],
                on_complete=lambda: done.set_result("ok"),
                on_error=done.set_exception)
            assert done.result(timeout=30) == "ok"


    def test_rootless_graph_is_refused_at_submission(self):
        """A non-empty graph without a root can never start: the workers
        would wait forever and close() would block on the active graph
        (by reading the parent's code; never returned there)."""
        from repro.numeric.executor import StreamPool, run_task_graph

        with pytest.raises(ValueError, match="at least one root"):
            run_task_graph(3, [], lambda tid: [], 2)
        with StreamPool(1) as pool:
            with pytest.raises(ValueError, match="at least one root"):
                pool.submit_graph(3, [], lambda tid: [],
                                  on_complete=lambda: None,
                                  on_error=lambda exc: None)
            assert pool.active == 0
        # the pool closed cleanly: nothing was left active

    def test_empty_graph_completes(self):
        from repro.numeric.executor import run_task_graph

        run_task_graph(0, [], lambda tid: [], 2)


class _Boom(Exception):
    pass


class _RecordedGraph:
    """A random DAG as a ``(ntasks, roots, run_task)`` triple that logs
    its execution order; task ``bad`` (if any) raises."""

    def __init__(self, preds, bad):
        self.preds = preds
        self.bad = bad
        self.ntasks = len(preds)
        self.roots = [t for t, p in enumerate(preds) if not p]
        self.children = [[] for _ in preds]
        for t, ps in enumerate(preds):
            for p in ps:
                self.children[p].append(t)
        self.waiting = [len(p) for p in preds]
        self.lock = threading.Lock()
        self.order = []
        self.completed = 0
        self.errors = []

    def run_task(self, tid):
        with self.lock:
            self.order.append(tid)
        if tid == self.bad:
            raise _Boom(tid)
        newly = []
        with self.lock:
            for c in self.children[tid]:
                self.waiting[c] -= 1
                if not self.waiting[c]:
                    newly.append(c)
        return newly

    def on_complete(self):
        with self.lock:
            self.completed += 1

    def check(self):
        # exactly once, and only after every predecessor
        assert len(set(self.order)) == len(self.order)
        seen = set()
        for t in self.order:
            assert self.preds[t] <= seen
            seen.add(t)
        if self.bad is None:
            assert sorted(self.order) == list(range(self.ntasks))
            assert self.completed == 1 and not self.errors
        else:
            assert self.completed == 0
            assert [type(e) for e in self.errors] == [_Boom]
            assert self.errors[0].args == (self.bad,)
            assert not set(self.children[self.bad]) & set(self.order)


@st.composite
def _recorded_graphs(draw):
    n = draw(st.integers(1, 9))
    preds = [draw(st.sets(st.integers(0, t - 1), max_size=3)) if t else set()
             for t in range(n)]
    bad = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return preds, bad


class TestOneWorkerPool:
    """The one threaded dispatch loop under generated load: random DAGs x
    workers 1-4 (more than this box's cores) x 1-3 graphs in flight."""

    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(_recorded_graphs(), min_size=1, max_size=3),
           workers=st.integers(1, 4))
    def test_random_dags_run_once_in_order_and_fail_alone(self, specs,
                                                          workers):
        from repro.numeric.executor import StreamPool, run_task_graph

        graphs = [_RecordedGraph(preds, bad) for preds, bad in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = StreamPool(workers)
            for g in graphs:
                pool.submit_graph(g.ntasks, g.roots, g.run_task,
                                  on_complete=g.on_complete,
                                  on_error=g.errors.append)
            closer = threading.Thread(target=pool.close)
            closer.start()
            closer.join(timeout=60)
            assert not closer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for g in graphs:
            g.check()
        # the transient-pool door re-raises a graph's failure
        preds, bad = specs[0]
        again = _RecordedGraph(preds, bad)
        if bad is None:
            run_task_graph(again.ntasks, again.roots, again.run_task, workers)
            assert sorted(again.order) == list(range(again.ntasks))
        else:
            with pytest.raises(_Boom):
                run_task_graph(again.ntasks, again.roots, again.run_task,
                               workers)


class TestExecutorTraceInstrumentation:
    @pytest.fixture
    def singles(self, monkeypatch):
        """The module's pattern with every supernode its own task."""
        with monkeypatch.context() as patch:
            force_cut(patch, "singletons")
            system = analyze(grid_laplacian((7, 6, 3)))
            assert len(task_ranges(system.symb)) == system.symb.nsup
        return system

    def test_per_task_events_on_worker_lanes(self, singles):
        system = singles
        tracer = Tracer()
        res = factorize_executor(system.symb, system.matrix, workers=2,
                                 granularity="coarse", tracer=tracer)
        # Tracer.record drops zero-duration intervals, so a trivially
        # small task may be absent on coarse-clock platforms: bound the
        # count instead of demanding exact equality
        assert 0 < len(tracer.events) <= res.extra["tasks"]
        lanes = {e.lane for e in tracer.events}
        assert lanes <= {f"repro-exec-{i}" for i in range(2)}
        names = {e.name for e in tracer.events}
        assert names <= {f"snode:{s}" for s in range(system.symb.nsup)}
        # real timestamps: strictly ordered per event, non-negative
        assert all(0.0 <= e.start < e.end for e in tracer.events)

    def test_range_task_is_labelled_as_a_range(self, system):
        """Under the default cut this small pattern is ONE task: it runs on
        the calling thread and its label names the range."""
        assert len(task_ranges(system.symb)) == 1
        tracer = Tracer()
        res = factorize_executor(system.symb, system.matrix, workers=2,
                                 granularity="fine", tracer=tracer)
        assert res.extra["tasks"] == 1
        (event,) = tracer.events
        assert event.name == f"snodes:0-{system.symb.nsup - 1}"
        assert event.lane == threading.current_thread().name

    def test_chrome_trace_gives_each_worker_its_own_pid(self, singles,
                                                        tmp_path):
        system = singles
        tracer = Tracer()
        factorize_executor(system.symb, system.matrix, workers=2,
                           granularity="fine", tracer=tracer)
        trace = tracer.chrome_trace()
        meta = {r["args"]["name"]: r["pid"] for r in trace
                if r.get("ph") == "M"}
        worker_pids = {pid for lane, pid in meta.items()
                       if lane.startswith("repro-exec-")}
        assert worker_pids
        assert len(worker_pids) == len(
            [ln for ln in meta if ln.startswith("repro-exec-")])
        assert worker_pids.isdisjoint(
            {meta[lane] for lane in LANES})
        tracer.save_chrome_trace(tmp_path / "exec.json")
        assert (tmp_path / "exec.json").exists()
