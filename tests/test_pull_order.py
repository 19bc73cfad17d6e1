"""The target pulls: order-independence by construction.

A panel (a segment of the right-hand side) is written only by its own task,
which applies the plan's ``incoming`` list itself, so the bits cannot depend
on the order the scheduler happens to run ready tasks in.

* **any topological order** — every graph (coarse and fine factorization, the
  forward, backward and fused solves) run on ONE thread in a drawn random
  topological order equals the serial twin, ``np.array_equal`` on whole
  arenas and solutions, on the edge patterns of ``test_task_ranges`` at every
  forced cut, fp64 and fp32, and under Hypothesis;
* **the countdown** — from 8 threads switching every 10 µs, each target is
  released exactly once, by its last part;
* **one body** — the thread lane and a process-pool worker run the same
  function; the worker's task over shared memory, in a random order, equals
  the serial twin too;
* **nothing stays parked** — after a factorization, a session of 20
  submissions and a failed (non-SPD) one, every store is empty or gone; a
  small source parks only the entries its leaving runs read.
"""

from __future__ import annotations

import gc
import inspect
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.numeric import executor, factorize_rl_cpu, factorize_rlb_cpu, procpool
from repro.numeric.executor import Countdown, dag_plan, range_tasks, stream_factorize_job
from repro.numeric.rl import _assemble, apply_run, assemble_update, park_runs
from repro.numeric.storage import FactorStorage
from repro.solve import triangular
from repro.solve.triangular import (
    backward_solve,
    backward_solve_graph,
    forward_solve,
    forward_solve_graph,
    solve_factored,
    solve_graph,
)
from repro.sparse import grid_laplacian
from repro.symbolic import analyze, task_ranges
from repro.symbolic.relind import assembly_index
from tests.conftest import CUTS, force_cut
from tests.test_task_ranges import DTYPES, PATTERNS

#: granularity -> the serial engine its graph must reproduce bit for bit
SERIAL = {"coarse": factorize_rl_cpu, "fine": factorize_rlb_cpu}


def system_under(cut, A):
    """``A`` analyzed with its partition cut under ``cut``."""
    with pytest.MonkeyPatch.context() as patch:
        force_cut(patch, cut)
        system = analyze(A)
        task_ranges(system.symb)  # memoised while the constants are patched
    return system


def run_in_random_order(ntasks, roots, run_task, rng):
    """Drain a ``(ntasks, roots, run_task)`` graph on this thread, always
    picking the next task at random among the ready ones; returns the order."""
    ready = list(roots)
    order = []
    while ready:
        tid = ready.pop(rng.randrange(len(ready)))
        order.append(tid)
        ready.extend(run_task(tid) or ())
    assert sorted(order) == list(range(ntasks)), "a task ran twice or never"
    return order


def check_factor_orders(system, granularity, dtype, rng, repeats=3):
    symb, M = system.symb, system.matrix
    want = SERIAL[granularity](symb, M, dtype=dtype)
    plan = dag_plan(symb, granularity)
    for _ in range(repeats):
        storage, ntasks, roots, run_task, _ = stream_factorize_job(
            symb, M, granularity, dtype=dtype
        )
        assert (ntasks, tuple(roots)) == (plan.ntasks, plan.roots)
        order = run_in_random_order(ntasks, roots, run_task, rng)
        # the drawn order is a topological order of DagPlan.children
        position = {tid: i for i, tid in enumerate(order)}
        for tid, kids in enumerate(plan.children):
            assert all(position[tid] < position[c] for c in kids)
        assert storage.arena.dtype == want.storage.arena.dtype
        assert np.array_equal(storage.arena, want.storage.arena), order


def check_solve_orders(system, rng, repeats=2):
    storage = factorize_rl_cpu(system.symb, system.matrix).storage
    gen = np.random.default_rng(system.symb.n)
    for b in (gen.standard_normal(system.symb.n), gen.standard_normal((system.symb.n, 16))):
        sweeps = (
            (forward_solve_graph, forward_solve(storage, b)),
            (backward_solve_graph, backward_solve(storage, b)),
            (solve_graph, solve_factored(storage, b)),
        )
        for graph, want in sweeps:
            for _ in range(repeats):
                y = b.copy()
                order = run_in_random_order(*graph(storage, y), rng)
                assert np.array_equal(y, want), (graph.__name__, order)


class TestAnyTopologicalOrder:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("granularity", sorted(SERIAL))
    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_factorization(self, pattern, cut, granularity, dtype):
        system = system_under(cut, PATTERNS[pattern]())
        check_factor_orders(system, granularity, dtype, random.Random(f"{pattern}/{cut}"))

    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_solves(self, pattern, cut):
        check_solve_orders(system_under(cut, PATTERNS[pattern]()), random.Random(pattern + cut))

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(1, 3)),
        cut=st.sampled_from(CUTS),
        granularity=st.sampled_from(sorted(SERIAL)),
        fp32=st.booleans(),
        rng=st.randoms(use_true_random=False),
    )
    def test_drawn_orders(self, shape, cut, granularity, fp32, rng):
        system = system_under(cut, grid_laplacian(shape))
        dtype = np.float32 if fp32 else np.float64
        check_factor_orders(system, granularity, dtype, rng, repeats=1)
        check_solve_orders(system, rng, repeats=1)


class TestCountdown:
    def test_each_target_released_once_by_its_last_part(self):
        """8 threads, a 10 µs switch interval: a lost decrement would strand a
        target, a doubled one would release it before its last part."""
        ntargets, per_thread, nthreads = 16, 60, 8
        countdown = Countdown([per_thread * nthreads] * ntargets)
        released = [[] for _ in range(nthreads)]
        released_so_far = set()
        late = []  # parts delivered to an already released target
        start = threading.Barrier(nthreads)

        def deliver(k):
            order = list(range(ntargets)) * per_thread
            random.Random(k).shuffle(order)
            start.wait(timeout=30)
            for t in order:
                if t in released_so_far:
                    late.append(t)
                got = countdown.deliver((t,))
                released_so_far.update(got)
                released[k].extend(got)

        threads = [threading.Thread(target=deliver, args=(k,)) for k in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(t for got in released for t in got) == list(range(ntargets))
        assert not late

    def test_task_reports_what_it_released(self):
        countdown = Countdown([0, 1, 2])
        ran = []
        run_task = countdown.task(ran.append, [(1, 2), (2,), ()])
        assert run_task(0) == [1]
        assert run_task(1) == [2]
        assert run_task(2) == [] and ran == [0, 1, 2]


class TestOneBody:
    def test_no_task_body_left_in_procpool(self):
        source = inspect.getsource(procpool)
        for gone in ("compute_block_pair", "apply_run", "factor_snode", "np.copyto(scratch"):
            assert gone not in source
        assert procpool.range_tasks is executor.range_tasks

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("granularity", sorted(SERIAL))
    def test_worker_state_runs_the_thread_lanes_body(self, granularity, dtype):
        """A worker's warmed state, built in this process over the parent's
        shared arenas, runs the function the threads run — and, driven in a
        random topological order by the parent's edges, gives the serial bits."""
        system = system_under("mixed", grid_laplacian((9, 8)))
        symb, M = system.symb, system.matrix
        plan = dag_plan(symb, granularity)
        assert plan.ntasks > 3
        entry = procpool._WarmEntry(None, symb, granularity, dtype)
        state = None
        try:
            state = procpool._WorkerState(
                symb,
                granularity,
                plan.ranges.bounds,
                entry.panels_shm.name,
                entry.scratch_shm.name,
                np.dtype(dtype),
            )
            thread_run = range_tasks(symb, entry.storage, plan, {})
            assert state.run_task.__code__ is thread_run.__code__
            procpool.ProcessPool._scatter(None, entry, M)
            count = Countdown(plan.indeg)
            run_in_random_order(
                plan.ntasks, plan.roots, count.task(state.run_task, plan.children), random.Random(7)
            )
            want = SERIAL[granularity](symb, M, dtype=dtype)
            assert np.array_equal(entry.storage.arena, want.storage.arena)
        finally:
            thread_run = None
            if state is not None:
                state.release()
            entry.close()


class _Store(dict):
    """A parked store a test can hold a weak reference to."""


class TestNothingStaysParked:
    @pytest.fixture
    def stores(self, monkeypatch):
        """Every parked store made while the test runs: the factorization
        graphs' (swapped for a weakly referenceable dict) and the solves'."""
        made = []
        real_tasks, real_forward = executor.range_tasks, triangular._forward_range

        def spy_tasks(symb, storage, plan, parked):
            made.append(_Store())
            return real_tasks(symb, storage, plan, made[-1])

        def spy_forward(storage, y, sched, parked, tid):
            if not any(parked is seen for seen in made):
                made.append(parked)
            return real_forward(storage, y, sched, parked, tid)

        monkeypatch.setattr(executor, "range_tasks", spy_tasks)
        monkeypatch.setattr(triangular, "_forward_range", spy_forward)
        return made

    def test_entries_are_dropped_on_last_use(self, stores):
        with pytest.MonkeyPatch.context() as patch:
            force_cut(patch, "mixed")
            plan = repro.plan(grid_laplacian((14, 12)))
            task_ranges(plan.symb)
        assert len(task_ranges(plan.symb)) > 4
        for engine in ("rl_par", "rlb_par"):
            f = plan.factorize(engine=engine, workers=2)
        f.solve(np.ones((plan.n, 3)), workers=2)
        with plan.serve(engine="rl_par", workers=2) as session:
            futures = [
                session.submit_solve(plan.matrix.data * (1.0 + 0.01 * k), np.ones(plan.n))
                for k in range(20)
            ]
            for fut in futures:
                assert np.isfinite(fut.result(timeout=60)).all()
        assert len(stores) >= 2 + 1 + 2 * 20
        assert not any(stores), "an update outlived its last reader"

    def test_a_flat_source_parks_only_what_its_leaving_runs_read(self):
        """``park_runs`` keeps one gather of the leaving runs' entries — no
        zero upper triangle, nothing of the runs that stayed — and applying
        those runs out of it, one by one, is the serial assembly."""
        system = system_under("mixed", grid_laplacian((14, 12)))
        symb = system.symb
        plan, index = dag_plan(symb, "coarse"), assembly_index(symb)
        storage = FactorStorage.from_matrix(symb, system.matrix)
        rng = np.random.default_rng(3)
        checked = 0
        for s, stay in enumerate(plan.stay):
            nruns = len(index.targets[s])
            if stay == nruns or index.flat[s] is None:
                continue
            b = len(symb.snode_below_rows(s))
            U = np.asfortranarray(np.tril(rng.standard_normal((b, b))))
            kept = park_runs(storage, index, s, U, stay)
            assert kept.ndim == 1 and kept.size <= b * (b + 1) // 2
            assert (kept.size < b * (b + 1) // 2) == (stay > 0)
            storage.arena[:] = 0.0
            assemble_update(symb, storage, s, U)
            want = storage.arena.copy()
            storage.arena[:] = 0.0
            if stay:
                _assemble(storage, index, s, U, stay)
            for r in range(stay, nruns):
                apply_run(storage, index, s, r, kept, stay)
            assert np.array_equal(storage.arena, want)
            checked += 1
        assert checked > 10

    def test_a_failed_graphs_store_dies_with_it(self, stores):
        with pytest.MonkeyPatch.context() as patch:
            force_cut(patch, "singletons")
            plan = repro.plan(grid_laplacian((9, 8)))
            task_ranges(plan.symb)
        # one pool thread drains the ready queue first in, first out: every
        # other leaf has parked its update when the last one hits its pivot
        last_leaf = dag_plan(plan.symb, "coarse").roots[-1]
        bad = plan.matrix.data.copy()
        bad[plan.matrix.indptr[int(plan.perm[plan.symb.snptr[last_leaf]])]] = -1.0
        with plan.serve(engine="rl_par", workers=1) as session:
            failed = session.submit(bad)
            with pytest.raises(repro.NotPositiveDefiniteError):
                failed.result(timeout=60)
            good = session.submit(None).result(timeout=60)
        assert np.array_equal(good.storage.arena, plan.factorize(engine="rl").storage.arena)
        assert any(stores), "the failing graph was expected to leave updates parked"
        refs = [weakref.ref(store) for store in stores]
        del failed, stores[:]  # the future's traceback holds the task's frames
        gc.collect()
        assert not any(ref() is not None for ref in refs)
