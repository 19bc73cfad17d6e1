"""Task ranges: the descendant-closed partition every CPU runtime schedules.

* **the partition** — on generated SPD patterns and the degenerate ones,
  under every forced cut: ``bounds`` strictly increasing from 0 to ``nsup``;
  every range of several supernodes closed under descendants; every target
  an update reaches outside its source's range a single-supernode range; the
  trivial partition satisfies the same; the plans built over a partition
  agree with it edge for edge;
* **same bits at every cut** — threads, processes, the batch, the serving
  session (plain and refined) and the level solves against their serial
  twins, ``np.array_equal`` on whole arenas and solutions, fp64 and fp32;
  the fine DAG one task per range, its ``rlb_par`` arenas ``rlb``'s bytes;
* **failures** — a non-SPD pivot inside a multi-supernode range raises the
  serial engine's pivot from every lane and leaves the lane serviceable.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dense import NotPositiveDefiniteError
from repro.numeric.executor import dag_plan
from repro.numeric.procpool import close_default_pools
from repro.numeric.registry import serial_twin
from repro.solve import refine
from repro.sparse import SymmetricCSC, grid_laplacian, kkt_like, tridiagonal, vector_stencil
from repro.symbolic import solve_schedule, task_ranges, trivial_ranges
from repro.symbolic.blocks import pair_index
from repro.symbolic.relind import assembly_index
from tests.conftest import (
    CUTS,
    arrow_spd,
    force_cut,
    random_spd_dense,
    spd_from_pattern,
    two_component_spd,
)

DTYPES = [np.float64, np.float32]


@pytest.fixture(scope="module", autouse=True)
def _release_default_pools():
    yield
    close_default_pools()


PATTERNS = {
    "n1": lambda: spd_from_pattern(np.zeros((1, 1), dtype=bool)),
    "diagonal": lambda: spd_from_pattern(np.zeros((9, 9), dtype=bool)),
    "dense": lambda: SymmetricCSC.from_dense(random_spd_dense(11, np.random.default_rng(0))),
    "arrow": lambda: arrow_spd(12),
    "chain": lambda: tridiagonal(16),
    "forest": lambda: two_component_spd(7),
    "grid2d": lambda: grid_laplacian((9, 8)),
    "grid3d": lambda: grid_laplacian((6, 5, 2)),
    "kkt": lambda: kkt_like(60, 15, density=0.08),
}


def plan_under(monkeypatch, cut, A):
    """A fresh plan of ``A`` whose partition was cut under ``cut``."""
    with monkeypatch.context() as patch:
        force_cut(patch, cut)
        plan = repro.plan(A)
        task_ranges(plan.symb)  # memoised while the constants are patched
    return plan


def check_partition(symb, ranges):
    bounds = np.asarray(ranges.bounds)
    nsup = symb.nsup
    assert bounds[0] == 0 and bounds[-1] == nsup and (np.diff(bounds) > 0).all()
    assert len(ranges) == bounds.size - 1
    range_of = np.asarray(ranges.range_of)
    assert np.array_equal(range_of, np.repeat(np.arange(len(ranges)), np.diff(bounds)))
    single = np.diff(bounds) == 1
    # first supernode of every subtree (postorder: a subtree is first[s]..s)
    first = np.arange(nsup)
    for s, p in enumerate(symb.sn_parent):
        if p >= 0:
            first[p] = min(first[p], first[s])
    for s in range(nsup):
        t = range_of[s]
        if not single[t]:
            assert first[s] >= bounds[t], "a range of several supernodes misses a descendant"
        targets = np.unique(symb.col2sn[symb.snode_below_rows(s)])
        outside = targets[targets >= bounds[t + 1]]
        assert single[range_of[outside]].all(), "an update leaves its range into a closed range"


def check_plans(symb, ranges):
    """The plans over ``ranges`` against the partition, edge for edge."""
    bounds, range_of = ranges.bounds, ranges.range_of
    index = assembly_index(symb)
    coarse = dag_plan(symb, "coarse", ranges)
    assert coarse.ntasks == len(ranges) and not coarse.targets
    want_in = [[] for _ in ranges.bounds[1:]]
    for s, targets in enumerate(index.targets):
        hi = bounds[range_of[s] + 1]
        assert coarse.stay[s] == sum(p < hi for p in targets)
        for r, p in enumerate(targets):
            if p >= hi:
                want_in[range_of[p]].append((s, r))
    assert [list(x) for x in coarse.incoming] == want_in
    feeders = [sorted({range_of[s] for s, _ in inc}) for inc in want_in]
    assert list(coarse.indeg) == [len(f) for f in feeders]
    # one part per (source range, target): no edge twice, as many as are waited for
    assert all(len(set(kids)) == len(kids) for kids in coarse.children)
    assert sum(map(len, coarse.children)) == sum(coarse.indeg)
    assert coarse.roots == tuple(t for t, f in enumerate(feeders) if not f)
    for t, kids in enumerate(coarse.children):
        assert sorted(kids) == [p for p, f in enumerate(feeders) if t in f]

    # fine: one task per range too, every leaving pair parked in a slot
    fine = dag_plan(symb, "fine", ranges)
    assert fine.ntasks == len(ranges) == len(fine.incoming)
    blocks = pair_index(symb)
    source_of = []
    for s in range(symb.nsup):
        hi = bounds[range_of[s] + 1]
        pairs = range(blocks.pair_ptr[s], blocks.pair_ptr[s + 1])
        gone = [k for k in pairs if blocks.blk_owner[blocks.upper[k]] >= hi]
        # the source's slots: consecutive, next, in serial order
        slots = range(len(source_of), len(source_of) + len(gone))
        assert fine.pair_ids[s] == slots
        assert [fine.targets[slot] for slot in slots] == list(blocks.targets_of(gone))
        source_of += [s] * len(gone)
    assert len(fine.targets) == len(source_of)
    # a target pulls its incoming slots in ascending source order
    for t, inc in enumerate(fine.incoming):
        sources = [source_of[slot] for slot in inc]
        assert sources == sorted(sources)
        assert all(range_of[fine.targets[slot][0]] == t for slot in inc)
    assert sorted(slot for inc in fine.incoming for slot in inc) == list(range(len(source_of)))
    # the pairs leave for the ranges the assembly runs do: the coarse edges
    assert fine.indeg == coarse.indeg and fine.roots == coarse.roots
    assert [sorted(kids) for kids in fine.children] == [sorted(k) for k in coarse.children]

    sched = solve_schedule(symb, ranges)
    for s, runs in enumerate(sched.runs):
        hi = bounds[range_of[s] + 1]
        out = tuple((range_of[p], a, b) for p, a, b in runs if p >= hi)
        if not out:
            assert sched.leaving[s] is None
        else:
            assert sched.leaving[s] == (sum(b - a for p, a, b in runs if p < hi), out)


class TestPartition:
    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_edge_patterns(self, monkeypatch, pattern, cut):
        symb = plan_under(monkeypatch, cut, PATTERNS[pattern]()).symb
        ranges = task_ranges(symb)
        for part in (ranges, trivial_ranges(symb)):
            check_partition(symb, part)
            check_plans(symb, part)
        assert task_ranges(symb) is ranges  # memoised: pattern-only
        if cut == "singletons":
            assert ranges is trivial_ranges(symb)
        if cut == "one":
            assert len(ranges) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**16),
        cut=st.sampled_from(CUTS),
    )
    def test_random_spd_patterns(self, n, density, seed, cut):
        pattern = sp.random(n, n, density=density, random_state=seed, format="csr")
        with pytest.MonkeyPatch.context() as patch:
            symb = plan_under(patch, cut, spd_from_pattern(pattern.toarray() != 0)).symb
        for part in (task_ranges(symb), trivial_ranges(symb)):
            check_partition(symb, part)
            check_plans(symb, part)

    def test_default_cut_on_the_benchmark_grid(self):
        """The claimed sizes: 957 supernodes in 21 ranges, one task per range
        at either granularity, and scratch slots only where a run leaves its
        range."""
        from repro.numeric.procpool import _scratch_shapes

        symb = repro.plan(grid_laplacian((64, 64))).symb
        ranges = task_ranges(symb)
        check_partition(symb, ranges)
        coarse, fine = dag_plan(symb, "coarse"), dag_plan(symb, "fine")
        assert (symb.nsup, coarse.ntasks, fine.ntasks) == (957, 21, 21)
        slots = _scratch_shapes(symb, coarse)
        targets = assembly_index(symb).targets
        assert sorted(slots) == [s for s in range(symb.nsup) if coarse.stay[s] < len(targets[s])]
        assert 0 < len(slots) < symb.nsup // 2
        trivial = dag_plan(symb, "coarse", trivial_ranges(symb))
        assert trivial.ntasks == symb.nsup and trivial is not coarse


def _same_arena(got, want, what):
    assert got.storage.arena is not None and want.storage.arena is not None
    assert got.storage.arena.dtype == want.storage.arena.dtype
    assert np.array_equal(got.storage.arena, want.storage.arena), what


def _check_every_lane(plan, dtype, procs):
    """Every scheduled lane of ``plan`` against its serial twin."""
    rng = np.random.default_rng(plan.n)
    values = [plan.matrix.data * (1.0 + 0.1 * k) for k in range(3)]
    assert dag_plan(plan.symb, "fine").ntasks == len(task_ranges(plan.symb))

    def serial(v, engine):
        return plan.factorize(v, engine=serial_twin(engine), dtype=dtype)

    def check(engine, workers):
        got = plan.factorize(values[0], engine=engine, workers=workers, dtype=dtype)
        _same_arena(got, serial(values[0], engine), f"{engine} workers={workers}")

    for workers in (1, 2, 4):
        check("rl_par", workers)
        check("rlb_par", workers)
    if procs:
        check("rl_proc", 2)
    for engine in ("rl_par", "rlb_par"):
        batch = plan.factorize_batch(values, engine=engine, workers=2, dtype=dtype)
        for v, f in zip(values, batch):
            _same_arena(f, serial(v, engine), f"batch {engine}")
    rl = serial(values[0], "rl_par")

    b1 = rng.standard_normal(plan.n)
    b16 = rng.standard_normal((plan.n, 16))
    for b in (b1, b16):
        want = rl.solve(b)
        for workers in (1, 2, 4):
            assert np.array_equal(rl.solve(b, workers=workers), want)
    with plan.serve(engine="rlb_par", workers=2, dtype=dtype) as session:
        plain = [session.submit_solve(v, b1) for v in values]
        refined = session.submit_solve(values[1], b1, refine=True, tol=1e-30, max_iter=2)
        block = session.submit_solve(values[2], b16)
        for v, fut in zip(values, plain):
            assert np.array_equal(fut.result(), serial(v, "rlb_par").solve(b1))
        twin = serial(values[1], "rlb_par")
        want = refine(twin.matrix, twin.storage, plan.perm, b1, tol=1e-30, max_iter=2).x
        assert np.array_equal(refined.result(), want)
        assert np.array_equal(block.result(), serial(values[2], "rlb_par").solve(b16))


class TestSameBitsAtEveryCut:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_edge_patterns(self, monkeypatch, pattern, cut, dtype):
        plan = plan_under(monkeypatch, cut, PATTERNS[pattern]())
        procs = dtype is np.float64 or pattern in ("grid2d", "kkt")
        _check_every_lane(plan, dtype, procs)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 40),
        density=st.floats(0.02, 0.6),
        seed=st.integers(0, 2**16),
        cut=st.sampled_from(CUTS),
        fp32=st.booleans(),
    )
    def test_random_spd_patterns(self, n, density, seed, cut, fp32):
        pattern = sp.random(n, n, density=density, random_state=seed, format="csr")
        with pytest.MonkeyPatch.context() as patch:
            plan = plan_under(patch, cut, spd_from_pattern(pattern.toarray() != 0))
        _check_every_lane(plan, np.float32 if fp32 else np.float64, procs=seed % 4 == 0)

    def test_mixed_cut_under_thread_switching_stress(self, monkeypatch):
        """Closed ranges under single supernodes, five threads on two cores
        switching every 10 µs: a lost or reordered cross-range commit would
        change the bits."""
        plan = plan_under(monkeypatch, "mixed", grid_laplacian((14, 12)))
        ranges = task_ranges(plan.symb)
        sizes = np.diff(ranges.bounds)
        assert (sizes > 1).any() and (sizes == 1).sum() > 3
        rl = plan.factorize(engine="rl")
        rlb = plan.factorize(engine="rlb")
        b = np.random.default_rng(1).standard_normal((plan.n, 3))
        want = rl.solve(b)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                _same_arena(plan.factorize(engine="rl_par", workers=5), rl, "rl_par")
                _same_arena(plan.factorize(engine="rlb_par", workers=5), rlb, "rlb_par")
                assert np.array_equal(rl.solve(b, workers=5), want)
        finally:
            sys.setswitchinterval(interval)

    def test_partition_is_the_same_for_every_lane(self):
        """One partition per pattern: the thread, process and solve plans of
        a pattern all hang off the same object."""
        plan = repro.plan(grid_laplacian((24, 28)))
        ranges = task_ranges(plan.symb)
        assert 1 < len(ranges) < plan.symb.nsup
        f = plan.factorize(engine="rl_par", workers=2)
        plan.factorize(engine="rlb_par", workers=2, dtype=np.float32)
        f.solve(np.ones(plan.n), workers=2)
        assert task_ranges(plan.symb) is ranges
        assert {"executor_coarse", "executor_fine", "solve"} <= set(ranges.memo)
        assert f.result.extra["tasks"] == len(ranges)


FINE_PATTERNS = {
    "grid2d": lambda: grid_laplacian((20, 18)),
    "grid3d": lambda: grid_laplacian((7, 6, 5)),
    "vec": lambda: vector_stencil((5, 5, 4), 3, seed=7),
    "kkt": lambda: kkt_like(300, 75, density=0.02),
}


class TestOneTaskPerRange:
    """The fine DAG runs one task per range — a single supernode's block
    pairs are no tasks of their own — and ``rlb_par`` writes ``rlb``'s
    bytes: the whole arena, dead space included, compared as raw bytes so a
    signed zero or a NaN payload would show."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("pattern", sorted(FINE_PATTERNS))
    def test_rlb_par_writes_the_serial_bytes(self, monkeypatch, pattern, cut, dtype, workers):
        plan = plan_under(monkeypatch, cut, FINE_PATTERNS[pattern]())
        ranges = task_ranges(plan.symb)
        assert dag_plan(plan.symb, "fine").ntasks == len(ranges)
        got = plan.factorize(engine="rlb_par", workers=workers, dtype=dtype)
        want = plan.factorize(engine="rlb", dtype=dtype)
        assert got.result.extra["granularity"] == "fine"
        assert got.result.extra["tasks"] == len(ranges)
        assert got.storage.arena.dtype == want.storage.arena.dtype == dtype
        assert got.storage.arena.tobytes() == want.storage.arena.tobytes()


class TestNotPositiveDefinite:
    @pytest.fixture(scope="class", params=["mixed", "one"])
    def broken(self, request):
        """A negative diagonal entry whose supernode lies strictly inside a
        range of several supernodes."""
        A = grid_laplacian((9, 8))
        with pytest.MonkeyPatch.context() as patch:
            plan = plan_under(patch, request.param, A)
        symb = plan.symb
        ranges = task_ranges(symb)
        bounds = ranges.bounds
        t = max(range(len(ranges)), key=lambda t: bounds[t + 1] - bounds[t])
        assert bounds[t + 1] - bounds[t] > 2
        s = bounds[t] + 1  # neither the first nor the last of its range
        col = int(plan.perm[symb.snptr[s]])  # original column of its first pivot
        good = A.data.copy()
        bad = A.data.copy()
        bad[A.indptr[col]] = -5.0
        with pytest.raises(NotPositiveDefiniteError) as ei:
            plan.factorize(bad, engine="rl")
        assert ei.value.pivot == 0  # the first pivot of supernode s's diagonal block
        return plan, good, bad, ei.value.pivot

    @pytest.mark.parametrize(
        "how",
        [
            dict(engine="rl_par", workers=1),
            dict(engine="rl_par", workers=3),
            dict(engine="rlb_par", workers=2),
            dict(engine="rl_proc", workers=2),
        ],
    )
    def test_same_pivot_from_every_lane(self, broken, how):
        plan, good, bad, pivot = broken
        with pytest.raises(NotPositiveDefiniteError) as ei:
            plan.factorize(bad, **how)
        assert ei.value.pivot == pivot
        # the lane (and, for processes, the pool) is still serviceable
        twin = plan.factorize(good, engine=serial_twin(how["engine"]))
        _same_arena(plan.factorize(good, **how), twin, "after the failure")

    @pytest.mark.parametrize("engine", ["rl_par", "rlb_par", "rl_proc"])
    def test_batch_names_the_lowest_position(self, broken, engine):
        plan, good, bad, pivot = broken
        with pytest.raises(NotPositiveDefiniteError) as ei:
            plan.factorize_batch([good, bad, good, bad], engine=engine, workers=2)
        assert ei.value.pivot == pivot and ei.value.batch_index == 1

    def test_session_fails_the_one_submission(self, broken):
        plan, good, bad, pivot = broken
        b = np.ones(plan.n)
        with plan.serve(engine="rlb_par", workers=2) as session:
            first = session.submit_solve(good, b)
            failed = session.submit_solve(bad, b)
            after = session.submit_solve(good, b)
            want = plan.factorize(good, engine="rlb").solve(b)
            assert np.array_equal(first.result(), want)
            with pytest.raises(NotPositiveDefiniteError) as ei:
                failed.result()
            assert ei.value.pivot == pivot and ei.value.stream_index == 1
            assert np.array_equal(after.result(), want)
