"""The leaf block: narrow leaf supernodes solved as one sparse block.

Contracts of ``symbolic/levels.py::leaf_block`` and the two block bodies of
``solve/triangular.py``:

* **oracle** — both sweeps agree with scipy's ``solve_triangular`` on the
  dense factor within a conditioning-scaled bound, on every test pattern,
  right-hand-side shape, dtype and storage kind (arena-backed, loose
  panels);
* **schedule** — every schedule of the solve is bitwise the serial sweep, at
  every forced task-range cut;
* **structure** — members are narrow leaves, block and rest cover every
  column once, the targets of a stage are distinct, the builder never
  iterates over members;
* **read at solve time** — the values are gathered per solve, so an in-place
  update is never served stale and a zero pivot is refused.

The scalar constructions the array-at-a-time ``_below_runs`` /
``solve_levels`` replaced are kept here as references.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.numeric import rank_k_update
from repro.numeric.executor import run_task_graph
from repro.numeric.storage import FactorStorage
from repro.serving import Gateway
from repro.solve import backward_solve, forward_solve, solve_graph
from repro.sparse import (
    SymmetricCSC,
    grid_laplacian,
    random_spd,
    tridiagonal,
    vector_stencil,
)
from repro.symbolic import levels
from repro.symbolic.levels import leaf_block, solve_levels, solve_schedule
from repro.symbolic.ranges import trivial_ranges
from repro.update import structured_update
from tests.conftest import CUTS, force_cut, random_spd_dense
from tests.conftest import spd_from_pattern as _spd
from tests.test_solve_program import EDGE_PATTERNS, _rhs_variants
from tests.test_task_ranges import plan_under

DTYPES = [np.float64, np.float32]

PATTERNS = {
    **EDGE_PATTERNS,
    "dense": lambda: SymmetricCSC.from_dense(random_spd_dense(11, np.random.default_rng(0))),
    "chain": lambda: tridiagonal(16),
    # the tests/conftest.py fixtures' matrices
    "small_grid": lambda: grid_laplacian((8, 8, 3)),
    "small_vec": lambda: vector_stencil((5, 5, 4), 3, seed=7),
    "small_random": lambda: random_spd(120, density=0.05, seed=3),
}


def _random_spd(n, density, seed):
    pattern = sp.random(n, n, density=density, random_state=seed, format="csr")
    return _spd(pattern.toarray() != 0)


def _loose(storage):
    """The same factor as loose panels (``arena is None``) — the storage
    shape ``Factor.update`` builds."""
    return FactorStorage(storage.symb, [p.copy(order="F") for p in storage.panels])


def _assert_close_to_oracle(got, want, L, what):
    """Conditioning-scaled bound: a backward-stable triangular solve errs by
    about ``n * eps * cond(L)`` relative to the solution."""
    bound = 50 * L.shape[0] * np.finfo(np.float64).eps * np.linalg.cond(L)
    scale = np.abs(want).max(axis=0)
    assert (np.abs(got - want).max(axis=0) <= bound * scale).all(), what


def _check_against_dense_oracle(storage, seed=0):
    L = storage.to_dense_lower()
    for name, b in _rhs_variants(storage.symb.n, np.random.default_rng(seed)).items():
        b64 = np.asarray(b, dtype=np.float64)
        _assert_close_to_oracle(
            forward_solve(storage, b),
            sla.solve_triangular(L, b64, lower=True),
            L,
            f"forward {name}",
        )
        _assert_close_to_oracle(
            backward_solve(storage, b),
            sla.solve_triangular(L, b64, lower=True, trans="T"),
            L,
            f"backward {name}",
        )


class TestOracle:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_patterns_arena_and_loose(self, pattern, dtype):
        storage = repro.plan(PATTERNS[pattern]()).factorize(engine="rl", dtype=dtype).storage
        _check_against_dense_oracle(storage)
        loose = _loose(storage)
        assert loose.arena is None
        _check_against_dense_oracle(loose)
        # the same values through the other gather: the same bits
        b = np.random.default_rng(1).standard_normal((storage.symb.n, 3))
        for sweep in (forward_solve, backward_solve):
            np.testing.assert_array_equal(sweep(loose, b), sweep(storage, b))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 36), density=st.floats(0.02, 0.6),
           seed=st.integers(0, 2**16), fp32=st.booleans())
    def test_random_spd_patterns(self, n, density, seed, fp32):
        plan = repro.plan(_random_spd(n, density, seed))
        storage = plan.factorize(engine="rl", dtype=np.float32 if fp32 else None).storage
        _check_against_dense_oracle(storage, seed)
        _check_against_dense_oracle(_loose(storage), seed)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_after_factor_update(self, dtype):
        """The loose-panel storage ``Factor.update`` really builds: shared
        and copied panels mixed."""
        A = grid_laplacian((7, 6, 3))
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl", dtype=dtype)
        W = structured_update(plan.symb, plan.perm, [0, 7], seed=3)
        child = factor.update(W)
        assert child.storage.arena is None
        assert len(leaf_block(plan.symb).members)
        _check_against_dense_oracle(child.storage)
        b = np.random.default_rng(2).standard_normal(plan.n)
        dense = A.to_dense() + W @ W.T
        tol = 1e-12 if dtype == np.float64 else 1e-4
        assert np.linalg.norm(dense @ child.solve(b) - b) <= tol * np.linalg.norm(b)

    @pytest.mark.parametrize("cols", [0, 10**9])
    @pytest.mark.parametrize("pattern", ["grid", "arrow", "dense", "small_vec"])
    def test_other_constants(self, monkeypatch, pattern, cols):
        """``LEAF_BLOCK_COLS = 0``: an empty block, every supernode through
        the per-supernode loop (the sweeps before the block).  ``10**9``:
        every leaf a member, however wide."""
        monkeypatch.setattr(levels, "LEAF_BLOCK_COLS", cols)
        plan = repro.plan(PATTERNS[pattern]())
        factor = plan.factorize(engine="rl")
        block = leaf_block(plan.symb)
        leaves = np.bincount(plan.symb.sn_parent[plan.symb.sn_parent >= 0],
                             minlength=plan.symb.nsup) == 0
        assert len(block.members) == (0 if cols == 0 else leaves.sum())
        _check_against_dense_oracle(factor.storage)
        b = np.random.default_rng(3).standard_normal((plan.n, 4))
        serial = factor.solve(b)
        for how in (dict(workers=2), dict(mode="gpu")):
            np.testing.assert_array_equal(factor.solve(b, **how), serial)


def _plan_under(cut, A):
    """A fresh plan of ``A`` whose partition was cut under ``cut``."""
    with pytest.MonkeyPatch.context() as patch:
        return plan_under(patch, cut, A)


def _check_every_schedule(plan, dtype, seed=0):
    factor = plan.factorize(engine="rl", dtype=dtype)
    rng = np.random.default_rng(seed)
    rhs = [rng.standard_normal(plan.n), rng.standard_normal((plan.n, 5))]
    for b in rhs:
        serial = factor.solve(b)
        for how in (dict(workers=1), dict(workers=2), dict(workers=4),
                    dict(mode="gpu")):
            np.testing.assert_array_equal(factor.solve(b, **how), serial, err_msg=str(how))
        y = b[plan.perm]
        run_task_graph(*solve_graph(factor.storage, y, trivial_ranges(plan.symb)), 2)
        np.testing.assert_array_equal(y, serial[plan.perm], err_msg="trivial_ranges")
        np.testing.assert_array_equal(
            factor.solve_refined(b, workers=2), factor.solve_refined(b))
    return factor, rhs[0]


class TestSameBitsInEverySchedule:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_schedule_at_forced_cuts(self, pattern, cut, dtype):
        _check_every_schedule(_plan_under(cut, PATTERNS[pattern]()), dtype)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 36), density=st.floats(0.02, 0.6),
           seed=st.integers(0, 2**16), cut=st.sampled_from(CUTS), fp32=st.booleans())
    def test_schedule_on_random_spd_patterns(self, n, density, seed, cut, fp32):
        plan = _plan_under(cut, _random_spd(n, density, seed))
        _check_every_schedule(plan, np.float32 if fp32 else np.float64, seed)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cut", CUTS)
    def test_schedule_of_loose_panel_storage_at_cuts(self, cut, dtype):
        plan = _plan_under(cut, grid_laplacian((9, 8)))
        factor = plan.factorize(engine="rl", dtype=dtype)
        child = factor.update(structured_update(plan.symb, plan.perm, [0, 5], seed=1))
        assert child.storage.arena is None
        b = np.random.default_rng(4).standard_normal((plan.n, 3))
        serial = child.solve(b)
        for how in (dict(workers=2), dict(workers=4), dict(mode="gpu")):
            np.testing.assert_array_equal(child.solve(b, **how), serial, err_msg=str(how))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cut", CUTS)
    def test_schedule_of_session_and_gateway(self, cut, dtype):
        """Twenty streamed solves and the gateway's hits: the serial bits."""
        A = grid_laplacian((12, 11))
        plan = _plan_under(cut, A)
        assert len(leaf_block(plan.symb).members) > 10
        rng = np.random.default_rng(5)
        rhs = [rng.standard_normal(plan.n) for _ in range(20)]
        values = [A.data * (1.0 + 0.01 * k) for k in range(20)]
        want = [plan.factorize(v, engine="rl", dtype=dtype).solve(b)
                for v, b in zip(values, rhs)]
        with plan.serve(engine="rl_par", workers=2, dtype=dtype) as session:
            futures = [session.submit_solve(v, b) for v, b in zip(values, rhs)]
            for fut, x in zip(futures, want):
                np.testing.assert_array_equal(fut.result(timeout=60), x)

        async def go():
            with pytest.MonkeyPatch.context() as patch:
                force_cut(patch, cut)  # the gateway analyzes the pattern itself
                async with Gateway(workers=2, engine="rl_par", dtype=dtype) as gw:
                    served = [
                        await gw.submit(SymmetricCSC(A.n, A.indptr, A.indices, v, check=False), b)
                        for v, b in zip(values[:4], rhs)
                    ]
                    return served, gw.stats()

        served, stats = asyncio.run(go())
        for got, x in zip(served, want):
            np.testing.assert_array_equal(got, x)
        assert stats.in_flight == 0


def _reference_runs(symb, s):
    """The scalar ``_below_runs`` this PR replaced."""
    below = symb.snode_below_rows(s)
    if not below.size:
        return ()
    owners = symb.col2sn[below]
    cuts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [owners.size]))
    return tuple((int(owners[bounds[i]]), int(bounds[i]), int(bounds[i + 1]))
                 for i in range(bounds.size - 1))


def _reference_levels(symb):
    level = np.zeros(symb.nsup, dtype=np.int64)
    for s in range(symb.nsup):
        p = symb.sn_parent[s]
        if p >= 0:
            level[p] = max(level[p], level[s] + 1)
    return level


def _check_structure(symb):
    sched = solve_schedule(symb)
    assert sched.runs == tuple(_reference_runs(symb, s) for s in range(symb.nsup))
    assert all(type(v) is int for run in sched.runs for triple in run for v in triple)
    np.testing.assert_array_equal(sched.level, _reference_levels(symb))
    np.testing.assert_array_equal(solve_levels(symb), sched.level)
    assert sched.level.dtype == np.int64

    block = leaf_block(symb)
    widths = np.diff(symb.snptr)
    children = np.bincount(symb.sn_parent[symb.sn_parent >= 0], minlength=symb.nsup)
    members = block.members.tolist()
    # members are exactly the narrow leaves; block and rest cover every
    # supernode — hence every column — exactly once
    want = np.flatnonzero((children == 0) & (widths <= levels.LEAF_BLOCK_COLS))
    assert sorted(members) == want.tolist()
    assert sorted(members + block.rest) == list(range(symb.nsup))
    assert block.rest == sorted(block.rest)
    assert [s for task in sched.rest for s in task] == block.rest
    member_cols = np.concatenate(
        [np.arange(*symb.snode_cols(s)) for s in members] or [np.empty(0, int)])
    assert sorted(block.cols.tolist()) == sorted(member_cols.tolist())
    assert len(set(block.cols.tolist())) == block.cols.size
    # no member is ever named by an incoming run
    assert not {s for inc in sched.fwd.incoming for s, _, _ in inc} & set(members)
    nstages = len(block.stage_ptr) - 1
    assert nstages == (widths[members].max() if members else 0)
    for src, tgt, ptr in (block.fwd, block.bwd):
        assert len(ptr) == nstages + 1 and ptr[-1] == src.size == tgt.size
        for j in range(nstages):
            stage = range(block.stage_ptr[j], block.stage_ptr[j + 1])
            t, s = tgt[ptr[j]:ptr[j + 1]], src[ptr[j]:ptr[j + 1]]
            assert len(set(t.tolist())) == t.size, "stage targets collide"
            assert all(c in stage for c in s.tolist())
            assert not set(t.tolist()) & set(stage)
    # L_RC: the below rows of the column's member, sorted, never a member's
    assert block.colptr[-1] == block.rowidx.size
    for c, col in enumerate(block.cols.tolist()):
        rows = block.rowidx[block.colptr[c]:block.colptr[c + 1]]
        np.testing.assert_array_equal(rows, symb.snode_below_rows(symb.col2sn[col]))
        assert (np.diff(rows) > 0).all()
    assert not set(block.rowidx.tolist()) & set(block.cols.tolist())
    a, b, c = block.cuts
    assert a == block.cols.size and b - a == c - b == block.fwd[0].size
    assert block.pos.size - c == block.rowidx.size
    assert block.pos.size == block.loose_pos.size


class TestStructure:
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_patterns(self, pattern):
        _check_structure(repro.plan(PATTERNS[pattern]()).symb)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), density=st.floats(0.0, 0.6), seed=st.integers(0, 2**16))
    def test_random_spd_patterns(self, n, density, seed):
        _check_structure(repro.plan(_random_spd(n, density, seed)).symb)

    @pytest.mark.parametrize("cols", [0, 3, 10**9])
    def test_other_constants(self, monkeypatch, cols):
        monkeypatch.setattr(levels, "LEAF_BLOCK_COLS", cols)
        for pattern in ("grid", "dense", "small_vec", "diagonal"):
            _check_structure(repro.plan(PATTERNS[pattern]()).symb)

    def test_pos_addresses_the_entries_it_names(self):
        """Gathered through ``pos`` (arena) and ``loose_pos`` (member panels
        back to back), the block holds exactly the members' entries of the
        dense factor."""
        plan = repro.plan(grid_laplacian((9, 8)))
        storage = plan.factorize(engine="rl").storage
        block = leaf_block(plan.symb)
        L = storage.to_dense_lower()
        a, b, c = block.cuts
        cols = block.cols
        for values in (storage.leaf_values(block), _loose(storage).leaf_values(block)):
            np.testing.assert_array_equal(values[:a], L[cols, cols])
            src, tgt, _ = block.fwd
            np.testing.assert_array_equal(values[a:b], L[cols[tgt], cols[src]])
            src, tgt, _ = block.bwd
            np.testing.assert_array_equal(values[b:c], L[cols[src], cols[tgt]])
            rect = sp.csc_matrix((values[c:], block.rowidx, block.colptr),
                                 shape=(plan.n, cols.size))
            want = L[:, cols].copy()
            want[cols] = 0.0  # L_CC: the rows of the members' own columns
            np.testing.assert_array_equal(rect.toarray(), want)

    def test_builder_never_iterates_over_members(self):
        """Call count on the 64² grid: the builder executes the same number
        of Python lines for 654 members as for 40 — its loops run over
        stages, never over members."""

        def lines_to_build(A):
            symb = repro.plan(A).symb
            counted = {levels.__file__, sys.modules["repro.symbolic.relind"].__file__}
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                if frame.f_code.co_filename not in counted:
                    return None
                if event == "line":
                    count += 1
                return tracer

            sys.settrace(tracer)
            try:
                block = leaf_block(symb)
            finally:
                sys.settrace(None)
            return count, len(block.members)

        small, few = lines_to_build(grid_laplacian((16, 16)))
        big, many = lines_to_build(grid_laplacian((64, 64)))
        assert many == 654 and few < many // 10
        assert 0 < big <= small + 8 and big < 150  # a few more stages at most

    def test_first_use_race(self):
        """Eight threads asking for the block of a fresh pattern at once all
        get a complete, equal block and one ends up memoised."""
        symb = repro.plan(grid_laplacian((20, 20))).symb
        barrier = threading.Barrier(8)
        got, errors = [], []

        def ask():
            try:
                barrier.wait(timeout=30)
                got.append(leaf_block(symb))
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=ask) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors and len(got) == 8 and not any(t.is_alive() for t in threads)
        assert any(leaf_block(symb) is block for block in got)
        for block in got:
            np.testing.assert_array_equal(block.pos, got[0].pos)
            np.testing.assert_array_equal(block.cols, got[0].cols)
            assert block.rest == got[0].rest


class TestReadAtSolveTime:
    @pytest.fixture()
    def factor(self):
        return repro.plan(grid_laplacian((6, 5, 2))).factorize(engine="rl")

    @staticmethod
    def _member_of_width(factor, pick):
        widths = np.diff(factor.storage.symb.snptr)
        return next(s for s in leaf_block(factor.storage.symb).members.tolist()
                    if pick(widths[s]))

    @pytest.mark.parametrize("loose", [False, True])
    @pytest.mark.parametrize("sweep", [forward_solve, backward_solve])
    def test_zero_pivot_inside_a_member(self, factor, sweep, loose):
        """The same ``LinAlgError`` text ``TestZeroDiagonal`` expects of the
        per-supernode paths, naming the entry inside the member."""
        storage = _loose(factor.storage) if loose else factor.storage
        s = self._member_of_width(factor, lambda w: w >= 3)
        storage.panels[s][2, 2] = 0.0
        for b in (np.ones(storage.symb.n), np.ones((storage.symb.n, 3))):
            with pytest.raises(np.linalg.LinAlgError,
                               match="diagonal entry 2 is exactly zero"):
                sweep(storage, b)
        storage.panels[s][2, 2] = 1.0
        s = self._member_of_width(factor, lambda w: w == 1)
        storage.panels[s][0, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal entry 0 is exactly zero"):
            sweep(storage, np.ones(storage.symb.n))

    @pytest.mark.parametrize("how", [dict(), dict(workers=2), dict(mode="gpu")])
    def test_zero_pivot_from_every_lane_and_the_lane_serves_after(self, factor, how):
        s = self._member_of_width(factor, lambda w: w >= 2)
        b = np.ones(factor.n)
        want = factor.solve(b)
        kept = factor.storage.panels[s][1, 1]
        factor.storage.panels[s][1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal entry 1"):
            factor.solve(b, **how)
        factor.storage.panels[s][1, 1] = kept
        np.testing.assert_array_equal(factor.solve(b, **how), want)

    def test_in_place_update_is_read_by_the_next_solve(self):
        """No stale gather: ``rank_k_update`` writes into the arena after a
        solve has run, the next solve reads the new values."""
        A = grid_laplacian((7, 6, 3))
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl")
        b = np.random.default_rng(3).standard_normal(plan.n)
        before = factor.solve(b)
        # columns of leaf supernodes: the update path starts inside members
        members = leaf_block(plan.symb).members
        cols = plan.symb.snptr[members[:2]].tolist()
        W = structured_update(plan.symb, plan.perm, cols, seed=5)
        rank_k_update(factor.storage, W[plan.perm])
        after = factor.solve(b)
        dense = A.to_dense() + W @ W.T
        assert np.linalg.norm(dense @ after - b) <= 1e-12 * np.linalg.norm(b)
        assert not np.array_equal(after, before)
        for how in (dict(workers=2), dict(mode="gpu")):
            np.testing.assert_array_equal(factor.solve(b, **how), after)


class TestObservability:
    def test_solve_plan_says_what_the_block_holds(self):
        plan = repro.plan(grid_laplacian((64, 64)))
        solve_plan = plan.solve_plan()
        supernodes, columns, entries, nbytes = solve_plan.leaf_block
        block = leaf_block(plan.symb)
        assert (supernodes, columns) == (654, block.cols.size) == (654, 1556)
        assert entries == block.pos.size and nbytes == block.nbytes() > 0
        assert f"leaf_block={solve_plan.leaf_block}" in repr(solve_plan)

    def test_no_narrow_leaf_means_an_empty_block_and_no_block_tasks(self, monkeypatch):
        monkeypatch.setattr(levels, "LEAF_BLOCK_COLS", 0)
        plan = repro.plan(grid_laplacian((9, 8)))
        assert plan.solve_plan().leaf_block[:3] == (0, 0, 0)
        sched = solve_schedule(plan.symb)
        nranges = len(sched.ranges)
        assert len(sched.fwd.children) == len(sched.bwd.children) == nranges
        assert len(sched.fused.children) == 2 * nranges

    def test_block_tasks_in_the_graphs(self):
        plan = repro.plan(grid_laplacian((9, 8)))
        sched = solve_schedule(plan.symb)
        nranges = len(sched.ranges)
        assert sched.fwd.roots == (nranges,) == sched.fused.roots
        assert len(sched.fwd.children) == len(sched.bwd.children) == nranges + 1
        assert len(sched.fused.children) == 2 * nranges + 2
        assert sched.bwd.indeg[nranges] == nranges == sched.fused.indeg[-1]
        for edges in (sched.fwd, sched.bwd, sched.fused):
            indeg = [0] * len(edges.children)
            for kids in edges.children:
                for c in kids:
                    indeg[c] += 1
            assert tuple(indeg) == edges.indeg
            assert edges.roots == tuple(t for t, n in enumerate(indeg) if not n)
