"""The compiled serial solve (``numeric/_solve.c``) against the Python walk it
stands in for, and the schedules that must give its bits.

Contracts:

* **same bytes** — the compiled forward sweep, backward sweep and full solve
  equal the Python walk (``forward_snode`` / ``backward_snode`` over every
  supernode) byte for byte: one right-hand side and sixteen, fp64 and fp32
  (the refinement chain's work dtype), on an arena-backed storage, a derived
  copy-on-write storage and a plan's work storage; and whole refinement
  chains, fp64 and fp32;
* **oracle** — both sweeps agree with scipy's ``solve_triangular`` on the
  dense factor within a conditioning-scaled bound, after ``Factor.update``
  too;
* **every schedule** — ``Factor.solve(workers=N)`` (the Python task bodies
  of the fused graph) is bitwise the serial solve at every forced task-range
  cut, on arena, derived and merged storages, and sessions and the gateway
  serve the direct bits;
* **read at solve time** — an exactly-zero pivot raises the same
  ``LinAlgError`` text from every lane, which serves again once repaired,
  and a refilled work storage is read by the next solve;
* **mixed precision** — an fp32 factor under a float64 right-hand side takes
  the compiled float64 walk over an exact upcast of its panels, the Python
  walk's bytes, and its answer is the fp64 solve of the upcast factor;
* **schedule structure** — the below-row runs and the tree levels equal
  their scalar references, and every graph has one task per range and
  sweep.

Where no compiler is available both sides are the Python walk, and every
test here still holds: that is the fallback run.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.numeric import _native
from repro.numeric.executor import run_task_graph
from repro.numeric.registry import resolve
from repro.numeric.storage import FactorStorage
from repro.serving import Gateway
from repro.solve import backward_solve, forward_solve, refine, solve_graph, triangular
from repro.sparse import SymmetricCSC, grid_laplacian, random_spd, tridiagonal, vector_stencil
from repro.symbolic.levels import solve_levels, solve_schedule
from repro.symbolic.ranges import trivial_ranges
from repro.update import structured_update
from tests.conftest import CUTS, arena_copy, force_cut, random_spd_dense, writable_twin
from tests.conftest import spd_from_pattern as _spd
from tests.test_compiled_rl import NO_DEFAULT_CC
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


def _derived(storage):
    """The same factor as a copy-on-write storage over ``storage`` with
    every panel private — the storage shape ``Factor.update`` builds."""
    return FactorStorage.derived(storage, range(storage.symb.nsup))


def _python_walk(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the compiled solve out of reach: the
    serial sweeps walk in Python (the compiled factor loops stay)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triangular, "solve_loop", lambda: None)
        return fn(*args, **kwargs)


def _same_bytes(got, want, what=""):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _check_same_bytes(storage, dtype, seed=0):
    """Forward, backward and full solves, one right-hand side and sixteen
    (C- and F-ordered) in ``dtype``: the compiled walk's bytes are the
    Python walk's."""
    rng = np.random.default_rng(seed)
    n = storage.symb.n
    for b in (rng.standard_normal(n), rng.standard_normal((n, 16)),
              np.asfortranarray(rng.standard_normal((n, 16))), rng.standard_normal((n, 1)),
              np.empty((n, 0))):
        b = b.astype(dtype)
        for sweeps in (triangular.FORWARD, triangular.BACKWARD,
                       triangular.FORWARD | triangular.BACKWARD):
            got = triangular._serial(storage, b.copy(), sweeps)
            want = _python_walk(triangular._serial, storage, b.copy(), sweeps)
            _same_bytes(got, want, f"sweeps {sweeps}, shape {b.shape}")


@pytest.mark.skipif(NO_DEFAULT_CC, reason="no default compiler")
def test_a_machine_with_cc_builds_the_solve():
    """Where ``cc`` exists and ``$CC`` does not name another compiler, the
    serial solve runs compiled: the differential tests compare two bodies."""
    loops = _native.solve_loop()
    assert loops is not None and set(loops) == {np.dtype(np.float64), np.dtype(np.float32)}


def test_the_serial_solve_is_one_compiled_call(monkeypatch):
    """``Factor.solve`` calls the compiled walk once for both sweeps and
    cuts no view; ``forward_solve`` / ``backward_solve`` once each."""
    factor = repro.plan(grid_laplacian((9, 8))).factorize(engine="rl")
    calls = []
    real = triangular._compiled
    monkeypatch.setattr(triangular, "_compiled",
                        lambda *a: calls.append(a[2]) or real(*a))
    b = np.ones(factor.n)
    factor.solve(b)
    forward_solve(factor.storage, b)
    backward_solve(factor.storage, b)
    if triangular.serial_body(factor.storage) == "compiled":
        assert calls == [triangular.FORWARD | triangular.BACKWARD, triangular.FORWARD,
                         triangular.BACKWARD]
        assert factor.storage._panels is None and factor.storage._solve_program is None
    else:
        assert calls == []


class TestSameBytes:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_arena_and_derived(self, pattern, dtype):
        storage = repro.plan(PATTERNS[pattern]()).factorize(engine="rl", dtype=dtype).storage
        _check_same_bytes(storage, dtype)
        _check_same_bytes(_derived(storage), dtype)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 36), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**16), fp32=st.booleans())
    def test_random_spd_patterns(self, n, density, seed, fp32):
        dtype = np.float32 if fp32 else np.float64
        storage = repro.plan(_random_spd(n, density, seed)).factorize(dtype=dtype).storage
        _check_same_bytes(storage, dtype, seed)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_after_factor_update(self, dtype):
        """The copy-on-write storage ``Factor.update`` really builds:
        shared and copied panels mixed, a chain of two updates."""
        plan = repro.plan(grid_laplacian((7, 6, 3)))
        factor = plan.factorize(engine="rl", dtype=dtype)
        child = factor.update(structured_update(plan.symb, plan.perm, [0, 7], seed=3))
        grandchild = child.update(structured_update(plan.symb, plan.perm, [40], seed=4))
        for f in (child, grandchild):
            assert f.storage.arena is None and f.storage._root is factor.storage
            _check_same_bytes(f.storage, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_work_storage(self, dtype):
        """A plan's work storage, solved inside its request."""
        A = grid_laplacian((9, 8))
        plan = repro.plan(A)
        spec, kwargs = resolve("rl", dtype=dtype)
        got = plan._request(spec, kwargs, plan._original_matrix(A.data),
                            lambda factor: _check_same_bytes(factor.storage, dtype) or True)
        assert got and len(plan._work[np.dtype(dtype)]) == 1

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_refinement_chains(self, dtype):
        """A whole refinement chain — the residuals measured between the
        solves — gives the same bytes on both bodies; fp32 chains solve in
        fp32 on the factor."""
        A = grid_laplacian((12, 11))
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl", dtype=dtype)
        b = np.cos(np.arange(A.n))
        for storage in (factor.storage, _derived(factor.storage)):
            got = refine(A, storage, plan.perm, b, tol=0.0, max_iter=3)
            want = _python_walk(refine, A, storage, plan.perm, b, tol=0.0, max_iter=3)
            _same_bytes(got.x, want.x)
            assert got.residual_norms == want.residual_norms

    def test_two_threads_at_once_get_the_serial_bytes(self):
        """The compiled walk runs with the interpreter lock released, one
        workspace per call: two threads solving one factor at once, over and
        over, both get its serial bytes."""
        factor = repro.plan(grid_laplacian((20, 20))).factorize(engine="rl")
        b = np.random.default_rng(5).standard_normal((factor.n, 4))
        want = factor.solve(b)
        barrier, errors = threading.Barrier(2), []

        def run():
            try:
                for _ in range(10):
                    barrier.wait(timeout=60)
                    _same_bytes(factor.solve(b), want)
            except BaseException as exc:  # reported below, on the main thread
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and errors == []

    def test_in_place_buffers(self):
        """``overwrite_b=True`` solves in the caller's buffer, F- or
        C-ordered (the latter through an F-ordered copy written back); a
        read-only buffer is refused, not written."""
        storage = repro.plan(grid_laplacian((6, 5))).factorize().storage
        b = np.random.default_rng(0).standard_normal((storage.symb.n, 3))
        want = forward_solve(storage, b)
        for buf in (b.copy(), np.asfortranarray(b)):
            assert forward_solve(storage, buf, overwrite_b=True) is buf
            _same_bytes(buf, want)
        frozen = b.copy()
        frozen.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            forward_solve(storage, frozen, overwrite_b=True)
        np.testing.assert_array_equal(frozen, b)


class TestMixedPrecision:
    @pytest.mark.parametrize("pattern", ["grid", "small_vec", "arrow"])
    def test_fp32_factor_under_a_float64_buffer(self, pattern):
        """``Factor.solve`` on an fp32 factor takes the compiled float64 walk
        over an exact upcast of its panels, built per call, on arena-backed
        and derived copy-on-write storages alike: its bytes are the Python
        walk's (which upcasts block by block), and the answer is the float64
        solve of the exactly upcast factor."""
        plan = repro.plan(PATTERNS[pattern]())
        f32 = plan.factorize(engine="rl", dtype=np.float32)
        body = "python" if _native.solve_loop() is None else "compiled"
        updated = f32.update(structured_update(plan.symb, plan.perm, [plan.n // 2], seed=1))
        for storage in (f32.storage, _derived(f32.storage), updated.storage):
            assert triangular.serial_body(storage) == body
            assert triangular.serial_body(storage, np.float32) == body
            _check_same_bytes(storage, np.float64)
        upcast = FactorStorage(plan.symb, arena=f32.storage.arena.astype(np.float64))
        rng = np.random.default_rng(2)
        for b in (rng.standard_normal(plan.n), rng.standard_normal((plan.n, 16))):
            x = f32.solve(b)
            assert x.dtype == np.float64
            want = np.empty_like(x)
            want[plan.perm] = triangular.solve_factored(upcast, b[plan.perm])
            _same_bytes(x, want)

    def test_a_narrower_buffer_than_the_factor_takes_the_python_walk(self):
        storage = repro.plan(grid_laplacian((6, 5))).factorize().storage
        assert triangular.serial_body(storage, np.float32) == "python"


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
        _assert_close_to_oracle(forward_solve(storage, b),
                                sla.solve_triangular(L, b64, lower=True), L, f"forward {name}")
        _assert_close_to_oracle(backward_solve(storage, b),
                                sla.solve_triangular(L, b64, lower=True, trans="T"), L,
                                f"backward {name}")


class TestOracle:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_patterns_arena_and_derived(self, pattern, dtype):
        storage = repro.plan(PATTERNS[pattern]()).factorize(engine="rl", dtype=dtype).storage
        _check_against_dense_oracle(storage)
        derived = _derived(storage)
        assert derived.arena is None
        _check_against_dense_oracle(derived)
        # the same values through the other address table: the same bits
        b = np.random.default_rng(1).standard_normal((storage.symb.n, 3))
        for sweep in (forward_solve, backward_solve):
            np.testing.assert_array_equal(sweep(derived, b), sweep(storage, b))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 36), density=st.floats(0.02, 0.6),
           seed=st.integers(0, 2**16), fp32=st.booleans())
    def test_random_spd_patterns(self, n, density, seed, fp32):
        plan = repro.plan(_random_spd(n, density, seed))
        storage = plan.factorize(engine="rl", dtype=np.float32 if fp32 else None).storage
        _check_against_dense_oracle(storage, seed)
        _check_against_dense_oracle(_derived(storage), seed)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_after_factor_update(self, dtype):
        """The copy-on-write storage ``Factor.update`` really builds:
        shared and copied panels mixed."""
        A = grid_laplacian((7, 6, 3))
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl", dtype=dtype)
        W = structured_update(plan.symb, plan.perm, [0, 7], seed=3)
        child = factor.update(W)
        assert child.storage.arena is None
        _check_against_dense_oracle(child.storage)
        b = np.random.default_rng(2).standard_normal(plan.n)
        dense = A.to_dense() + W @ W.T
        tol = 1e-12 if dtype == np.float64 else 1e-4
        assert np.linalg.norm(dense @ child.solve(b) - b) <= tol * np.linalg.norm(b)


def _plan_under(cut, A):
    """A fresh plan of ``A`` whose partition was cut under ``cut``."""
    with pytest.MonkeyPatch.context() as patch:
        return plan_under(patch, cut, A)


def _check_every_schedule(plan, dtype, seed=0):
    factor = plan.factorize(engine="rl", dtype=dtype)
    rng = np.random.default_rng(seed)
    for b in (rng.standard_normal(plan.n), rng.standard_normal((plan.n, 5))):
        serial = factor.solve(b)
        for how in (dict(workers=1), dict(workers=2), dict(workers=4)):
            np.testing.assert_array_equal(factor.solve(b, **how), serial, err_msg=str(how))
        y = b[plan.perm]
        run_task_graph(*solve_graph(factor.storage, y, trivial_ranges(plan.symb)), 2)
        np.testing.assert_array_equal(y, serial[plan.perm], err_msg="trivial_ranges")


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
    def test_schedule_of_updated_storage_at_cuts(self, cut, dtype):
        plan = _plan_under(cut, grid_laplacian((9, 8)))
        factor = plan.factorize(engine="rl", dtype=dtype)
        child = factor.update(structured_update(plan.symb, plan.perm, [0, 5], seed=1))
        assert child.storage.arena is None
        b = np.random.default_rng(4).standard_normal((plan.n, 3))
        serial = child.solve(b)
        for how in (dict(workers=2), dict(workers=4)):
            np.testing.assert_array_equal(child.solve(b, **how), serial, err_msg=str(how))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cut", CUTS)
    def test_schedule_of_derived_and_merged_storages_at_cuts(self, cut, dtype):
        """An updated factor's copy-on-write storage (its root's arena plus
        private path panels) and one arena of the same panels solve to the
        serial derived bits in every schedule."""
        plan = _plan_under(cut, grid_laplacian((9, 8)))
        factor = plan.factorize(engine="rl", dtype=dtype)
        child = factor.update(structured_update(plan.symb, plan.perm, [0, 5], seed=1))
        derived = child.storage
        assert derived._root is factor.storage
        b = np.random.default_rng(4).standard_normal((plan.n, 3))[plan.perm]
        serial = backward_solve(derived, forward_solve(derived, b))
        for storage in (derived, arena_copy(derived)):
            np.testing.assert_array_equal(backward_solve(storage, forward_solve(storage, b)),
                                          serial)
            for ranges in (None, trivial_ranges(plan.symb)):
                y = b.copy()
                run_task_graph(*solve_graph(storage, y, ranges), 2)
                np.testing.assert_array_equal(y, serial)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cut", CUTS)
    def test_schedule_of_session_and_gateway(self, cut, dtype):
        """Twenty streamed solves and the gateway's hits: the serial bits."""
        A = grid_laplacian((12, 11))
        plan = _plan_under(cut, A)
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


class TestReadAtSolveTime:
    @pytest.fixture()
    def factor(self):
        return repro.plan(grid_laplacian((6, 5, 2))).factorize(engine="rl")

    @staticmethod
    def _leaf_of_width(factor, pick):
        symb = factor.storage.symb
        widths = np.diff(symb.snptr)
        leaves = np.bincount(symb.sn_parent[symb.sn_parent >= 0], minlength=symb.nsup) == 0
        return next(s for s in np.flatnonzero(leaves).tolist() if pick(widths[s]))

    @pytest.mark.parametrize("derived", [False, True])
    @pytest.mark.parametrize("sweep", [forward_solve, backward_solve])
    def test_zero_pivot_inside_a_leaf(self, factor, sweep, derived):
        """``?trtrs``'s ``LinAlgError`` text, naming the entry inside the
        supernode — damaged in a writable copy of the factor's arena, or in
        a derived storage's private panels over it."""
        storage = arena_copy(factor.storage)
        if derived:
            storage = _derived(storage)
        s = self._leaf_of_width(factor, lambda w: w >= 3)
        storage.panels[s][2, 2] = 0.0
        for b in (np.ones(storage.symb.n), np.ones((storage.symb.n, 3))):
            with pytest.raises(np.linalg.LinAlgError,
                               match="singular triangular block: diagonal entry 2 is exactly zero"):
                sweep(storage, b)
        storage.panels[s][2, 2] = 1.0
        s = self._leaf_of_width(factor, lambda w: w == 1)
        storage.panels[s][0, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal entry 0 is exactly zero"):
            sweep(storage, np.ones(storage.symb.n))

    @pytest.mark.parametrize("how", [dict(), dict(workers=2)])
    def test_zero_pivot_from_every_lane_and_the_lane_serves_after(self, factor, how):
        s = self._leaf_of_width(factor, lambda w: w >= 2)
        factor = writable_twin(factor)  # a returned factor is read-only
        b = np.ones(factor.n)
        want = factor.solve(b)
        kept = factor.storage.panels[s][1, 1]
        factor.storage.panels[s][1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal entry 1 is exactly zero"):
            factor.solve(b, **how)
        factor.storage.panels[s][1, 1] = kept
        np.testing.assert_array_equal(factor.solve(b, **how), want)

    def test_a_refilled_work_storage_is_read_by_the_next_solve(self):
        """No stale read: a plan's work storage, solved once, is refilled
        and refactored for the next request (the one writer into a solved
        arena); both lanes of the next solve read the new values."""
        A = grid_laplacian((7, 6, 3))
        plan = repro.plan(A)
        spec, kwargs = resolve("rl")
        b = np.random.default_rng(3).standard_normal(plan.n)
        values = A.data.copy()
        values[A.indptr[:-1]] *= 1.5  # every diagonal moves
        used = []

        def answer(factor):
            used.append(factor.storage)
            return factor.solve(b), factor.solve(b, workers=2)

        (before, _), (after, fused) = [
            plan._request(spec, kwargs, plan._original_matrix(data), answer)
            for data in (A.data, values)]
        assert used[0] is used[1]
        np.testing.assert_array_equal(after, plan.factorize(values, engine="rl").solve(b))
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(fused, after)


def _reference_runs(symb, s):
    """The scalar construction the array-at-a-time ``_below_runs`` replaced."""
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


def _check_schedule(symb):
    """The schedule every graph runs: runs and levels as their scalar
    references, one forward and one backward task per range, and edges
    whose in-degrees and roots agree with the children lists."""
    sched = solve_schedule(symb)
    assert sched.runs == tuple(_reference_runs(symb, s) for s in range(symb.nsup))
    assert all(type(v) is int for run in sched.runs for triple in run for v in triple)
    np.testing.assert_array_equal(solve_levels(symb), _reference_levels(symb))
    assert solve_levels(symb).dtype == np.int64
    nranges = len(sched.ranges)
    assert len(sched.fwd.children) == len(sched.bwd.children) == nranges
    assert len(sched.fused.children) == 2 * nranges
    for edges in (sched.fwd, sched.bwd, sched.fused):
        indeg = [0] * len(edges.children)
        for kids in edges.children:
            for c in kids:
                indeg[c] += 1
        assert tuple(indeg) == edges.indeg
        assert edges.roots == tuple(t for t, n in enumerate(indeg) if not n)


class TestScheduleStructure:
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_patterns(self, pattern):
        _check_schedule(repro.plan(PATTERNS[pattern]()).symb)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), density=st.floats(0.0, 0.6), seed=st.integers(0, 2**16),
           cut=st.sampled_from(CUTS))
    def test_random_spd_patterns(self, n, density, seed, cut):
        _check_schedule(_plan_under(cut, _random_spd(n, density, seed)).symb)
