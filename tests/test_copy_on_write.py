"""Copy-on-write factors (:meth:`repro.numeric.storage.FactorStorage.derived`).

An updated factor reads through its *root* — the arena-backed storage at the
bottom of its update chain — plus private copies of the panels its updates
touched.  Pinned here:

* **bits** — under Hypothesis (random SPD patterns, ranks 1-3, fp64 and fp32,
  chains of 1-3 updates and safe downdates), every derived factor's panels
  are those of ``updown._sweep`` run step by step on an arena copy, its
  ``solve`` (vector, block, fused) and ``solve_refined`` are those of one
  arena holding the same panels (what a pickle ships); no base is ever
  written;
* **one view set per storage** — the first solve of an updated factor cuts
  views for its copied panels only, on a base that was solved and on one
  that was not;
* **concurrency** — updates of one base solved on many threads at once
  give the lone thread's bits;
* **chains and pickles** — a chain has one root and merges its copies; a
  pickled derived factor comes back arena-backed with the same panel bytes,
  solves to the same bits, and its updates are copy-on-write over it;
* **the modification plan** — its paths, union, supernodes, segments and
  containment verdicts equal the per-supernode loops it replaced (kept
  below verbatim as references), and so does ``solve_reach``.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.numeric import column_structure, updown
from repro.numeric import storage as storage_module
from repro.numeric.rlb import run_pair_range
from repro.numeric.storage import FactorStorage
from repro.numeric.updown import _modification_plan
from repro.solve import solve_reach
from repro.solve.triangular import serial_body
from repro.sparse import grid_laplacian, random_spd
from repro.symbolic.blocks import pair_index
from repro.update import structured_update
from tests.conftest import writable_twin

DTYPES = [np.float64, np.float32]


def panel_bytes(storage):
    return [p.tobytes(order="F") for p in storage.panels]


def assert_solves_like_merged(factor, seed):
    """``factor`` solves like one arena holding its own panels."""
    twin = writable_twin(factor)
    assert twin.storage.arena is not None and twin.storage._root is None
    rng = np.random.default_rng(seed)
    b, B = rng.standard_normal(factor.plan.n), rng.standard_normal((factor.plan.n, 3))
    for got, want in ((factor.solve(b), twin.solve(b)),
                      (factor.solve(B), twin.solve(B)),
                      (factor.solve(b, workers=2), twin.solve(b)),
                      (factor.solve_refined(b), twin.solve_refined(b))):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestBits:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(8, 60), st.floats(0.05, 0.3), st.integers(0, 10**6),
           st.sampled_from(DTYPES),
           st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=3))
    def test_chains_solve_like_merged_panels(self, n, density, seed, dtype, steps):
        plan = repro.plan(random_spd(n, density=density, seed=seed))
        base = plan.factorize(engine="rl", dtype=dtype)
        arena = base.storage.arena.copy()
        # the sweeps, step by step, on a copy of the base's arena
        oracle = FactorStorage(plan.symb, arena=base.storage.arena.copy())
        rng = np.random.default_rng(seed)
        factor, added, kept = base, [], []
        for rank, downdate in steps:
            if downdate and added:  # removes a column set added before: stays SPD
                W = added.pop()
            else:
                W = structured_update(plan.symb, plan.perm, rng.integers(n, size=rank).tolist(),
                                      seed=int(rng.integers(10**6)), scale=0.3)
                added.append(W)
                downdate = False
            factor = factor.update(W, downdate=downdate)
            Wp = W[plan.perm]
            mod = _modification_plan(plan.symb, Wp)
            updown._sweep(oracle, Wp, mod, -1.0 if downdate else 1.0)
            storage = factor.storage
            assert storage.arena is None and storage._root is base.storage
            assert panel_bytes(storage) == panel_bytes(oracle)
            assert_solves_like_merged(factor, seed)
            kept.append((storage, panel_bytes(storage)))
        assert np.array_equal(base.storage.arena, arena), "a base was written"
        for storage, panels in kept:
            assert panel_bytes(storage) == panels, "an earlier update was written"


@pytest.fixture(scope="module")
def grid():
    A = grid_laplacian((24, 24))
    return A, repro.plan(A)


class TestOneViewSetPerStorage:
    @pytest.mark.parametrize("solved", [False, True])
    def test_first_solve_cuts_only_the_copied_panels(self, monkeypatch, grid, solved):
        """An updated factor's first solve cuts no view on the compiled
        solve (it reads panel addresses), and on the Python walk only the
        copied panels' once the root's were cut — by a solve of the base."""
        A, plan = grid
        base = plan.factorize(engine="rlb")
        b = np.ones(A.n)
        if solved:
            base.solve(b)
        W = structured_update(plan.symb, plan.perm, [0, A.n // 2], seed=1)
        updated = base.update(W)
        over = updated.storage._over
        cut = []
        for name in ("_factor_entry", "_solve_entry"):  # the two places views are cut
            real = getattr(storage_module, name)

            def spy(layout, panel, _real=real):
                cut.append(panel)
                return _real(layout, panel)

            monkeypatch.setattr(storage_module, name, spy)
        root_panels = base.storage.panels
        x = updated.solve(b)
        if serial_body(updated.storage) == "compiled":
            assert cut == []
        else:
            root_cut = 0 if solved else plan.symb.nsup  # the root's program, on first use
            assert len(cut) == len(over) + root_cut
            assert {id(p) for p in over.values()} <= {id(p) for p in cut}
        assert base.storage.panels is root_panels
        np.testing.assert_array_equal(x, writable_twin(updated).solve(b))

    def test_solve_program_shares_the_factor_programs_views(self, grid):
        _, plan = grid
        # the Python bodies read the factor program (a work storage's, where
        # no compiler built the loop); its solve program cuts no view again
        storage = FactorStorage.from_matrix(plan.symb, plan.system.matrix)
        run_pair_range(storage, pair_index(plan.symb), 0, plan.symb.nsup)
        for (_, _, _, panel, rect, _), entry in zip(storage.solve_program(),
                                                    storage.factor_program()):
            assert panel is entry[3] and rect is entry[5]
        # a returned factor drops the program its task bodies read on freeze:
        # the solve program cut after it takes read-only rectangles
        frozen = plan.factorize(engine="rlb_par", workers=2).storage
        assert frozen._factor_program is None
        for s, (_, _, _, panel, rect, _) in enumerate(frozen.solve_program()):
            assert panel is frozen.panels[s] and not panel.flags.writeable
            assert rect is None or not rect.flags.writeable
        # a storage never factorized here (a process-pool result) cuts only
        # the solve's views: the same panels and rectangles, no factor program
        fresh = FactorStorage(plan.symb, arena=storage.arena)
        for got, want in zip(fresh.solve_program(), storage.solve_program()):
            assert got[:3] == want[:3] and got[5] is want[5]
            assert np.array_equal(got[3], want[3])
            assert (got[4] is None) == (want[4] is None)
            assert got[4] is None or np.array_equal(got[4], want[4])
        assert fresh._factor_program is None


class TestConcurrentSolves:
    def test_updates_of_one_base_solve_at_once(self, grid):
        """Eight threads update one never-solved base and solve at once, so
        the root's programs are first built under contention: every
        solution is the one a lone thread computes."""
        A, plan = grid
        base = plan.factorize(engine="rl")
        b = np.random.default_rng(8).standard_normal(A.n)
        Ws = [structured_update(plan.symb, plan.perm, [3 * t, A.n // 2 + t], seed=t)
              for t in range(8)]
        want = [plan.factorize(engine="rl").update(W).solve(b) for W in Ws]
        barrier = threading.Barrier(8)
        got, errors = {}, []

        def solve(t):
            try:
                barrier.wait(timeout=30)
                got[t] = base.update(Ws[t]).solve(b)
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        for t in range(8):
            np.testing.assert_array_equal(got[t], want[t])


class TestChainsAndPickles:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_chain_has_one_root(self, grid, dtype):
        A, plan = grid
        base = plan.factorize(engine="rl", dtype=dtype)
        factor, copied = base, set()
        for k in range(3):
            W = structured_update(plan.symb, plan.perm, [7 * k, A.n // 3 + k], seed=k)
            factor = factor.update(W)
            copied |= set(_modification_plan(plan.symb, W[plan.perm]).snodes)
            assert factor.storage._root is base.storage
            assert set(factor.storage._over) == copied
        assert_solves_like_merged(factor, 5)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_pickled_derived_factor_solves_to_the_same_bits(self, grid, dtype):
        A, plan = grid
        base = plan.factorize(engine="rl", dtype=dtype)
        updated = base.update(structured_update(plan.symb, plan.perm, [0, 9], seed=4))
        twin = pickle.loads(pickle.dumps(updated))
        # ONE merged arena: the root's bytes with the private panels written in
        assert twin.storage.arena is not None and twin.storage._root is None
        assert panel_bytes(twin.storage) == panel_bytes(updated.storage)
        b = np.random.default_rng(6).standard_normal((A.n, 2))
        np.testing.assert_array_equal(twin.solve(b), updated.solve(b))
        np.testing.assert_array_equal(twin.solve_refined(b[:, 0]), updated.solve_refined(b[:, 0]))
        # an update of the unpickled factor is copy-on-write over its arena
        again = twin.update(structured_update(plan.symb, plan.perm, [3], seed=5))
        assert again.storage.arena is None and again.storage._root is twin.storage
        assert_solves_like_merged(again, 7)


class TestADerivedFactorOutlivesItsBase:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_nothing_done_to_the_base_moves_the_derived_solve(self, grid, dtype):
        """``Factor.update`` is the only door that changes a factor, and it
        never writes its base: whatever is done to the base afterwards —
        updates, downdates (one failing), ``apply`` on every road, a
        refined solve that falls back to fp64, pickle round-trips — the
        derived factor solves to its first bits."""
        A, plan = grid
        base = plan.factorize(engine="rl", dtype=dtype)
        derived = base.update(structured_update(plan.symb, plan.perm, [0, A.n // 2], seed=11))
        b = np.random.default_rng(12).standard_normal(A.n)
        first = derived.solve(b)
        W = structured_update(plan.symb, plan.perm, [5, A.n // 3], seed=13)
        base.update(W)
        base.downdate(W)
        with pytest.raises(repro.NotPositiveDefiniteError):
            base.downdate(100.0 * W)
        for policy in ("update", "refactorize", "auto"):
            base.apply(W, policy=policy)
        extra = dict(base.result.extra)
        out = base.solve_refined(b, tol=0.0, max_iter=1, return_info=True)  # never converges
        assert (out.fallback is not None) == (dtype == np.float32)
        assert base.result.extra == extra  # the record is the answer's, not the factor's
        for factor in (base, derived):
            twin = pickle.loads(pickle.dumps(factor))
            twin.solve(b)
            twin.update(W)
        assert np.array_equal(derived.solve(b), first)


# ----------------------------------------------------------------------
# the modification plan against the loops it replaced
# ----------------------------------------------------------------------
def reference_solve_reach(symb, pattern):
    """Supernodes touched by a forward solve with RHS pattern ``pattern``.

    The reach is the closure of the pattern's owning supernodes under the
    supernodal elimination tree parent map; returned ascending.
    """
    pattern = np.asarray(pattern, dtype=np.int64)
    if pattern.size == 0:
        return np.empty(0, dtype=np.int64)
    if pattern.min() < 0 or pattern.max() >= symb.n:
        raise ValueError("pattern indices out of range")
    flagged = np.zeros(symb.nsup, dtype=bool)
    for s in np.unique(symb.col2sn[pattern]):
        s = int(s)
        while s != -1 and not flagged[s]:
            flagged[s] = True
            s = int(symb.sn_parent[s])
    return np.flatnonzero(flagged)


def reference_path_union(symb, roots):
    """Merged elimination-tree path columns for entry columns ``roots``.

    The union of the column paths root -> tree root, ascending.  Vectorized
    through :func:`~repro.solve.sparse_rhs.solve_reach`: the touched
    supernodes are the reach of ``roots`` under ``sn_parent``, and within
    each reached supernode the path occupies the contiguous column range
    from its earliest entry point to the supernode's last column, so one
    ascending walk propagating entry columns recovers the exact column set
    without any per-column recomputation.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if roots.size == 0:
        return np.empty(0, dtype=np.int64)
    reached = reference_solve_reach(symb, roots)
    # earliest column through which the path enters each reached supernode
    entry = np.full(symb.nsup, symb.n, dtype=np.int64)
    np.minimum.at(entry, symb.col2sn[roots], roots)
    cols = []
    for s in reached:
        s = int(s)
        _first, last = symb.snode_cols(s)
        j_in = int(entry[s])
        cols.append(np.arange(j_in, last, dtype=np.int64))
        below = symb.snode_below_rows(s)
        if below.size:
            # the path exits at the first below-diagonal row, which lives in
            # sn_parent[s]; parents have larger indices, so the ascending
            # walk sees every entry point before consuming it
            p = int(symb.col2sn[below[0]])
            entry[p] = min(entry[p], int(below[0]))
    return np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)


def reference_plan(symb, W):
    """The parent's per-column loop: roots, containment verdict, paths."""
    cols, roots, paths = [], [], []
    uncontained = None
    for r in range(W.shape[1]):
        nz = np.flatnonzero(W[:, r])
        if nz.size == 0:
            continue  # identity column
        j0 = int(nz[0])
        if uncontained is None:
            outside = np.setdiff1d(nz[1:], column_structure(symb, j0))
            if outside.size:
                uncontained = (r, j0, outside)
        cols.append(r)
        roots.append(j0)
        paths.append(reference_path_union(symb, [j0]))
    return cols, roots, paths, uncontained


class TestModificationPlan:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 50), st.floats(0.02, 0.4), st.integers(0, 10**6),
           st.lists(st.sampled_from(["empty", "contained", "any"]), min_size=1, max_size=4))
    def test_matches_the_loops_it_replaced(self, n, density, seed, kinds):
        symb = repro.plan(random_spd(n, density=density, seed=seed)).symb
        rng = np.random.default_rng(seed)
        W = np.zeros((n, len(kinds)))
        for r, kind in enumerate(kinds):
            if kind == "empty":
                continue
            j0 = int(rng.integers(n))
            W[j0, r] = 1.0
            rows = column_structure(symb, j0) if kind == "contained" else np.arange(j0 + 1, n)
            W[rows[rng.random(rows.size) < 0.3], r] = 0.5
        mod = _modification_plan(symb, W)
        cols, roots, paths, uncontained = reference_plan(symb, W)
        assert list(mod.cols) == cols and list(mod.roots) == roots
        assert len(mod.paths) == len(paths)
        for got, want, segments in zip(mod.paths, paths, mod.segments):
            assert got.dtype == np.int64 and np.array_equal(got, want)
            sn = symb.col2sn[want]
            enter = np.flatnonzero(np.r_[True, sn[1:] != sn[:-1]])
            assert [seg[0] for seg in segments] == sn[enter].tolist()
            for s, c0, j_in, rows, below in segments:
                assert j_in == want[enter][sn[enter] == s][0] and c0 == j_in - symb.snptr[s]
                assert np.array_equal(rows, symb.snode_rows(s)[c0:])
                assert np.array_equal(below, symb.snode_below_rows(s))
        union = reference_path_union(symb, sorted(set(roots)))
        assert np.array_equal(mod.union, union)
        assert mod.snodes == tuple(np.unique(symb.col2sn[union]).tolist())
        if uncontained is None:
            assert mod.uncontained is None
        else:
            (r, j0, outside), (r2, j2, outside2) = mod.uncontained, uncontained
            assert (r, j0) == (r2, j2) and np.array_equal(outside, outside2)
        pattern = np.flatnonzero(W.any(axis=1))
        assert np.array_equal(solve_reach(symb, pattern), reference_solve_reach(symb, pattern))

    @pytest.mark.parametrize("root", [-1, "n"])
    def test_a_root_outside_the_matrix_is_refused(self, grid, root):
        _, plan = grid
        with pytest.raises(ValueError, match="out of range"):
            structured_update(plan.symb, plan.perm, [0, plan.n if root == "n" else root])
