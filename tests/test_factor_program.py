"""The factor program: arena-backed panels, one assembly index per source
supernode, one fused factor→update body behind every RL lane.

Contracts, attacked with generated SPD patterns and the degenerate ones:

* **one body, same bits** — ``factorize_rl_cpu`` ≡ the parent commit's loop
  (kept here as the reference: ``dk.potrf`` / ``trsm_right`` / ``syrk_lower``
  on panel slices, one ``relative_indices`` per run) ≡ a loop of the public
  ``factor_snode`` / ``snode_update`` / ``assemble_update`` bodies ≡
  ``rl_par`` at any worker count ≡ ``rl_proc``, ``np.array_equal`` on whole
  panels, dead space included, fp64 and fp32; the flat and the block
  assembly forms are interchangeable;
* **the index** — the flat form and the block form's slice pieces are, as
  multisets of ``(dst, src)`` pairs over the update's lower triangle, the
  runs located here by ``relative_indices``; each writes every destination
  once per source and stays inside the ancestor's panel; the index is built
  without a per-run ``searchsorted``, costs a bounded multiple of the
  factor's own bytes and a bounded number of pieces per run;
* **the storage** — panels are F-contiguous views tiling one arena, copies
  come back arena-backed, a storage of loose panels still works;
* **failures** — a non-SPD matrix raises the reference loop's pivot from
  every lane.
"""

from __future__ import annotations

import copy
import multiprocessing
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dense import NotPositiveDefiniteError
from repro.dense import kernels as dk
from repro.numeric import (
    FactorStorage,
    assemble_update,
    factor_snode,
    factorize_rl_cpu,
    snode_update,
    update_workspace_entries,
)
from repro.numeric.procpool import ProcessPool, close_default_pools, factorize_process
from repro.solve import backward_solve, forward_solve
from repro.sparse import SymmetricCSC, grid_laplacian, kkt_like, vector_stencil
from repro.symbolic import relind
from repro.symbolic.relind import assembly_index, relative_indices
from repro.update import structured_update
from tests.conftest import arrow_spd as _arrow
from tests.conftest import spd_from_pattern as _spd
from tests.conftest import two_component_spd as _two_components

DTYPES = [np.float64, np.float32]


@pytest.fixture(scope="module", autouse=True)
def _release_default_pools():
    yield
    close_default_pools()


PATTERNS = {
    "n1": lambda: _spd(np.zeros((1, 1), dtype=bool)),
    "diagonal": lambda: _spd(np.zeros((9, 9), dtype=bool)),
    "dense": lambda: _spd(np.ones((11, 11), dtype=bool)),
    "arrow": lambda: _arrow(12),
    "two_components": lambda: _two_components(7),
    "grid2d": lambda: grid_laplacian((9, 8)),
    "grid3d": lambda: grid_laplacian((6, 5, 2)),
    # the one pattern here with update matrices on both sides of the cut
    "vec3d_wide": lambda: vector_stencil((5, 5, 5), 4, connectivity="box"),
    # block-form runs of 1-9 row stretches (median 4)
    "kkt": lambda: kkt_like(120, 30, density=0.05),
}


def _reference_rl(symb, M, dtype):
    """The parent commit's serial RL, verbatim in structure: kernels on
    panel slices, the update copied into one workspace, one broadcast
    ``-=`` per run with its relative indices searched here."""
    storage = FactorStorage.from_matrix(symb, M, dtype=dtype)
    bmax = int(np.sqrt(update_workspace_entries(symb)))
    W = np.zeros((bmax, bmax), dtype=storage.dtype, order="F")
    for s in range(symb.nsup):
        panel = storage.panel(s)
        m, w = symb.panel_shape(s)
        dk.potrf(panel[:w, :w])
        if m == w:
            continue
        dk.trsm_right(panel[w:, :w], panel[:w, :w])
        U = dk.syrk_lower(panel[w:, :w], out=W[: m - w, : m - w])
        below = symb.snode_below_rows(s)
        owners = symb.col2sn[below]
        cut = np.flatnonzero(np.diff(owners)) + 1
        for k0, k1 in zip(np.r_[0, cut], np.r_[cut, below.size]):
            p = int(owners[k0])
            relrows = relative_indices(symb, below[k0:], p)
            colpos = below[k0:k1] - symb.snptr[p]
            storage.panel(p)[relrows[:, None], colpos] -= U[k0:, k0:k1]
    return storage


def _public_bodies(symb, storage, workspace):
    """Serial RL through the public per-supernode bodies, in place."""
    bmax = int(np.sqrt(update_workspace_entries(symb)))
    W = np.zeros((bmax, bmax), dtype=storage.dtype, order="F") if workspace and bmax else None
    for s in range(symb.nsup):
        _, _, b = factor_snode(symb, storage, s)
        if b:
            U = snode_update(symb, storage, s, W=W)
            assert assemble_update(symb, storage, s, U) == assembly_index(symb).moved[s]
    return storage


def _assert_same_panels(got, want, what):
    assert len(got.panels) == len(want.panels)
    for s, (p, q) in enumerate(zip(got.panels, want.panels)):
        assert p.dtype == q.dtype and p.shape == q.shape
        assert np.array_equal(p, q), f"{what}: panel {s} differs"


def _check_every_lane(A, dtype, procs=True):
    plan = repro.plan(A)
    symb, M = plan.symb, plan.system.matrix
    want = _reference_rl(symb, M, dtype)
    _assert_same_panels(factorize_rl_cpu(symb, M, dtype=dtype).storage, want, "engine")
    for workspace in (True, False):
        got = _public_bodies(symb, FactorStorage.from_matrix(symb, M, dtype=dtype), workspace)
        _assert_same_panels(got, want, f"public bodies, workspace={workspace}")
    loose = [p.copy(order="F") for p in FactorStorage.from_matrix(symb, M, dtype=dtype).panels]
    got = _public_bodies(symb, FactorStorage(symb, loose), True)
    assert got.arena is None
    _assert_same_panels(got, want, "arena-less storage")
    for workers in (1, 2, 4):
        got = plan.factorize(engine="rl_par", workers=workers, dtype=dtype).storage
        _assert_same_panels(got, want, f"rl_par workers={workers}")
    if procs:
        got = plan.factorize(engine="rl_proc", workers=2, dtype=dtype).storage
        assert got.arena is not None
        _assert_same_panels(got, want, "rl_proc")
    return plan, want


def _reference_runs(symb, s):
    """Source ``s``'s assembly runs ``(ancestor, k0, k1, relrows, colpos)``,
    their relative indices searched here as :func:`_reference_rl` does."""
    below = symb.snode_below_rows(s)
    if not below.size:
        return []
    owners = symb.col2sn[below]
    cut = np.flatnonzero(np.diff(owners)) + 1
    runs = []
    for k0, k1 in zip(np.r_[0, cut].tolist(), np.r_[cut, below.size].tolist()):
        p = int(owners[k0])
        runs.append((p, k0, k1, relative_indices(symb, below[k0:], p),
                     below[k0:k1] - symb.snptr[p]))
    return runs


def _check_index(symb):
    """Both assembly forms against the reference runs, source by source:
    as ``(arena position, position in the F-ordered update)`` pairs, the
    lower triangle of each run's ``U[k0:, k0:k1]`` goes exactly where the
    reference relative indices send it."""
    index = assembly_index(symb)
    offsets = symb.panel_offsets()
    for s in range(symb.nsup):
        b = symb.snode_below_rows(s).size
        runs = _reference_runs(symb, s)
        assert index.targets[s] == tuple(run[0] for run in runs)
        assert index.moved[s] == sum(16 * (b - k0) * (k1 - k0) for _, k0, k1, _, _ in runs)
        want = []
        for p, k0, k1, relrows, colpos in runs:
            rows, cols = np.arange(k0, b)[:, None], np.arange(k0, k1)
            lower = rows >= cols  # (tail, run) mask of the lower triangle
            m = symb.panel_shape(p)[0]
            want_dst = (offsets[p] + relrows[:, None] + colpos * m)[lower]
            want.append(sorted(zip(want_dst.tolist(), (rows + cols * b)[lower].tolist())))

        pieces = index.pieces(s)
        assert len(pieces) == len(runs)
        written = []
        for (p, k0, k1, relrows, colpos), (q, run_pieces), pairs in zip(runs, pieces, want):
            assert p == q and run_pieces
            m, w = symb.panel_shape(p)
            got = []
            for r0, r1, c0, c1, i0, i1, j0, j1 in run_pieces:
                assert 0 <= r0 < r1 <= m and 0 <= c0 < c1 <= w, "outside the panel"
                assert k0 <= i0 < i1 <= b and k0 <= j0 < j1 <= k1
                assert i1 - 1 >= j0, "a piece wholly above the diagonal"
                assert np.array_equal(relrows[i0 - k0 : i1 - k0], np.arange(r0, r1))
                assert np.array_equal(colpos[j0 - k0 : j1 - k0], np.arange(c0, c1))
                i, j = np.arange(i0, i1)[:, None], np.arange(j0, j1)
                dst = offsets[p] + np.arange(r0, r1)[:, None] + np.arange(c0, c1) * m
                written += dst.ravel().tolist()
                got += zip(dst[i >= j].tolist(), (i + j * b)[i >= j].tolist())
            assert sorted(got) == pairs
        assert len(set(written)) == len(written), "pieces overlap"

        flat = index.flat[s]
        if flat is None:
            assert b == 0 or b * b > relind.FLAT_UPDATE_ENTRIES
            continue
        assert 0 < b * b <= relind.FLAT_UPDATE_ENTRIES
        dst, src, bounds = flat
        assert dst.size == src.size == b * (b + 1) // 2
        assert np.unique(dst).size == dst.size, "a destination written twice"
        assert len(bounds) == len(runs)
        for (p, _, _, _, _), (q, f0, f1), pairs in zip(runs, bounds, want):
            assert p == q
            assert sorted(zip(dst[f0:f1].tolist(), src[f0:f1].tolist())) == pairs
            assert (dst[f0:f1] >= offsets[p]).all() and (dst[f0:f1] < offsets[p + 1]).all()
        assert bounds[0][1] == 0 and bounds[-1][2] == dst.size
        assert all(a[2] == c[1] for a, c in zip(bounds, bounds[1:]))


class TestOneBodySameBits:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_edge_patterns(self, pattern, dtype):
        plan, _ = _check_every_lane(PATTERNS[pattern](), dtype)
        _check_index(plan.symb)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 40), density=st.floats(0.02, 0.6),
           seed=st.integers(0, 2**16), fp32=st.booleans())
    def test_random_spd_patterns(self, n, density, seed, fp32):
        pattern = sp.random(n, n, density=density, random_state=seed, format="csr")
        plan, _ = _check_every_lane(_spd(pattern.toarray() != 0),
                                    np.float32 if fp32 else np.float64, procs=seed % 4 == 0)
        _check_index(plan.symb)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 40), density=st.floats(0.02, 0.6),
           seed=st.integers(0, 2**16), fp32=st.booleans())
    def test_random_spd_patterns_all_blocks(self, n, density, seed, fp32):
        """Every source in the block form: its pieces against the reference
        runs, the factor against the reference loop."""
        pattern = sp.random(n, n, density=density, random_state=seed, format="csr")
        dtype = np.float32 if fp32 else np.float64
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relind, "FLAT_UPDATE_ENTRIES", 0)
            plan = repro.plan(_spd(pattern.toarray() != 0))
            assert not any(f is not None for f in assembly_index(plan.symb).flat)
            _check_index(plan.symb)
        want = _reference_rl(plan.symb, plan.system.matrix, dtype)
        _assert_same_panels(plan.factorize(engine="rl", dtype=dtype).storage, want, "rl")

    def test_wide_stencil_has_both_assembly_forms(self):
        index = assembly_index(repro.plan(PATTERNS["vec3d_wide"]()).symb)
        below = [len(t) > 0 for t in index.targets]
        flat = [f is not None for f in index.flat]
        assert any(flat) and any(b and not f for b, f in zip(below, flat))

    def test_pieces_of_a_source_outside_the_pattern_raise(self):
        symb = repro.plan(PATTERNS["grid3d"]()).symb
        index = assembly_index(symb)
        for s in (-1, -symb.nsup, symb.nsup):
            with pytest.raises(IndexError, match=rf"{s} is outside \[0, {symb.nsup}\)"):
                index.pieces(s)
        assert index.pieces(symb.nsup - 1) == ()  # the root updates nothing

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pattern, cut", [
        # the grid3d cases carry the bare cut as their id
        pytest.param(pattern, cut, id=name if pattern == "grid3d" else f"{pattern}-{name}")
        for pattern in ("grid3d", "vec3d_wide", "kkt")
        for cut, name in ((0, "per_run"), (None, "mixed"), (10**9, "flat"))
    ])
    def test_the_cut_never_changes_the_factor(self, monkeypatch, dtype, pattern, cut):
        """All blocks, a mix, all flat: the same factor from every lane, and
        with every source in the block form, the reference loop's."""
        A = PATTERNS[pattern]()
        base = repro.plan(A)
        want = base.factorize(engine="rl", dtype=dtype).storage
        if cut is None:  # between the smallest and the largest update matrix
            b = np.diff(base.symb.rowptr) - np.diff(base.symb.snptr)
            cut = int(b[b > 0].min() ** 2 + b.max() ** 2) // 2
        monkeypatch.setattr(relind, "FLAT_UPDATE_ENTRIES", cut)
        plan = repro.plan(A)
        index = assembly_index(plan.symb)
        flat = [f is not None for f, t in zip(index.flat, index.targets) if t]
        assert any(flat) == (cut > 0) and all(flat) == (cut == 10**9)
        if cut == 0:
            _assert_same_panels(_reference_rl(plan.symb, plan.system.matrix, dtype), want,
                                "reference")
        _assert_same_panels(plan.factorize(engine="rl", dtype=dtype).storage, want, "rl")
        _assert_same_panels(
            plan.factorize(engine="rl_par", workers=2, dtype=dtype).storage, want, "rl_par")
        if "fork" in multiprocessing.get_all_start_methods():
            # workers forked under the patch build their index at the same cut
            with ProcessPool(2, start_method="fork") as pool:
                got = factorize_process(plan.symb, plan.system.matrix, pool=pool, dtype=dtype)
            _assert_same_panels(got.storage, want, "rl_proc")
        _check_index(plan.symb)

    def test_whole_request_solution_is_the_reference(self):
        A = PATTERNS["vec3d_wide"]()
        plan = repro.plan(A)
        b = np.random.default_rng(1).standard_normal(A.n)
        want = _reference_rl(plan.symb, plan.system.matrix, np.float64)
        factor = plan.factorize(engine="rl")
        _assert_same_panels(factor.storage, want, "engine")
        assert np.linalg.norm(A.matvec(factor.solve(b)) - b) <= 1e-12 * np.linalg.norm(b)


class TestStorage:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pattern", ["n1", "diagonal", "arrow", "grid3d"])
    def test_panels_tile_one_arena(self, pattern, dtype):
        plan = repro.plan(PATTERNS[pattern]())
        symb = plan.symb
        storage = FactorStorage.from_matrix(symb, plan.system.matrix, dtype=dtype)
        offsets = symb.panel_offsets()
        assert offsets[0] == 0 and offsets[-1] == storage.arena.size
        assert storage.arena.dtype == dtype and storage.nbytes() == storage.arena.nbytes
        for s, panel in enumerate(storage.panels):
            m, w = symb.panel_shape(s)
            assert panel.shape == (m, w) and panel.flags.f_contiguous
            assert offsets[s + 1] - offsets[s] == m * w
            assert np.shares_memory(panel, storage.arena)
            start = (panel.ctypes.data - storage.arena.ctypes.data) // storage.itemsize
            assert start == offsets[s]
        for m, w, b, panel, diag, rect in storage.factor_program():
            assert (m, w) == panel.shape and b == m - w
            assert diag.shape == (w, w) and np.shares_memory(diag, panel)
            assert (rect is None) == (b == 0)
            assert rect is None or (rect.shape == (b, w) and np.shares_memory(rect, panel))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_copies_come_back_arena_backed(self, clone):
        A = PATTERNS["grid3d"]()
        factor = repro.plan(A).factorize(engine="rl")
        storage = factor.storage
        b = np.ones(A.n)
        x = backward_solve(storage, forward_solve(storage, b))
        program = storage.solve_program()
        twin = clone(storage)
        assert twin.arena is not None and twin.arena is not storage.arena
        assert np.array_equal(twin.arena, storage.arena)
        assert all(np.shares_memory(p, twin.arena) and p.flags.f_contiguous
                   for p in twin.panels)
        assert not np.shares_memory(twin.arena, storage.arena)
        assert twin.solve_program() is not program
        assert twin.solve_program()[0][3] is twin.panels[0]
        assert twin.factor_program()[0][3] is twin.panels[0]
        assert np.array_equal(backward_solve(twin, forward_solve(twin, b)), x)

    def test_over_a_foreign_buffer_is_the_same_class(self):
        plan = repro.plan(PATTERNS["grid2d"]())
        symb, M = plan.symb, plan.system.matrix
        want = factorize_rl_cpu(symb, M).storage
        buffer = bytearray(want.arena.nbytes + 64)  # larger than needed, like a shm page
        storage = FactorStorage.over(symb, buffer)
        assert type(storage) is FactorStorage and storage.arena.size == want.arena.size
        storage.arena[:] = FactorStorage.from_matrix(symb, M).arena
        _assert_same_panels(_public_bodies(symb, storage, False), want, "over")
        assert np.array_equal(np.frombuffer(buffer, dtype=np.float64,
                                            count=want.arena.size), want.arena)

    def test_loose_panel_storage_solves_and_updates(self):
        """The ``Factor.update`` shape: shared and copied panels, no arena."""
        A = PATTERNS["grid3d"]()
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl")
        W = structured_update(plan.symb, plan.perm, [3, 11], seed=2)
        updated = factor.update(W)
        assert updated.storage.arena is None and factor.storage.arena is not None
        shared = sum(p is q for p, q in zip(updated.storage.panels, factor.storage.panels))
        assert 0 < shared < plan.symb.nsup
        b = np.random.default_rng(4).standard_normal(A.n)
        dense = A.to_dense() + W @ W.T
        x = updated.solve(b)
        assert np.linalg.norm(dense @ x - b) <= 1e-10 * np.linalg.norm(b)
        again = updated.update(W)
        assert np.linalg.norm((dense + W @ W.T) @ again.solve(b) - b) <= 1e-10 * np.linalg.norm(b)
        twin = pickle.loads(pickle.dumps(updated.storage))
        assert twin.arena is None
        _assert_same_panels(twin, updated.storage, "loose pickle")


class TestNotPositiveDefinite:
    @pytest.fixture(scope="class")
    def broken(self):
        A = PATTERNS["grid3d"]()
        plan = repro.plan(A)
        good = A.data.copy()
        bad = A.data.copy()
        bad[A.indptr[A.n // 2]] = -5.0  # a negative diagonal entry mid-matrix
        M = plan.system.matrix
        permuted = SymmetricCSC(M.n, M.indptr, M.indices, bad[plan.gather], check=False)
        with pytest.raises(NotPositiveDefiniteError) as ei:
            _reference_rl(plan.symb, permuted, np.float64)
        return plan, good, bad, ei.value.pivot

    @pytest.mark.parametrize("how", [
        dict(engine="rl"),
        dict(engine="rl_par", workers=1),
        dict(engine="rl_par", workers=3),
        dict(engine="rl_proc", workers=2),
        dict(engine="rl", dtype=np.float32),
    ])
    def test_same_pivot_from_every_lane(self, broken, how):
        plan, good, bad, pivot = broken
        with pytest.raises(NotPositiveDefiniteError) as ei:
            plan.factorize(bad, **how)
        assert ei.value.pivot == pivot
        # the lane is still serviceable
        plan.factorize(good, **how)

    @pytest.mark.parametrize("how", [
        dict(engine="rl_par", workers=2),
        dict(engine="rl"),
        dict(engine="rl_proc", workers=2),
    ])
    def test_batch_names_the_position(self, broken, how):
        plan, good, bad, pivot = broken
        with pytest.raises(NotPositiveDefiniteError) as ei:
            plan.factorize_batch([good, bad, good, bad], **how)
        assert ei.value.pivot == pivot and ei.value.batch_index == 1


class TestIndexCost:
    PRIMARIES = {
        "refactor_vec3d": lambda: vector_stencil((4, 4, 4), 4, connectivity="box"),
        "refactor_grid2d": lambda: grid_laplacian((12, 12)),
        "cold_mix": lambda: kkt_like(120, 30, density=0.05),
        "gateway_zipf": lambda: grid_laplacian((5, 5, 5)),
        # full size where analysis is quick: the claimed workload's pattern
        "grid2d_full": lambda: grid_laplacian((64, 64)),
    }

    @pytest.mark.parametrize("workload", sorted(PRIMARIES))
    def test_flat_index_is_at_most_three_factors(self, workload):
        """Measured 0.02–1.9x the fp64 factor's bytes on the benchmark's
        patterns (narrow supernodes cost most); 3x is the stated bound."""
        plan = repro.plan(self.PRIMARIES[workload]())
        index = assembly_index(plan.symb)
        flat_nbytes = sum(f[0].nbytes + f[1].nbytes for f in index.flat if f is not None)
        assert flat_nbytes <= 3 * FactorStorage.zeros(plan.symb).nbytes()

    @pytest.mark.parametrize("pattern, per_run", [
        (PATTERNS["vec3d_wide"], 7),  # measured 90 pieces over 13 runs
        (lambda: vector_stencil((10, 10, 10), 4, connectivity="box"), 12),  # 809 over 71
    ], ids=["vec3d_wide", "refactor_vec3d_full"])
    def test_block_form_pieces_per_run_stay_bounded(self, pattern, per_run):
        """Every piece is one NumPy op per factorization: a rule that cut
        runs finer than consecutive rows × consecutive columns shows here."""
        symb = repro.plan(pattern()).symb
        index = assembly_index(symb)
        runs = [run for s in range(symb.nsup) for run in index.pieces(s)]
        assert sum(len(pieces) for _, pieces in runs) <= per_run * len(runs)

    def test_index_build_searches_once_not_per_run(self, monkeypatch):
        """The cold-path guard: the first ``factorize(engine="rl")`` of the
        64² grid (2 635 assembly runs) reaches no per-run
        ``relative_indices`` and a handful of ``searchsorted`` calls."""
        calls = {"relative_indices": 0, "searchsorted": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        A = self.PRIMARIES["grid2d_full"]()
        plan = repro.plan(A)
        monkeypatch.setattr(relind, "relative_indices",
                            counted("relative_indices", relind.relative_indices))
        monkeypatch.setattr(np, "searchsorted", counted("searchsorted", np.searchsorted))
        factor = plan.factorize(engine="rl")
        monkeypatch.undo()
        assert sum(len(t) for t in assembly_index(plan.symb).targets) > 2000
        assert calls["relative_indices"] == 0
        assert calls["searchsorted"] <= 4
        b = np.ones(A.n)
        assert np.linalg.norm(A.matvec(factor.solve(b)) - b) <= 1e-12 * np.linalg.norm(b)
