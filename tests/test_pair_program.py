"""The pair program: one pattern-wide block/pair index, every row block
through f2py once, one arena commit per small source supernode — behind every
RLB lane.

Contracts, attacked with generated SPD patterns and the degenerate ones:

* **one body, same bits** — ``factorize_rlb_cpu`` ≡ the parent commit's pair
  loop (kept here as the reference: ``compute``/``commit`` on strided panel
  slices, blocks cut per supernode, one scalar ``searchsorted`` per
  off-diagonal pair) ≡ a loop of the public single-pair bodies ≡ the same on
  a storage of loose panels ≡ ``rlb_par`` at any worker count under every
  forced task-range cut ≡ ``rlb_proc`` ≡ ``factorize_batch``,
  ``np.array_equal`` on whole arenas, dead space included, fp64 and fp32;
  the flat and the per-pair commit forms are interchangeable;
* **the index** — blocks, owners and every pair's ``(owner, row_off,
  col_off)`` equal the scalar construction; the flat form is the per-pair
  slices in stream order, writes every destination once per source, stays
  inside the owner's panel, its leading slices match ``DagPlan.stay``; it is
  built without a per-pair ``searchsorted`` and costs a bounded multiple of
  the factor's own bytes;
* **failures** — a non-SPD matrix raises the reference loop's pivot from
  every lane.
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
from repro.dense import kernels as dk
from repro.numeric import (
    FactorStorage,
    apply_block_pair,
    block_pair_targets,
    commit_block_pair,
    compute_block_pair,
    factor_snode,
    factorize_rlb_cpu,
)
from repro.numeric.executor import dag_plan
from repro.numeric.procpool import close_default_pools
from repro.numeric.rlb import run_pair_range
from repro.sparse import SymmetricCSC, grid_laplacian, kkt_like, tridiagonal, vector_stencil
from repro.symbolic import relind, snode_blocks, task_ranges
from repro.symbolic.blocks import pair_index
from tests.conftest import CUTS, arrow_spd, force_cut, spd_from_pattern, two_component_spd

DTYPES = [np.float64, np.float32]


@pytest.fixture(scope="module", autouse=True)
def _release_default_pools():
    yield
    close_default_pools()


PATTERNS = {
    "n1": lambda: spd_from_pattern(np.zeros((1, 1), dtype=bool)),
    "diagonal": lambda: spd_from_pattern(np.zeros((9, 9), dtype=bool)),
    "dense": lambda: spd_from_pattern(np.ones((11, 11), dtype=bool)),
    "arrow": lambda: arrow_spd(12),
    "chain": lambda: tridiagonal(16),
    "forest": lambda: two_component_spd(7),
    "grid2d": lambda: grid_laplacian((9, 8)),
    "grid3d": lambda: grid_laplacian((6, 5, 2)),
    "kkt": lambda: kkt_like(60, 15, density=0.08),
    # the one pattern here with sources on both sides of the flat cut
    "vec3d_wide": lambda: vector_stencil((5, 5, 5), 4, connectivity="box"),
}


def _reference_blocks(symb, s):
    """The parent commit's ``snode_blocks``: ``(panel_start, length,
    first_row, owner)`` per block, cut per supernode."""
    below = symb.snode_below_rows(s)
    if below.size == 0:
        return []
    w = symb.snode_ncols(s)
    owners = symb.col2sn[below]
    cut = np.flatnonzero((np.diff(below) != 1) | (np.diff(owners) != 0)) + 1
    starts = np.concatenate(([0], cut))
    ends = np.concatenate((cut, [below.size]))
    return [
        (w + int(a), int(b - a), int(below[a]), int(owners[a])) for a, b in zip(starts, ends)
    ]


def _reference_target(symb, bi, bj):
    """The parent commit's ``block_pair_targets``: one scalar
    ``searchsorted`` per off-diagonal pair."""
    p = bi[3]
    col_off = bi[2] - int(symb.snptr[p])
    if bj is bi:
        return p, col_off, col_off
    prows = symb.snode_rows(p)
    row_off = int(np.searchsorted(prows, bj[2]))
    assert row_off + bj[1] <= prows.size and prows[row_off] == bj[2]
    return p, row_off, col_off


def _reference_rlb(symb, M, dtype):
    """The parent commit's serial RLB, verbatim in structure: per pair two
    strided panel slices into the kernels and one 2-D ``-=`` into the
    owner's panel."""
    storage = FactorStorage.from_matrix(symb, M, dtype=dtype)
    for s in range(symb.nsup):
        panel, w, b = factor_snode(symb, storage, s)
        if not b:
            continue
        blocks = _reference_blocks(symb, s)
        for i, bi in enumerate(blocks):
            rows_i = panel[bi[0] : bi[0] + bi[1], :w]
            for bj in blocks[i:]:
                if bj is bi:
                    u = dk.syrk_lower(rows_i)
                else:
                    u = dk.gemm_nt(panel[bj[0] : bj[0] + bj[1], :w], rows_i)
                p, row_off, col_off = _reference_target(symb, bi, bj)
                target = storage.panel(p)
                target[row_off : row_off + u.shape[0], col_off : col_off + u.shape[1]] -= u
    return storage


def _public_bodies(symb, storage, fused):
    """Serial RLB through the public single-pair bodies, in place."""
    for s in range(symb.nsup):
        panel, w, b = factor_snode(symb, storage, s)
        blocks = snode_blocks(symb, s)
        assert bool(blocks) == bool(b)
        for i, bi in enumerate(blocks):
            for bj in blocks[i:]:
                if fused:
                    kind, m, n, k = apply_block_pair(symb, storage, panel, w, bi, bj)
                    assert (kind, m, n, k) == (
                        ("syrk", 0, bi.length, w) if bj is bi else ("gemm", bj.length, bi.length, w)
                    )
                else:
                    u = compute_block_pair(panel, w, bi, bj)
                    commit_block_pair(symb, storage, bi, bj, u)
    return storage


def _assert_same_factor(got, want, what):
    assert len(got.panels) == len(want.panels)
    for s, (p, q) in enumerate(zip(got.panels, want.panels)):
        assert p.dtype == q.dtype and p.shape == q.shape
        assert np.array_equal(p, q), f"{what}: panel {s} differs"
    if got.arena is not None and want.arena is not None:
        assert np.array_equal(got.arena, want.arena), what


def plan_under(monkeypatch, cut, A):
    """A fresh plan of ``A`` whose partition was cut under ``cut``."""
    with monkeypatch.context() as patch:
        force_cut(patch, cut)
        plan = repro.plan(A)
        task_ranges(plan.symb)  # memoised while the constants are patched
    return plan


def _check_serial_lanes(A, dtype):
    plan = repro.plan(A)
    symb, M = plan.symb, plan.system.matrix
    want = _reference_rlb(symb, M, dtype)
    _assert_same_factor(factorize_rlb_cpu(symb, M, dtype=dtype).storage, want, "engine")
    _assert_same_factor(plan.factorize(engine="rlb", dtype=dtype).storage, want, "plan.factorize")
    for fused in (True, False):
        got = _public_bodies(symb, FactorStorage.from_matrix(symb, M, dtype=dtype), fused)
        _assert_same_factor(got, want, f"public bodies, fused={fused}")
    # a storage of loose panels: the engine's own body, no arena to index
    loose = [p.copy(order="F") for p in FactorStorage.from_matrix(symb, M, dtype=dtype).panels]
    storage = FactorStorage(symb, loose)
    run_pair_range(storage, pair_index(symb), 0, symb.nsup)
    assert storage.arena is None
    _assert_same_factor(storage, want, "arena-less storage")
    return plan, want


def _check_parallel_lanes(monkeypatch, A, dtype, want, cuts=CUTS, procs=True):
    for cut in cuts:
        plan = plan_under(monkeypatch, cut, A)
        for workers in (1, 2, 4):
            got = plan.factorize(engine="rlb_par", workers=workers, dtype=dtype).storage
            _assert_same_factor(got, want, f"rlb_par workers={workers} cut={cut}")
        batch = plan.factorize_batch([None, None], engine="rlb_par", workers=2, dtype=dtype)
        for factor in batch:
            _assert_same_factor(factor.storage, want, f"factorize_batch cut={cut}")
        if procs:
            got = plan.factorize(engine="rlb_proc", workers=2, dtype=dtype).storage
            _assert_same_factor(got, want, f"rlb_proc cut={cut}")
        _check_index(plan.symb)


def _check_index(symb):
    """The index against the scalar construction, source by source, and the
    flat form against the per-pair slices."""
    index = pair_index(symb)
    offsets = symb.panel_offsets()
    ranges = task_ranges(symb)
    stay = dag_plan(symb, "fine").stay
    nblocks = npairs = 0
    for s in range(symb.nsup):
        want_blocks = _reference_blocks(symb, s)
        blocks = snode_blocks(symb, s)
        assert snode_blocks(symb, s) is blocks
        assert [(b.panel_start, b.length, b.first_row, b.owner) for b in blocks] == want_blocks
        assert [(b.snode, b.index) for b in blocks] == [(s, i) for i in range(len(blocks))]
        w = symb.snode_ncols(s)
        cuts, flat = index.sources[s]
        assert cuts == [(b.panel_start - w, b.panel_start - w + b.length) for b in blocks]
        targets = index.targets(s)
        assert len(targets) == len(blocks) * (len(blocks) + 1) // 2
        assert index.pair_ptr[s + 1] - index.pair_ptr[s] == len(targets)
        assert index.blk_ptr[s + 1] - index.blk_ptr[s] == len(blocks)
        stream, k = [], 0
        ends = [0]  # stream position after each upper block's pairs
        for i, bi in enumerate(blocks):
            for j in range(i, len(blocks)):
                bj = blocks[j]
                p, row_off, col_off = _reference_target(symb, want_blocks[i], want_blocks[j])
                assert block_pair_targets(symb, bi, bj) == (p, row_off, col_off)
                assert targets[k] == (p, row_off, row_off + bj.length, col_off, col_off + bi.length)
                m = symb.panel_shape(p)[0]
                rows = np.arange(row_off, row_off + bj.length)[:, None]
                cols = np.arange(col_off, col_off + bi.length)
                where = (offsets[p] + rows + cols * m).ravel()  # row-major, as the stream is
                assert (where >= offsets[p]).all() and (where < offsets[p + 1]).all()
                stream.append(where)
                k += 1
            ends.append(sum(x.size for x in stream))
        nblocks += len(blocks)
        npairs += len(targets)
        b = symb.snode_below_rows(s).size
        if flat is None:
            assert b == 0 or b * b > relind.FLAT_UPDATE_ENTRIES
            continue
        assert 0 < b * b <= relind.FLAT_UPDATE_ENTRIES
        want = np.concatenate(stream)
        assert np.array_equal(flat, want)
        assert np.unique(flat).size == flat.size, "a destination written twice"
        for nstay, end in enumerate(ends):
            assert np.array_equal(index.flat_prefix(s, nstay), want[:end])
        # the prefix the range body commits is exactly what stays in range
        hi = ranges.bounds[ranges.range_of[s] + 1]
        assert stay[s] == sum(bl.owner < hi for bl in blocks)
        inside = index.flat_prefix(s, stay[s])
        assert (inside < offsets[hi]).all() and (want[inside.size :] >= offsets[hi]).all()
    assert (index.nblocks, index.npairs) == (nblocks, npairs)


class TestOneBodySameBits:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_edge_patterns(self, monkeypatch, pattern, dtype):
        A = PATTERNS[pattern]()
        plan, want = _check_serial_lanes(A, dtype)
        _check_index(plan.symb)
        _check_parallel_lanes(monkeypatch, A, dtype, want)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 40), density=st.floats(0.02, 0.6),
           seed=st.integers(0, 2**16), fp32=st.booleans(), cut=st.sampled_from(CUTS))
    def test_random_spd_patterns(self, n, density, seed, fp32, cut):
        pattern = sp.random(n, n, density=density, random_state=seed, format="csr")
        A = spd_from_pattern(pattern.toarray() != 0)
        dtype = np.float32 if fp32 else np.float64
        plan, want = _check_serial_lanes(A, dtype)
        _check_index(plan.symb)
        with pytest.MonkeyPatch.context() as patch:
            _check_parallel_lanes(patch, A, dtype, want, cuts=(cut,), procs=seed % 4 == 0)

    def test_wide_stencil_has_both_commit_forms(self):
        symb = repro.plan(PATTERNS["vec3d_wide"]()).symb
        flat = [f is not None for _, f in pair_index(symb).sources]
        below = [symb.snode_below_rows(s).size > 0 for s in range(symb.nsup)]
        assert any(flat) and any(b and not f for b, f in zip(below, flat))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cut", [0, 36, 10**9], ids=["per_pair", "mixed", "flat"])
    def test_the_cut_never_changes_the_factor(self, monkeypatch, dtype, cut):
        """All per-pair, a mix, all flat: the same factor."""
        A = PATTERNS["grid3d"]()
        want = repro.plan(A).factorize(engine="rlb", dtype=dtype).storage
        monkeypatch.setattr(relind, "FLAT_UPDATE_ENTRIES", cut)
        force_cut(monkeypatch, "mixed")
        plan = repro.plan(A)
        symb = plan.symb
        flat = [f is not None for _, f in pair_index(symb).sources]
        below = sum(symb.snode_below_rows(s).size > 0 for s in range(symb.nsup))
        assert any(flat) == (cut > 0) and (cut < 10**9 or sum(flat) == below)
        assert 0 < sum(flat) < below or cut != 36
        _assert_same_factor(plan.factorize(engine="rlb", dtype=dtype).storage, want, "rlb")
        for engine in ("rlb_par", "rlb_proc"):
            got = plan.factorize(engine=engine, workers=2, dtype=dtype).storage
            _assert_same_factor(got, want, engine)
        _check_index(symb)

    def test_whole_request_solution_is_the_reference(self):
        A = PATTERNS["vec3d_wide"]()
        plan = repro.plan(A)
        b = np.random.default_rng(1).standard_normal(A.n)
        want = _reference_rlb(plan.symb, plan.system.matrix, np.float64)
        factor = plan.factorize(engine="rlb")
        _assert_same_factor(factor.storage, want, "engine")
        assert np.linalg.norm(A.matvec(factor.solve(b)) - b) <= 1e-12 * np.linalg.norm(b)

    def test_lazy_targets_under_thread_stress(self, monkeypatch):
        """Every source on the per-pair form reads ``PairIndex.targets`` —
        materialised on first request, from whichever pool thread asks
        first: more workers than cores, a short switch interval, and the
        factor must still be the serial one, every time."""
        A = PATTERNS["grid2d"]()
        want = repro.plan(A).factorize(engine="rlb").storage
        monkeypatch.setattr(relind, "FLAT_UPDATE_ENTRIES", 0)
        force_cut(monkeypatch, "mixed")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                plan = repro.plan(A)  # a fresh index each round
                batch = plan.factorize_batch([None] * 4, engine="rlb_par", workers=8)
                for factor in batch:
                    _assert_same_factor(factor.storage, want, "stressed batch")
        finally:
            sys.setswitchinterval(interval)


class TestForcedCuts:
    """The determinism job's sweep: every parallel RLB lane against the
    reference loop on a grid large enough that the fitted cut is neither
    extreme — every supernode its own task, the default cut, one range."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_lanes_under_the_harness_cuts(self, monkeypatch, dtype):
        A = grid_laplacian((12, 12, 4))
        base = repro.plan(A)
        want = _reference_rlb(base.symb, base.system.matrix, dtype)
        cuts = ("singletons", "default", "one")
        _check_parallel_lanes(monkeypatch, A, dtype, want, cuts=cuts)
        tasks = [len(task_ranges(plan_under(monkeypatch, cut, A).symb)) for cut in cuts]
        assert tasks[0] == base.symb.nsup > tasks[1] > tasks[2] == 1


class TestNotPositiveDefinite:
    @pytest.fixture(scope="class")
    def broken(self):
        A = PATTERNS["grid3d"]()
        with pytest.MonkeyPatch.context() as patch:
            plan = plan_under(patch, "mixed", A)
        good = A.data.copy()
        bad = A.data.copy()
        bad[A.indptr[A.n // 2]] = -5.0  # a negative diagonal entry mid-matrix
        M = plan.system.matrix
        permuted = SymmetricCSC(M.n, M.indptr, M.indices, bad[plan.gather], check=False)
        with pytest.raises(NotPositiveDefiniteError) as ei:
            _reference_rlb(plan.symb, permuted, np.float64)
        return plan, good, bad, ei.value.pivot

    @pytest.mark.parametrize("how", [
        dict(engine="rlb"),
        dict(engine="rlb_par", workers=1),
        dict(engine="rlb_par", workers=3),
        dict(engine="rlb_proc", workers=2),
        dict(engine="rlb", dtype=np.float32),
    ])
    def test_same_pivot_from_every_lane(self, broken, how):
        plan, good, bad, pivot = broken
        with pytest.raises(NotPositiveDefiniteError) as ei:
            plan.factorize(bad, **how)
        assert ei.value.pivot == pivot
        # the lane is still serviceable
        plan.factorize(good, **how)

    @pytest.mark.parametrize("how", [
        dict(engine="rlb_par", workers=2),
        dict(engine="rlb"),
        dict(engine="rlb_proc", workers=2),
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
    def test_index_is_at_most_three_factors(self, workload):
        """Measured 0.1–1.3x the fp64 factor's bytes on the benchmark's
        patterns (narrow supernodes cost most); 3x is the stated bound."""
        plan = repro.plan(self.PRIMARIES[workload]())
        assert pair_index(plan.symb).nbytes() <= 3 * FactorStorage.zeros(plan.symb).nbytes()

    def test_index_build_searches_once_not_per_pair(self, monkeypatch):
        """The cold-path guard: the first ``factorize(engine="rlb")`` of the
        64² grid (8 038 block pairs, 4 707 of them off-diagonal) makes a
        handful of ``searchsorted`` calls, not one per off-diagonal pair."""
        calls = []
        searchsorted = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(1)
            return searchsorted(*args, **kwargs)

        A = self.PRIMARIES["grid2d_full"]()
        plan = repro.plan(A)
        monkeypatch.setattr(np, "searchsorted", counted)
        factor = plan.factorize(engine="rlb")
        monkeypatch.undo()
        index = pair_index(plan.symb)
        assert index.npairs - index.nblocks > 4000
        assert len(calls) <= 4
        b = np.ones(A.n)
        assert np.linalg.norm(A.matvec(factor.solve(b)) - b) <= 1e-12 * np.linalg.norm(b)
