"""The pair program: one pattern-wide block/pair index, every row block
through f2py once, one GEMM and one arena commit per narrow small source
supernode — behind every RLB lane.

Contracts, attacked with generated SPD patterns and the degenerate ones:

* **one body, same bits** — ``factorize_rlb_cpu`` ≡ the parent commit's pair
  loop (kept here as the reference: ``compute``/``commit`` on strided panel
  slices, blocks cut per supernode, one scalar ``searchsorted`` per
  off-diagonal pair) ≡ a loop of the public single-pair bodies ≡ ``rlb_par``
  at any worker count under every forced task-range cut, one task per range
  ≡ ``factorize_batch``, ``np.array_equal`` on whole arenas, dead space
  included, fp64 and fp32;
  the batched and the per-pair forms are interchangeable;
* **the index** — blocks, owners and every pair's ``(owner, row_off,
  col_off)`` equal the scalar construction; a batched source's flat form
  (the assembly index's) lands on exactly the lower triangles of its pair
  updates, writes every destination once per source, and the runs a range
  commits are exactly the pairs of the blocks ``DagPlan.stay`` keeps; it is
  built without a per-pair ``searchsorted`` and costs a bounded multiple of
  the factor's own bytes;
* **the batched product** — the BLAS property it stands on (the slices of
  one ``?gemm(rect, rectᵀ)`` are the pairs' own calls, bit for bit, within
  the width bound) and its call count, one GEMM per source;
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
    commit_block_pair,
    compute_block_pair,
    factorize_rlb_cpu,
)
from repro.numeric.executor import dag_plan
from repro.numeric.rlb import run_pair_range
from repro.sparse import SymmetricCSC, grid_laplacian, kkt_like, tridiagonal, vector_stencil
from repro.symbolic import relind, snode_blocks, task_ranges
from repro.symbolic.blocks import BATCHED_GEMM_MADDS, pair_index
from tests.conftest import (
    CUTS,
    arrow_spd,
    factor_snode,
    force_cut,
    spd_from_pattern,
    two_component_spd,
)

DTYPES = [np.float64, np.float32]


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
        panel, w, b = factor_snode(storage, s)
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


def _public_bodies(symb, storage):
    """Serial RLB through the public single-pair bodies, in place."""
    for s in range(symb.nsup):
        panel, w, b = factor_snode(storage, s)
        blocks = snode_blocks(symb, s)
        assert bool(blocks) == bool(b)
        for i, bi in enumerate(blocks):
            for bj in blocks[i:]:
                u = compute_block_pair(panel, w, bi, bj)
                commit_block_pair(symb, storage, bi, bj, u)
    return storage


def _assert_same_factor(got, want, what):
    assert len(got.panels) == len(want.panels)
    for s, (p, q) in enumerate(zip(got.panels, want.panels)):
        assert p.dtype == q.dtype and p.shape == q.shape
        assert np.array_equal(p, q), f"{what}: panel {s} differs"
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
    got = _public_bodies(symb, FactorStorage.from_matrix(symb, M, dtype=dtype))
    _assert_same_factor(got, want, "public bodies")
    return plan, want


def _check_parallel_lanes(monkeypatch, A, dtype, want, cuts=CUTS):
    for cut in cuts:
        plan = plan_under(monkeypatch, cut, A)
        # one task per range: no task of its own for a block pair
        assert dag_plan(plan.symb, "fine").ntasks == len(task_ranges(plan.symb))
        for workers in (1, 2, 4):
            got = plan.factorize(engine="rlb_par", workers=workers, dtype=dtype).storage
            _assert_same_factor(got, want, f"rlb_par workers={workers} cut={cut}")
        batch = plan.factorize_batch([None, None], engine="rlb_par", workers=2, dtype=dtype)
        for factor in batch:
            _assert_same_factor(factor.storage, want, f"factorize_batch cut={cut}")
        _check_index(plan.symb)


def _check_index(symb):
    """The index against the scalar construction, source by source, and a
    batched source's flat form against the per-pair slices."""
    index = pair_index(symb)
    assert index.assembly is relind.assembly_index(symb)
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
        stream, k = [], 0  # per upper block, the arena entries its pairs update
        for i, bi in enumerate(blocks):
            lands = []
            for j in range(i, len(blocks)):
                bj = blocks[j]
                p, row_off, col_off = _reference_target(symb, want_blocks[i], want_blocks[j])
                assert targets[k] == (p, row_off, row_off + bj.length, col_off, col_off + bi.length)
                assert index.target(bi, bj) == targets[k]
                m = symb.panel_shape(p)[0]
                rows = np.arange(row_off, row_off + bj.length)[:, None]
                cols = np.arange(col_off, col_off + bi.length)
                where = offsets[p] + rows + cols * m
                assert (where >= offsets[p]).all() and (where < offsets[p + 1]).all()
                lands.append(where[np.tril_indices_from(where)] if j == i else where.ravel())
                k += 1
            stream.append(np.concatenate(lands))
        nblocks += len(blocks)
        npairs += len(targets)
        # the prefix the range body commits is exactly what stays in range
        hi = ranges.bounds[ranges.range_of[s] + 1]
        assert stay[s] == sum(bl.owner < hi for bl in blocks)
        b = symb.snode_below_rows(s).size
        narrow = max(b, w) ** 2 <= relind.FLAT_UPDATE_ENTRIES and b * b * w <= BATCHED_GEMM_MADDS
        assert (flat is not None) == (b > 0 and narrow)
        if flat is None:
            continue
        dst, _, bounds = flat
        assert flat is index.assembly.flat[s]
        assert np.array_equal(np.sort(dst), np.sort(np.concatenate(stream)))
        assert np.unique(dst).size == dst.size, "a destination written twice"
        stop = sum(p < hi for p, _, _ in bounds)
        end = bounds[stop - 1][2] if stop else 0
        inside = np.concatenate([np.zeros(0, np.int64)] + stream[: stay[s]])
        assert np.array_equal(np.sort(dst[:end]), np.sort(inside))
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
            _check_parallel_lanes(patch, A, dtype, want, cuts=(cut,))

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
        got = plan.factorize(engine="rlb_par", workers=2, dtype=dtype).storage
        _assert_same_factor(got, want, "rlb_par")
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


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestBatchedProduct:
    """What a batched source stands on: the GEMM property inside the bound,
    and one GEMM per source instead of one call per block pair."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), fp32=st.booleans(), seed=st.integers(0, 2**16))
    def test_product_slices_are_the_pair_calls(self, data, fp32, seed):
        """Every off-diagonal block of ONE ``?gemm(rect, rectᵀ)`` is that
        pair's own ``?gemm`` bit for bit, and a one-column ``?gemm`` is
        ``?syrk`` on each block's lower triangle, for every batched ``(b,
        w)``: ``b, w <= 128`` and ``b² w <= BATCHED_GEMM_MADDS``.  A property
        of the BLAS, not a law: on a single-thread OpenBLAS 0.3.31 (AVX-512
        Xeon) ``w = 600`` broke it for 111 of 247 fp64 and 124 of 266 fp32
        pairs drawn like these, and a two-thread one broke 94 of 3 680 fp64
        pairs with ``b, w <= 128``, all with ``b² w`` above ``10⁶`` — so the
        width bound and ``BATCHED_GEMM_MADDS`` are load-bearing."""
        dtype = np.float32 if fp32 else np.float64
        cut = relind.FLAT_UPDATE_ENTRIES
        w = data.draw(st.integers(1, int(cut**0.5)), label="w")
        bmax = min(int(cut**0.5), int((BATCHED_GEMM_MADDS // w) ** 0.5))
        b = data.draw(st.integers(1, bmax), label="b")
        inner = data.draw(st.sets(st.integers(1, b - 1), max_size=12) if b > 1 else st.just(set()))
        edges = [0, *sorted(inner), b]
        cuts = list(zip(edges[:-1], edges[1:]))
        rect = np.asfortranarray(np.random.default_rng(seed).standard_normal((b, w)), dtype=dtype)
        syrk, gemm = dk.pair_routines(dtype)
        G = gemm(1.0, rect, rect, trans_b=1)
        blocks = [np.asfortranarray(rect[a:e]) for a, e in cuts]
        for i, (a, e) in enumerate(cuts):
            if w == 1:
                assert _same_bits(np.tril(G[a:e, a:e]), syrk(1.0, blocks[i], lower=1, trans=0))
            for j in range(i + 1, len(cuts)):
                c, d = cuts[j]
                assert _same_bits(gemm(1.0, blocks[j], blocks[i], trans_b=1), G[c:d, a:e])

    def test_one_gemm_per_narrow_source(self, monkeypatch):
        """The call-count guard: a batched source with ``nb`` blocks makes 1
        GEMM plus ``nb`` SYRKs when ``w > 1`` (the only block's SYRK alone
        when ``nb == 1``); any other source one call per pair,
        ``nb (nb + 1) / 2``."""
        calls = []
        routines = dk.pair_routines

        def counted(dtype):
            def count(kind, fn):
                def call(*args, **kwargs):
                    calls.append(kind)
                    return fn(*args, **kwargs)

                return call

            syrk, gemm = routines(dtype)
            return count("syrk", syrk), count("gemm", gemm)

        seen = set()
        for A in (grid_laplacian((9, 8)), PATTERNS["vec3d_wide"]()):
            plan = repro.plan(A)
            symb, M = plan.symb, plan.system.matrix
            index = pair_index(symb)
            storage = FactorStorage.from_matrix(symb, M)
            with monkeypatch.context() as patch:
                patch.setattr(dk, "pair_routines", counted)
                for s in range(symb.nsup):
                    calls.clear()
                    run_pair_range(storage, index, s, s + 1)
                    cuts, flat = index.sources[s]
                    nb, w = len(cuts), symb.snode_ncols(s)
                    if flat is None:
                        want = {"syrk": nb, "gemm": nb * (nb - 1) // 2}
                    elif nb == 1:
                        want = {"syrk": 1, "gemm": 0}
                    else:
                        want = {"syrk": nb if w > 1 else 0, "gemm": 1}
                    assert {k: calls.count(k) for k in want} == want, s
                    seen.add((flat is not None, nb > 1, w > 1))
            _assert_same_factor(storage, _reference_rlb(symb, M, np.float64), "source by source")
        assert {(True, True, True), (True, True, False), (False, True, True)} <= seen


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
