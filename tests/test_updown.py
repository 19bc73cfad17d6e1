"""Tests for rank-1 / rank-k update/downdate of the supernodal factor."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dense import NotPositiveDefiniteError
from repro.numeric import (
    affected_columns,
    column_structure,
    factorize_rl_cpu,
    factorize_rlb_cpu,
    path_union,
    rank1_update,
    rank_k_update,
)
from repro.numeric.updown import _modification_plan
from repro.sparse import grid_laplacian, random_spd
from repro.symbolic import analyze


@pytest.fixture()
def factored():
    system = analyze(grid_laplacian((6, 6, 2)))
    res = factorize_rl_cpu(system.symb, system.matrix)
    return system, res.storage


def make_w(system, j0, nent, seed, scale=0.4):
    """A structurally valid rank-1 vector rooted at column ``j0``."""
    rng = np.random.default_rng(seed)
    w = np.zeros(system.symb.n)
    w[j0] = 0.5 + rng.random()
    rows = column_structure(system.symb, j0)
    take = rows[:nent]
    w[take] = scale * rng.standard_normal(take.size)
    return w


def make_W(system, roots, nent, seed, scale=0.3):
    """A structurally valid (n, k) block with one column per root."""
    cols = [make_w(system, j0, nent, seed=seed + i, scale=scale)
            for i, j0 in enumerate(roots)]
    return np.stack(cols, axis=1)


def reference_sweep(storage, W, downdate=False):
    """The scalar GGMS rotation loop the supernode-blocked sweep replaced:
    k sequential rank-1 sweeps, one rotation per (path column, rank)::

        r = sqrt(L_jj^2 ± w_j^2),  c = r / L_jj,  s = w_j / L_jj
        L_jj = r,  L_below,j = (L_below,j ± s w_below) / c,
        w_below = c w_below - s L_below,j

    In place on ``storage`` and a copy of ``W`` (factor ordering); raises
    :class:`NotPositiveDefiniteError` at the first failing pivot, leaving
    the panels as far as it got."""
    symb = storage.symb
    sign = -1.0 if downdate else 1.0
    W = np.array(W, dtype=np.float64).reshape(symb.n, -1)
    mod = _modification_plan(symb, W, check=False)
    for r, path in zip(mod.cols, mod.paths):
        for j in path.tolist():
            s = int(symb.col2sn[j])
            c_loc = j - int(symb.snptr[s])
            panel = storage.panel(s)
            rows_below = symb.snode_rows(s)[c_loc + 1:]
            wj = W[j, r]
            if wj == 0.0:
                continue  # identity rotation
            d = panel[c_loc, c_loc]
            r2 = d * d + sign * wj * wj
            if r2 <= 0.0 or d == 0.0:
                raise NotPositiveDefiniteError(j)
            rad = math.sqrt(r2)
            c, sfac = rad / d, wj / d
            panel[c_loc, c_loc] = rad
            if rows_below.size:
                col_new = (panel[c_loc + 1:, c_loc] + sign * sfac * W[rows_below, r]) / c
                panel[c_loc + 1:, c_loc] = col_new
                W[rows_below, r] = c * W[rows_below, r] - sfac * col_new


def dense_ref(system, w, sign=+1.0):
    if w.ndim == 1:
        w = w[:, None]
    return np.tril(sla.cholesky(
        system.matrix.to_dense() + sign * (w @ w.T), lower=True))


class TestUpdate:
    def test_matches_dense_recomputation(self, factored):
        system, storage = factored
        w = make_w(system, 7, 5, seed=1)
        rank1_update(storage, w)
        np.testing.assert_allclose(storage.to_dense_lower(),
                                   dense_ref(system, w), atol=1e-10)

    def test_affected_columns_is_tree_path(self, factored):
        system, storage = factored
        w = make_w(system, 3, 4, seed=2)
        before = [storage.panel(s).copy()
                  for s in range(system.symb.nsup)]
        path = rank1_update(storage, w)
        assert path == affected_columns(system.symb, np.flatnonzero(w))
        assert path[0] == 3 and sorted(path) == path
        # panels whose columns are all off the path are untouched
        touched = set(path)
        for s in range(system.symb.nsup):
            first, last = system.symb.snode_cols(s)
            if not touched.intersection(range(first, last)):
                np.testing.assert_array_equal(storage.panel(s), before[s])

    def test_zero_vector_noop(self, factored):
        system, storage = factored
        before = storage.to_dense_lower()
        assert rank1_update(storage, np.zeros(system.symb.n)) == []
        np.testing.assert_array_equal(storage.to_dense_lower(), before)

    def test_structure_violation_raises(self, factored):
        system, storage = factored
        w = np.zeros(system.symb.n)
        w[0] = 1.0
        # find a row guaranteed outside struct(L[:,0])
        outside = np.setdiff1d(np.arange(1, system.symb.n),
                               column_structure(system.symb, 0))
        if outside.size == 0:
            pytest.skip("column 0 structure is full")
        w[outside[0]] = 1.0
        with pytest.raises(ValueError, match="new fill"):
            rank1_update(storage, w)

    def test_check_can_be_disabled(self, factored):
        """check_structure=False lets the sweep run (wrong answer, caller's
        responsibility) — verify it simply does not raise."""
        system, storage = factored
        w = np.zeros(system.symb.n)
        w[0] = 1e-8
        outside = np.setdiff1d(np.arange(1, system.symb.n),
                               column_structure(system.symb, 0))
        if outside.size == 0:
            pytest.skip("column 0 structure is full")
        w[outside[0]] = 1e-8
        rank1_update(storage, w, check_structure=False)

    def test_shape_validation(self, factored):
        _, storage = factored
        with pytest.raises(ValueError):
            rank1_update(storage, np.ones(3))


class TestDowndate:
    def test_update_then_downdate_roundtrip(self, factored):
        system, storage = factored
        ref = storage.to_dense_lower().copy()
        w = make_w(system, 11, 6, seed=3)
        rank1_update(storage, w)
        rank1_update(storage, w, downdate=True)
        np.testing.assert_allclose(storage.to_dense_lower(), ref,
                                   atol=1e-10)

    def test_downdate_matches_dense(self, factored):
        system, storage = factored
        w = 0.05 * make_w(system, 5, 3, seed=4)  # small: A - w w^T stays SPD
        rank1_update(storage, w, downdate=True)
        np.testing.assert_allclose(storage.to_dense_lower(),
                                   dense_ref(system, w, sign=-1.0),
                                   atol=1e-9)

    def test_indefinite_downdate_raises(self, factored):
        system, storage = factored
        w = np.zeros(system.symb.n)
        j0 = 8
        w[j0] = 100.0  # far larger than any pivot
        with pytest.raises(NotPositiveDefiniteError):
            rank1_update(storage, w, downdate=True)


class TestSolveAfterUpdate:
    def test_solve_against_updated_matrix(self, factored):
        system, storage = factored
        from repro.solve import solve_factored

        w = make_w(system, 2, 4, seed=5)
        rank1_update(storage, w)
        A1 = system.matrix.to_dense() + np.outer(w, w)
        rng = np.random.default_rng(6)
        b = rng.standard_normal(system.symb.n)
        x = solve_factored(storage, b)
        np.testing.assert_allclose(A1 @ x, b, atol=1e-8)


class TestRankK:
    @pytest.mark.parametrize("roots", [[7], [3, 11, 20, 9]])
    def test_matches_dense_recomputation(self, factored, roots):
        system, storage = factored
        W = make_W(system, roots, 4, seed=10)
        rank_k_update(storage, W)
        np.testing.assert_allclose(storage.to_dense_lower(),
                                   dense_ref(system, W), atol=1e-10)

    def test_bitwise_equals_sequential_rank1(self, factored):
        system, _ = factored
        roots = [2, 9, 14]
        W = make_W(system, roots, 5, seed=11)
        seq = factorize_rl_cpu(system.symb, system.matrix).storage
        for r in range(W.shape[1]):
            rank1_update(seq, W[:, r])
        blk = factorize_rl_cpu(system.symb, system.matrix).storage
        rank_k_update(blk, W)
        for s in range(system.symb.nsup):
            np.testing.assert_array_equal(blk.panel(s), seq.panel(s))

    def test_returns_sorted_path_union(self, factored):
        system, storage = factored
        roots = [5, 16]
        W = make_W(system, roots, 3, seed=12)
        path = rank_k_update(storage, W)
        assert sorted(path) == path
        expect = sorted(set(affected_columns(system.symb, [roots[0]]))
                        | set(affected_columns(system.symb, [roots[1]])))
        assert path == expect

    def test_downdate_roundtrip(self, factored):
        system, storage = factored
        ref = storage.to_dense_lower().copy()
        W = make_W(system, [4, 13], 4, seed=13, scale=0.2)
        rank_k_update(storage, W)
        rank_k_update(storage, W, downdate=True)
        np.testing.assert_allclose(storage.to_dense_lower(), ref, atol=1e-9)

    def test_one_dim_vector_is_rank_one(self, factored):
        system, _ = factored
        w = make_w(system, 7, 5, seed=14)
        a = factorize_rl_cpu(system.symb, system.matrix).storage
        b = factorize_rl_cpu(system.symb, system.matrix).storage
        assert rank_k_update(a, w) == rank1_update(b, w)
        for s in range(system.symb.nsup):
            np.testing.assert_array_equal(a.panel(s), b.panel(s))

    def test_zero_block_noop(self, factored):
        system, storage = factored
        before = storage.to_dense_lower()
        assert rank_k_update(storage, np.zeros((system.symb.n, 3))) == []
        np.testing.assert_array_equal(storage.to_dense_lower(), before)

    def test_structure_violation_names_rank(self, factored):
        system, storage = factored
        W = np.zeros((system.symb.n, 2))
        W[:, 0] = make_w(system, 6, 3, seed=15)
        W[0, 1] = 1.0
        outside = np.setdiff1d(np.arange(1, system.symb.n),
                               column_structure(system.symb, 0))
        if outside.size == 0:
            pytest.skip("column 0 structure is full")
        W[outside[0], 1] = 1.0
        before = storage.to_dense_lower()
        with pytest.raises(ValueError, match="new fill"):
            rank_k_update(storage, W)
        # the check runs before any panel is touched
        np.testing.assert_array_equal(storage.to_dense_lower(), before)

    def test_shape_validation(self, factored):
        system, storage = factored
        with pytest.raises(ValueError):
            rank_k_update(storage, np.ones((3, 2)))
        with pytest.raises(ValueError):
            rank_k_update(storage, np.ones((system.symb.n, 2, 2)))


class TestAtomicity:
    """A failed downdate must leave the factor exactly as it found it."""

    @staticmethod
    def _poison(system, j0=8):
        w = np.zeros(system.symb.n)
        w[j0] = 100.0  # far larger than any pivot: guaranteed indefinite
        return w

    def test_rank1_failed_downdate_restores(self, factored):
        system, storage = factored
        before = storage.to_dense_lower().copy()
        with pytest.raises(NotPositiveDefiniteError):
            rank1_update(storage, self._poison(system), downdate=True)
        np.testing.assert_array_equal(storage.to_dense_lower(), before)

    def test_rank_k_failed_downdate_restores(self, factored):
        system, storage = factored
        # rank 0 succeeds at its columns, rank 1 then fails mid-path: the
        # snapshot must roll back rank 0's completed work too
        W = np.stack([make_w(system, 2, 4, seed=16),
                      self._poison(system)], axis=1)
        before = storage.to_dense_lower().copy()
        with pytest.raises(NotPositiveDefiniteError):
            rank_k_update(storage, W, downdate=True)
        np.testing.assert_array_equal(storage.to_dense_lower(), before)

    @staticmethod
    def _mid_path_poison(system, j0=2):
        # tiny entry at the root (rotates fine), huge carry deeper in the
        # structure: the sweep succeeds at early columns then fails
        w = np.zeros(system.symb.n)
        w[j0] = 0.05
        rows = column_structure(system.symb, j0)
        w[rows[-1]] = 100.0
        return w

    def test_mid_path_failure_restores(self, factored):
        system, storage = factored
        before = storage.to_dense_lower().copy()
        with pytest.raises(NotPositiveDefiniteError):
            rank1_update(storage, self._mid_path_poison(system),
                         downdate=True)
        np.testing.assert_array_equal(storage.to_dense_lower(), before)

    def test_snapshot_false_leaves_partial_state(self, factored):
        system, storage = factored
        before = storage.to_dense_lower().copy()
        with pytest.raises(NotPositiveDefiniteError):
            rank1_update(storage, self._mid_path_poison(system),
                         downdate=True, snapshot=False)
        assert not np.array_equal(storage.to_dense_lower(), before)


class TestPathUnion:
    def test_matches_per_column_union(self, factored):
        system, _ = factored
        roots = [1, 6, 17]
        got = path_union(system.symb, roots)
        expect = sorted(set().union(
            *(affected_columns(system.symb, [j]) for j in roots)))
        assert got.tolist() == expect

    def test_empty_roots(self, factored):
        system, _ = factored
        assert path_union(system.symb, []).size == 0

    def test_single_root_is_affected_columns(self, factored):
        system, _ = factored
        for j0 in (0, 9, system.symb.n - 1):
            assert (path_union(system.symb, [j0]).tolist()
                    == affected_columns(system.symb, [j0]))


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(min_value=8, max_value=26),
           st.data())
    def test_update_random_systems(self, seed, n, data):
        A = random_spd(n, density=0.25, seed=seed)
        system = analyze(A)
        storage = factorize_rlb_cpu(system.symb, system.matrix).storage
        j0 = data.draw(st.integers(min_value=0, max_value=n - 1))
        w = make_w(system, j0, data.draw(st.integers(0, 6)), seed=seed)
        rank1_update(storage, w)
        np.testing.assert_allclose(storage.to_dense_lower(),
                                   dense_ref(system, w), atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(min_value=8, max_value=22))
    def test_roundtrip_random(self, seed, n):
        A = random_spd(n, density=0.3, seed=seed)
        system = analyze(A)
        storage = factorize_rl_cpu(system.symb, system.matrix).storage
        ref = storage.to_dense_lower().copy()
        w = make_w(system, seed % n, 4, seed=seed, scale=0.2)
        rank1_update(storage, w)
        rank1_update(storage, w, downdate=True)
        np.testing.assert_allclose(storage.to_dense_lower(), ref, atol=1e-8)


def strict_upper(storage):
    """The dead strict upper triangle of every diagonal block."""
    symb = storage.symb
    return [np.triu(storage.panel(s)[:symb.snode_ncols(s)], 1)
            for s in range(symb.nsup)]


class TestAgainstReferenceLoop:
    """The supernode-blocked sweep against :func:`reference_sweep`."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(6, 30), st.floats(0.1, 0.4),
           st.integers(1, 4), st.booleans(), st.data())
    def test_same_panels_as_the_rotations(self, seed, n, density, k, downdate, data):
        system = analyze(random_spd(n, density=density, seed=seed))
        roots = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        W = make_W(system, roots, data.draw(st.integers(0, 6)), seed=seed)
        storage = factorize_rl_cpu(system.symb, system.matrix).storage
        if downdate:  # from the factor of A + W W^T back to A's
            reference_sweep(storage, W)
        ref = copy.deepcopy(storage)
        upper = strict_upper(storage)
        path = rank_k_update(storage, W, downdate=downdate)
        reference_sweep(ref, W, downdate)
        assert path == path_union(system.symb, sorted(set(roots))).tolist()
        for got, want in zip(storage.panels, ref.panels):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for got, want in zip(strict_upper(storage), upper):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(6, 30), st.floats(0.1, 0.4),
           st.integers(1, 4), st.data())
    def test_same_failing_column_for_an_indefinite_downdate(self, seed, n, density, k, data):
        system = analyze(random_spd(n, density=density, seed=seed))
        roots = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        W = 0.05 * make_W(system, roots, 4, seed=seed)
        # one rank carries a decisive poison: at its root, or deeper at the
        # last row of its root's column structure (a later path column)
        r = data.draw(st.integers(0, k - 1))
        rows = column_structure(system.symb, roots[r])
        at = rows[-1] if rows.size and data.draw(st.booleans()) else roots[r]
        W[at, r] = 1e3
        storage = factorize_rl_cpu(system.symb, system.matrix).storage
        ref = copy.deepcopy(storage)
        before = copy.deepcopy(storage)
        with pytest.raises(NotPositiveDefiniteError) as got:
            rank_k_update(storage, W, downdate=True)
        with pytest.raises(NotPositiveDefiniteError) as want:
            reference_sweep(ref, W, downdate=True)
        assert got.value.pivot == want.value.pivot
        for a, b in zip(storage.panels, before.panels):
            np.testing.assert_array_equal(a, b)


class TestNonFinitePivot:
    """A pivot that is no Cholesky pivot (zero, NaN) on the path raises and
    restores the panels — the sweep never returns a NaN factor."""

    @pytest.mark.parametrize("pivot", [0.0, np.nan])
    def test_rank1_raises_and_restores(self, factored, pivot):
        system, storage = factored
        w = make_w(system, 3, 4, seed=17)
        j = affected_columns(system.symb, np.flatnonzero(w))[1]
        s = int(system.symb.col2sn[j])
        c = j - int(system.symb.snptr[s])
        storage.panel(s)[c, c] = pivot
        before = [p.copy() for p in storage.panels]
        with pytest.raises(NotPositiveDefiniteError) as err:
            rank1_update(storage, w)
        assert err.value.pivot == j
        for p, q in zip(storage.panels, before):
            np.testing.assert_array_equal(p, q)
