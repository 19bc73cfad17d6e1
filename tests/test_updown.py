"""Rank-1 / rank-k update and downdate of the supernodal factor, through
the one door that changes a factor: copy-on-write :meth:`Factor.update` /
:meth:`Factor.downdate`.

The vectors are built in the factor's ordering (on its column structures)
and scattered back for the door (:func:`update`).  A failed call leaves its
base's panels bit for bit as they were."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dense import NotPositiveDefiniteError
from repro.numeric import column_structure
from repro.numeric.updown import _modification_plan
from repro.sparse import grid_laplacian, random_spd
from tests.conftest import arena_copy, writable_twin


@pytest.fixture()
def factored():
    plan = repro.plan(grid_laplacian((6, 6, 2)))
    return plan.system, plan.factorize(engine="rl")


def original(factor, W):
    """``W`` given in the factor's ordering, in the original ordering."""
    out = np.empty_like(W)
    out[factor.plan.perm] = W
    return out


def update(factor, W, downdate=False):
    """``factor.update`` of ``W`` given in the factor's ordering."""
    return factor.update(original(factor, W), downdate=downdate)


def panel_bytes(factor):
    return [p.tobytes(order="F") for p in factor.storage.panels]




def tree_path(symb, j):
    """The column elimination-tree path from ``j`` to its root: each
    column's parent is the first row of its column structure."""
    path = [j]
    while (rows := column_structure(symb, path[-1])).size:
        path.append(int(rows[0]))
    return path


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
    mod = _modification_plan(symb, W)
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
        system, factor = factored
        w = make_w(system, 7, 5, seed=1)
        np.testing.assert_allclose(update(factor, w).storage.to_dense_lower(),
                                   dense_ref(system, w), atol=1e-10)

    def test_only_the_tree_path_is_touched(self, factored):
        system, factor = factored
        symb = system.symb
        w = make_w(system, 3, 4, seed=2)
        before = panel_bytes(factor)
        updated = update(factor, w)
        path = _modification_plan(symb, w[:, None]).union.tolist()
        assert path == tree_path(symb, 3)
        assert updated.result.extra["update_cols"] == len(path)
        # panels whose columns are all off the path are shared, untouched
        on_path = set(symb.col2sn[path].tolist())
        for s in range(symb.nsup):
            if s not in on_path:
                assert updated.storage.panel(s) is factor.storage.panel(s)
        assert panel_bytes(factor) == before

    def test_zero_vector_noop(self, factored):
        system, factor = factored
        before = factor.storage.to_dense_lower()
        updated = update(factor, np.zeros(system.symb.n))
        assert updated.result.extra["update_cols"] == 0
        np.testing.assert_array_equal(updated.storage.to_dense_lower(), before)

    def test_structure_violation_raises(self, factored):
        system, factor = factored
        w = np.zeros(system.symb.n)
        w[0] = 1.0
        # find a row guaranteed outside struct(L[:,0])
        outside = np.setdiff1d(np.arange(1, system.symb.n),
                               column_structure(system.symb, 0))
        if outside.size == 0:
            pytest.skip("column 0 structure is full")
        w[outside[0]] = 1.0
        with pytest.raises(ValueError, match="new fill"):
            update(factor, w)

    def test_shape_validation(self, factored):
        _, factor = factored
        with pytest.raises(ValueError):
            factor.update(np.ones(3))


class TestDowndate:
    def test_update_then_downdate_roundtrip(self, factored):
        system, factor = factored
        w = make_w(system, 11, 6, seed=3)
        back = update(update(factor, w), w, downdate=True)
        np.testing.assert_allclose(back.storage.to_dense_lower(),
                                   factor.storage.to_dense_lower(), atol=1e-10)

    def test_downdate_matches_dense(self, factored):
        system, factor = factored
        w = 0.05 * make_w(system, 5, 3, seed=4)  # small: A - w w^T stays SPD
        np.testing.assert_allclose(update(factor, w, downdate=True).storage.to_dense_lower(),
                                   dense_ref(system, w, sign=-1.0),
                                   atol=1e-9)

    def test_indefinite_downdate_raises(self, factored):
        system, factor = factored
        w = np.zeros(system.symb.n)
        j0 = 8
        w[j0] = 100.0  # far larger than any pivot
        before = panel_bytes(factor)
        with pytest.raises(NotPositiveDefiniteError):
            update(factor, w, downdate=True)
        assert panel_bytes(factor) == before


class TestSolveAfterUpdate:
    def test_solve_against_updated_matrix(self, factored):
        system, factor = factored
        from repro.solve import solve_factored

        w = make_w(system, 2, 4, seed=5)
        updated = update(factor, w)
        A1 = system.matrix.to_dense() + np.outer(w, w)
        rng = np.random.default_rng(6)
        b = rng.standard_normal(system.symb.n)
        x = solve_factored(updated.storage, b)
        np.testing.assert_allclose(A1 @ x, b, atol=1e-8)


class TestRankK:
    @pytest.mark.parametrize("roots", [[7], [3, 11, 20, 9]])
    def test_matches_dense_recomputation(self, factored, roots):
        system, factor = factored
        W = make_W(system, roots, 4, seed=10)
        np.testing.assert_allclose(update(factor, W).storage.to_dense_lower(),
                                   dense_ref(system, W), atol=1e-10)

    def test_bitwise_equals_sequential_rank1(self, factored):
        system, factor = factored
        roots = [2, 9, 14]
        W = make_W(system, roots, 5, seed=11)
        seq = factor
        for r in range(W.shape[1]):
            seq = update(seq, W[:, r])
        assert panel_bytes(update(factor, W)) == panel_bytes(seq)

    def test_touches_the_sorted_path_union(self, factored):
        system, factor = factored
        symb = system.symb
        roots = [5, 16]
        W = make_W(system, roots, 3, seed=12)
        union = _modification_plan(symb, W).union.tolist()
        assert union == sorted(set(tree_path(symb, 5)) | set(tree_path(symb, 16)))
        assert update(factor, W).result.extra["update_cols"] == len(union)

    def test_downdate_roundtrip(self, factored):
        system, factor = factored
        W = make_W(system, [4, 13], 4, seed=13, scale=0.2)
        back = update(update(factor, W), W, downdate=True)
        np.testing.assert_allclose(back.storage.to_dense_lower(),
                                   factor.storage.to_dense_lower(), atol=1e-9)

    def test_one_dim_vector_is_rank_one(self, factored):
        system, factor = factored
        w = make_w(system, 7, 5, seed=14)
        a, b = update(factor, w), update(factor, w[:, None])
        assert a.result.extra["update_cols"] == b.result.extra["update_cols"]
        assert a.result.extra["update_rank"] == 1
        assert panel_bytes(a) == panel_bytes(b)

    def test_zero_block_noop(self, factored):
        system, factor = factored
        before = factor.storage.to_dense_lower()
        updated = update(factor, np.zeros((system.symb.n, 3)))
        assert updated.result.extra["update_cols"] == 0
        np.testing.assert_array_equal(updated.storage.to_dense_lower(), before)

    def test_structure_violation_names_rank(self, factored):
        system, factor = factored
        W = np.zeros((system.symb.n, 2))
        W[:, 0] = make_w(system, 6, 3, seed=15)
        W[0, 1] = 1.0
        outside = np.setdiff1d(np.arange(1, system.symb.n),
                               column_structure(system.symb, 0))
        if outside.size == 0:
            pytest.skip("column 0 structure is full")
        W[outside[0], 1] = 1.0
        before = panel_bytes(factor)
        with pytest.raises(ValueError, match=r"column 1 of W.*new fill"):
            update(factor, W)
        # the check runs before any panel is touched
        assert panel_bytes(factor) == before

    def test_shape_validation(self, factored):
        system, factor = factored
        with pytest.raises(ValueError):
            factor.update(np.ones((3, 2)))
        with pytest.raises(ValueError):
            factor.update(np.ones((system.symb.n, 2, 2)))


class TestAtomicity:
    """A failed downdate must leave its base exactly as it found it."""

    @staticmethod
    def _poison(system, j0=8):
        w = np.zeros(system.symb.n)
        w[j0] = 100.0  # far larger than any pivot: guaranteed indefinite
        return w

    def test_rank1_failed_downdate_restores(self, factored):
        system, factor = factored
        before = panel_bytes(factor)
        with pytest.raises(NotPositiveDefiniteError):
            update(factor, self._poison(system), downdate=True)
        assert panel_bytes(factor) == before

    def test_rank_k_failed_downdate_restores(self, factored):
        system, factor = factored
        # rank 0 succeeds at its columns, rank 1 then fails mid-path: rank
        # 0's completed work must not reach the base either
        W = np.stack([make_w(system, 2, 4, seed=16),
                      self._poison(system)], axis=1)
        before = panel_bytes(factor)
        with pytest.raises(NotPositiveDefiniteError):
            update(factor, W, downdate=True)
        assert panel_bytes(factor) == before

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
        system, factor = factored
        before = panel_bytes(factor)
        with pytest.raises(NotPositiveDefiniteError):
            update(factor, self._mid_path_poison(system), downdate=True)
        assert panel_bytes(factor) == before


class TestPathUnion:
    """The merged union of the modification's plan, and what
    ``Factor.update_cost`` reports of it."""

    def test_matches_per_column_union(self, factored):
        system, factor = factored
        symb = system.symb
        roots = [1, 6, 17]
        W = make_W(system, roots, 3, seed=18)
        got = _modification_plan(symb, W).union
        expect = sorted(set().union(*(tree_path(symb, j) for j in roots)))
        assert got.tolist() == expect
        cost = factor.update_cost(original(factor, W))
        assert cost.path_cols == len(expect)
        assert cost.path_snodes == np.unique(symb.col2sn[expect]).size

    def test_empty_roots(self, factored):
        system, factor = factored
        assert _modification_plan(system.symb, np.zeros((system.symb.n, 2))).union.size == 0
        cost = factor.update_cost(np.zeros(system.symb.n))
        assert cost.path_cols == cost.path_snodes == 0

    def test_single_root_is_the_tree_path(self, factored):
        system, _ = factored
        symb = system.symb
        for j0 in (0, 9, symb.n - 1):
            w = np.zeros((symb.n, 1))
            w[j0] = 1.0
            assert _modification_plan(symb, w).union.tolist() == tree_path(symb, j0)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(min_value=8, max_value=26),
           st.data())
    def test_update_random_systems(self, seed, n, data):
        plan = repro.plan(random_spd(n, density=0.25, seed=seed))
        system, factor = plan.system, plan.factorize(engine="rlb")
        j0 = data.draw(st.integers(min_value=0, max_value=n - 1))
        w = make_w(system, j0, data.draw(st.integers(0, 6)), seed=seed)
        np.testing.assert_allclose(update(factor, w).storage.to_dense_lower(),
                                   dense_ref(system, w), atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(min_value=8, max_value=22))
    def test_roundtrip_random(self, seed, n):
        plan = repro.plan(random_spd(n, density=0.3, seed=seed))
        system, factor = plan.system, plan.factorize(engine="rl")
        w = make_w(system, seed % n, 4, seed=seed, scale=0.2)
        back = update(update(factor, w), w, downdate=True)
        np.testing.assert_allclose(back.storage.to_dense_lower(),
                                   factor.storage.to_dense_lower(), atol=1e-8)


def strict_upper(storage):
    """The dead strict upper triangle of every diagonal block."""
    symb = storage.symb
    return [np.triu(storage.panel(s)[:symb.snode_ncols(s)], 1)
            for s in range(symb.nsup)]


class TestAgainstReferenceLoop:
    """``Factor.update``'s supernode-blocked sweep against
    :func:`reference_sweep`."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(6, 30), st.floats(0.1, 0.4),
           st.integers(1, 4), st.booleans(), st.data())
    def test_same_panels_as_the_rotations(self, seed, n, density, k, downdate, data):
        plan = repro.plan(random_spd(n, density=density, seed=seed))
        system = plan.system
        roots = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        W = make_W(system, roots, data.draw(st.integers(0, 6)), seed=seed)
        factor = plan.factorize(engine="rl")
        if downdate:  # from the factor of A + W W^T back to A's
            factor = update(factor, W)
        ref = arena_copy(factor.storage)
        upper = strict_upper(factor.storage)
        got = update(factor, W, downdate=downdate)
        reference_sweep(ref, W, downdate)
        union = sorted(set().union(*(tree_path(system.symb, j) for j in roots)))
        assert got.result.extra["update_cols"] == len(union)
        for a, want in zip(got.storage.panels, ref.panels):
            assert np.abs(a - want).max() <= 1e-12 * np.abs(want).max()
        for a, want in zip(strict_upper(got.storage), upper):
            np.testing.assert_array_equal(a, want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(6, 30), st.floats(0.1, 0.4),
           st.integers(1, 4), st.data())
    def test_same_failing_column_for_an_indefinite_downdate(self, seed, n, density, k, data):
        plan = repro.plan(random_spd(n, density=density, seed=seed))
        system = plan.system
        roots = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        W = 0.05 * make_W(system, roots, 4, seed=seed)
        # one rank carries a decisive poison: at its root, or deeper at the
        # last row of its root's column structure (a later path column)
        r = data.draw(st.integers(0, k - 1))
        rows = column_structure(system.symb, roots[r])
        at = rows[-1] if rows.size and data.draw(st.booleans()) else roots[r]
        W[at, r] = 1e3
        factor = plan.factorize(engine="rl")
        ref = arena_copy(factor.storage)
        before = panel_bytes(factor)
        with pytest.raises(NotPositiveDefiniteError) as got:
            update(factor, W, downdate=True)
        with pytest.raises(NotPositiveDefiniteError) as want:
            reference_sweep(ref, W, downdate=True)
        assert got.value.pivot == want.value.pivot
        assert panel_bytes(factor) == before


class TestNonFinitePivot:
    """A pivot that is no Cholesky pivot (zero, NaN) on the path raises and
    leaves the base's panels — the sweep never returns a NaN factor."""

    @pytest.mark.parametrize("pivot", [0.0, np.nan])
    def test_rank1_raises_and_restores(self, factored, pivot):
        system, factor = factored
        factor = writable_twin(factor)  # a returned factor is read-only
        w = make_w(system, 3, 4, seed=17)
        j = tree_path(system.symb, 3)[1]
        s = int(system.symb.col2sn[j])
        c = j - int(system.symb.snptr[s])
        factor.storage.panel(s)[c, c] = pivot
        before = panel_bytes(factor)
        with pytest.raises(NotPositiveDefiniteError) as err:
            update(factor, w)
        assert err.value.pivot == j
        assert panel_bytes(factor) == before
