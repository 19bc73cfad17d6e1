"""Tests for fill-reducing orderings (minimum degree, RCM, nested
dissection), the contract every :data:`ORDERINGS` method keeps, and the
quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.ordering import (
    ORDERINGS,
    adjacency_from_matrix,
    evaluate_ordering,
    minimum_degree,
    nested_dissection,
    order_matrix,
    reverse_cuthill_mckee,
)
from repro.sparse import (
    SymmetricCSC,
    arrow_matrix,
    grid_laplacian,
    is_permutation,
    random_spd,
    symmetric_permute,
    tridiagonal,
)


def star(n):
    """Vertex 0 joined to every other vertex."""
    leaves = list(range(1, n))
    return SymmetricCSC.from_coo(n, leaves + list(range(n)),
                                 [0] * (n - 1) + list(range(n)),
                                 [-1.0] * (n - 1) + [float(n)] * n)


def dense_fill_nnz(A, perm):
    """Entries of L found by eliminating a dense boolean pattern column by
    column — the oracle for :func:`evaluate_ordering`'s column counts."""
    B = symmetric_permute(A, perm).to_dense() != 0
    np.fill_diagonal(B, True)
    for k in range(A.n):
        nz = k + 1 + np.flatnonzero(B[k + 1:, k])
        B[np.ix_(nz, nz)] = True
    return int(np.tril(B).sum())


class TestMinimumDegree:
    def test_is_permutation(self, small_grid):
        g = adjacency_from_matrix(small_grid)
        assert is_permutation(minimum_degree(g), small_grid.n)

    def test_arrow_matrix_no_fill(self):
        # min degree eliminates the band first; natural order on the
        # reversed arrow causes massive fill.  MD must find the no-fill order
        A = arrow_matrix(30, bandwidth=1, arrow_width=1)
        q_md = evaluate_ordering(A, order_matrix(A, "mindeg"))
        q_nat = evaluate_ordering(A, order_matrix(A, "natural"))
        assert q_md.factor_nnz <= q_nat.factor_nnz
        # arrow with natural ordering has zero fill already; reverse it
        rev = np.arange(A.n)[::-1]
        q_rev = evaluate_ordering(A, rev)
        assert q_md.factor_nnz < q_rev.factor_nnz

    def test_path_eliminates_ends_first(self):
        g = adjacency_from_matrix(tridiagonal(5))
        perm = minimum_degree(g)
        assert perm[0] in (0, 4)

    def test_bad_tie_break(self, small_grid):
        g = adjacency_from_matrix(small_grid)
        with pytest.raises(ValueError):
            minimum_degree(g, tie_break="random")

    def test_no_fill_on_tree(self):
        # elimination of a path graph by min degree creates zero fill
        A = tridiagonal(20)
        q = evaluate_ordering(A, order_matrix(A, "mindeg"))
        assert q.factor_nnz == A.nnz_lower


class TestRcm:
    def test_is_permutation(self, small_grid):
        g = adjacency_from_matrix(small_grid)
        assert is_permutation(reverse_cuthill_mckee(g), small_grid.n)

    def test_reduces_bandwidth(self):
        rng = np.random.default_rng(0)
        A = random_spd(80, density=0.05, seed=9)
        g = adjacency_from_matrix(A)
        perm = reverse_cuthill_mckee(g)

        def bandwidth(M):
            D = M.to_dense()
            idx = np.nonzero(np.tril(D, -1))
            return (idx[0] - idx[1]).max() if idx[0].size else 0

        shuffled = symmetric_permute(A, rng.permutation(A.n))
        assert bandwidth(symmetric_permute(A, perm)) <= bandwidth(shuffled)


class TestNestedDissection:
    def test_is_permutation(self, small_grid):
        g = adjacency_from_matrix(small_grid)
        assert is_permutation(nested_dissection(g), small_grid.n)

    def test_beats_natural_on_3d_grid(self):
        A = grid_laplacian((8, 8, 8))
        q_nd = evaluate_ordering(A, order_matrix(A, "nd"))
        q_nat = evaluate_ordering(A, order_matrix(A, "natural"))
        assert q_nd.factor_nnz < q_nat.factor_nnz

    def test_beats_rcm_on_2d_grid(self):
        A = grid_laplacian((20, 20))
        q_nd = evaluate_ordering(A, order_matrix(A, "nd"))
        q_rcm = evaluate_ordering(A, order_matrix(A, "rcm"))
        assert q_nd.factor_nnz < q_rcm.factor_nnz

    def test_shallower_tree_than_rcm(self):
        A = grid_laplacian((16, 16))
        q_nd = evaluate_ordering(A, order_matrix(A, "nd"))
        q_rcm = evaluate_ordering(A, order_matrix(A, "rcm"))
        assert q_nd.etree_height < q_rcm.etree_height

    def test_disconnected_graph(self):
        from repro.sparse import SymmetricCSC

        rows = [1, 4]
        cols = [0, 3]
        A = SymmetricCSC.from_coo(6, rows + list(range(6)),
                                  cols + list(range(6)),
                                  [1.0] * 2 + [3.0] * 6)
        g = adjacency_from_matrix(A)
        assert is_permutation(nested_dissection(g, leaf_size=2), 6)

    def test_leaf_size_respected(self, small_grid):
        g = adjacency_from_matrix(small_grid)
        for leaf in (8, 32, 128):
            assert is_permutation(nested_dissection(g, leaf_size=leaf),
                                  small_grid.n)

    @given(st.integers(min_value=2, max_value=40), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_always_a_permutation_property(self, n, seed):
        A = random_spd(n, density=0.15, seed=seed % 211)
        g = adjacency_from_matrix(A)
        assert is_permutation(nested_dissection(g, leaf_size=4), n)


class TestDispatcher:
    def test_all_methods(self, small_grid):
        for m in ("nd", "mindeg", "rcm", "natural"):
            assert is_permutation(order_matrix(small_grid, m), small_grid.n)

    def test_unknown_method(self, small_grid):
        for method in ("metis", "amd"):
            with pytest.raises(ValueError, match="nd, mindeg, rcm, natural"):
                order_matrix(small_grid, method)


@pytest.mark.parametrize("method", ORDERINGS)
class TestEveryOrdering:
    """What ``order_matrix`` promises for every accepted method."""

    def test_empty_matrix(self, method):
        perm = order_matrix(SymmetricCSC(0, [0], [], []), method)
        assert perm.size == 0

    def test_diagonal_matrix(self, method):
        A = SymmetricCSC(5, np.arange(6), np.arange(5), np.ones(5))
        perm = order_matrix(A, method)
        assert is_permutation(perm, 5)
        assert evaluate_ordering(A, perm).factor_nnz == 5

    def test_path_graph_has_no_fill(self, method):
        A = tridiagonal(15)
        perm = order_matrix(A, method)
        assert is_permutation(perm, A.n)
        assert evaluate_ordering(A, perm).factor_nnz == A.nnz_lower

    def test_star_graph(self, method):
        # eliminating the hub first fills the whole matrix; every
        # fill-reducing method keeps it until no two leaves are left
        A = star(9)
        perm = order_matrix(A, method)
        assert is_permutation(perm, A.n)
        full = A.n * (A.n + 1) // 2
        expected = full if method == "natural" else A.nnz_lower
        assert evaluate_ordering(A, perm).factor_nnz == expected

    def test_two_components(self, method):
        a, b = grid_laplacian((4, 4)), tridiagonal(9)
        A = SymmetricCSC(
            a.n + b.n,
            np.concatenate([a.indptr, a.indptr[-1] + b.indptr[1:]]),
            np.concatenate([a.indices, a.n + b.indices]),
            np.concatenate([a.data, b.data]))
        assert is_permutation(order_matrix(A, method), A.n)

    def test_deterministic(self, method):
        A = random_spd(90, density=0.05, seed=5)
        assert np.array_equal(order_matrix(A, method),
                              order_matrix(A, method))

    @pytest.mark.parametrize("pattern", ["grid", "random", "arrow"])
    def test_factor_nnz_matches_dense_elimination(self, method, pattern):
        A = {
            "grid": lambda: grid_laplacian((7, 6)),
            "random": lambda: random_spd(60, density=0.08, seed=2),
            "arrow": lambda: arrow_matrix(40, bandwidth=2, arrow_width=3),
        }[pattern]()
        perm = order_matrix(A, method)
        assert evaluate_ordering(A, perm).factor_nnz == dense_fill_nnz(A, perm)

    def test_plan_factorizes_and_solves(self, method):
        A = grid_laplacian((6, 5, 2))
        b = np.arange(A.n, dtype=float)
        x = repro.plan(A, ordering=method).factorize(A.data).solve(b)
        D = A.to_dense()
        assert np.linalg.norm(D @ x - b) <= 1e-12 * np.linalg.norm(b)

    @given(st.integers(min_value=1, max_value=40), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_always_a_permutation(self, method, n, seed):
        A = random_spd(n, density=0.15, seed=seed % 211)
        assert is_permutation(order_matrix(A, method), n)


class TestQualityMetrics:
    def test_fields(self, small_grid):
        q = evaluate_ordering(small_grid, order_matrix(small_grid, "nd"))
        assert q.factor_nnz >= small_grid.nnz_lower
        assert q.factor_flops > 0
        assert q.etree_height >= 1
        assert q.fill_ratio >= 1.0
