"""Column-count tests: fast skeleton/LCA algorithm vs brute force."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    anisotropic_laplacian,
    arrow_matrix,
    grid_laplacian,
    random_spd,
    tridiagonal,
    vector_stencil,
)
from repro.symbolic import column_counts, elimination_tree


def column_counts_reference(A, parent):
    """O(|L|)-memory brute force: build each column's structure bottom-up
    (``struct(j) = A-struct(j) ∪ ⋃_child struct(child) \\ {child}``) and
    return its size.  Quadratic-ish; the oracle for ``column_counts``."""
    n = A.n
    structs = [None] * n
    counts = np.zeros(n, dtype=np.int64)
    for j in range(n):
        rows = A.indices[A.indptr[j]:A.indptr[j + 1]]
        s = set(int(r) for r in rows)
        if structs[j] is not None:
            s |= structs[j]
        s.add(j)
        counts[j] = len(s)
        p = parent[j]
        if p >= 0:
            s.discard(j)
            if structs[p] is None:
                structs[p] = s
            else:
                structs[p] |= s
        structs[j] = None
    return counts


def check(A):
    parent = elimination_tree(A)
    fast = column_counts(A, parent)
    ref = column_counts_reference(A, parent)
    assert np.array_equal(fast, ref), (fast, ref)
    return fast


class TestKnownStructures:
    def test_tridiagonal(self):
        counts = check(tridiagonal(6))
        assert counts.tolist() == [2, 2, 2, 2, 2, 1]

    def test_dense(self):
        from repro.sparse import SymmetricCSC

        D = np.ones((4, 4)) + 4 * np.eye(4)
        counts = check(SymmetricCSC.from_dense(D))
        assert counts.tolist() == [4, 3, 2, 1]

    def test_diagonal(self):
        from repro.sparse import SymmetricCSC

        A = SymmetricCSC.from_coo(5, range(5), range(5), [1.0] * 5)
        assert check(A).tolist() == [1] * 5

    def test_arrow(self):
        # arrow with dense last column: every column reaches row n-1
        counts = check(arrow_matrix(8, bandwidth=1, arrow_width=1))
        assert counts[0] == 3  # diag + band + arrow row
        assert counts[-1] == 1


class TestGeneratorsAgree:
    def test_grid_2d(self):
        check(grid_laplacian((7, 6)))

    def test_grid_3d(self):
        check(grid_laplacian((4, 4, 4)))

    def test_aniso(self):
        check(anisotropic_laplacian((5, 4, 3)))

    def test_vector_stencil(self):
        check(vector_stencil((3, 3, 3), 3, seed=1))

    def test_counts_sum_equals_factor_nnz(self, small_grid):
        import scipy.linalg as sla
        from repro.symbolic import analyze

        system = analyze(small_grid, merge=False, refine=False)
        parent = elimination_tree(system.matrix)
        counts = column_counts(system.matrix, parent)
        L = sla.cholesky(system.matrix.to_dense(), lower=True)
        true_nnz = np.count_nonzero(np.abs(np.tril(L)) > 1e-14)
        # symbolic counts bound true nnz (cancellation aside, equal)
        assert counts.sum() >= true_nnz


class TestRandomProperty:
    @given(st.integers(min_value=2, max_value=40), st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_fast_equals_reference(self, n, seed):
        A = random_spd(n, density=0.15, seed=seed % 1009)
        check(A)

    @given(st.integers(min_value=2, max_value=30), st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_counts_bounds(self, n, seed):
        A = random_spd(n, density=0.25, seed=seed % 307)
        counts = check(A)
        assert (counts >= 1).all()
        assert (counts <= n - np.arange(n)).all()
