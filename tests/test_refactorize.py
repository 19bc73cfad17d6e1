"""Symbolic-reuse tests: a plan re-factorizing new same-pattern values is
bit-identical to a fresh plan for every engine, and multi-RHS refinement on
top of the shared factor storage."""

import numpy as np
import pytest

import repro
from repro.numeric.registry import engine_names
from repro.solve import refine
from repro.sparse import SymmetricCSC, grid_laplacian


@pytest.fixture(scope="module")
def base_matrix():
    return grid_laplacian((6, 5, 3))


@pytest.fixture(scope="module")
def new_values(base_matrix):
    """Same-pattern value perturbation that keeps the matrix SPD."""
    rng = np.random.default_rng(11)
    data = base_matrix.data * (1.0 + 0.02 * rng.random(base_matrix.data.size))
    data[base_matrix.indptr[:-1]] += 0.5
    return data


class TestRefactorize:
    @pytest.mark.parametrize("method", engine_names())
    def test_bit_identical_to_fresh_factorize(self, base_matrix, new_values,
                                              method):
        plan = repro.plan(base_matrix)
        plan.factorize(engine=method)
        symb = plan.symb
        res = plan.factorize(new_values, engine=method).result
        assert plan.symb is symb  # symbolic work reused
        fresh = repro.plan(
            SymmetricCSC(base_matrix.n, base_matrix.indptr,
                         base_matrix.indices, new_values, check=False))
        ref = fresh.factorize(engine=method).result
        assert len(res.storage.panels) == len(ref.storage.panels)
        for p, q in zip(res.storage.panels, ref.storage.panels):
            assert np.array_equal(p, q)

    def test_refactorize_then_solve(self, base_matrix, new_values):
        plan = repro.plan(base_matrix)
        plan.factorize(engine="rl")
        factor = plan.factorize(new_values, engine="rl")
        x_true = np.arange(1, base_matrix.n + 1, dtype=np.float64)
        b = factor.matrix.matvec(x_true)
        x = factor.solve(b)
        assert np.allclose(x, x_true, atol=1e-8)

    def test_accepts_matrix_with_same_pattern(self, base_matrix, new_values):
        plan = repro.plan(base_matrix)
        B = SymmetricCSC(base_matrix.n, base_matrix.indptr,
                         base_matrix.indices, new_values, check=False)
        factor = plan.factorize(B, engine="rl")
        assert np.array_equal(factor.matrix.data, new_values)

    def test_wrong_length_rejected(self, base_matrix):
        plan = repro.plan(base_matrix)
        with pytest.raises(ValueError, match="shape"):
            plan.factorize(np.ones(3))

    def test_pattern_mismatch_rejected(self, base_matrix):
        plan = repro.plan(base_matrix)
        other = grid_laplacian((5, 6, 3))
        with pytest.raises(ValueError, match="pattern"):
            plan.factorize(other)


class TestMultiRhs:
    def test_refine_block_rhs(self, base_matrix):
        factor = repro.plan(base_matrix).factorize(engine="rl")
        rng = np.random.default_rng(5)
        X_true = rng.standard_normal((base_matrix.n, 3))
        B = base_matrix.matvec(X_true)
        out = refine(base_matrix, factor.storage, factor.plan.perm,
                     B, tol=1e-12)
        assert out.x.shape == B.shape
        assert out.residual_norms[-1] <= 1e-10
        assert np.allclose(out.x, X_true, atol=1e-7)

    def test_solver_block_solve_and_residual(self, base_matrix):
        factor = repro.plan(base_matrix).factorize(engine="rlb")
        rng = np.random.default_rng(6)
        X_true = rng.standard_normal((base_matrix.n, 4))
        B = base_matrix.matvec(X_true)
        X = factor.solve(B)
        assert X.shape == B.shape
        assert factor.residual_norm(X, B) < 1e-10
        assert np.allclose(X, X_true, atol=1e-7)
