"""Symbolic-reuse API tests: ``CholeskySolver.update_values`` /
``refactorize`` equivalence for every engine, and multi-RHS refinement on
top of the shared factor storage."""

import numpy as np
import pytest

from repro.numeric.registry import engine_names
from repro.solve import refine
from repro.solve.driver import CholeskySolver
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
        solver = CholeskySolver(base_matrix, method=method)
        solver.factorize()
        symb = solver.system.symb
        res = solver.refactorize(new_values)
        assert solver.system.symb is symb  # symbolic work reused
        fresh = CholeskySolver(
            SymmetricCSC(base_matrix.n, base_matrix.indptr,
                         base_matrix.indices, new_values, check=False),
            method=method)
        ref = fresh.factorize()
        assert len(res.storage.panels) == len(ref.storage.panels)
        for p, q in zip(res.storage.panels, ref.storage.panels):
            assert np.array_equal(p, q)

    def test_refactorize_then_solve(self, base_matrix, new_values):
        solver = CholeskySolver(base_matrix, method="rl")
        solver.factorize()
        solver.refactorize(new_values)
        x_true = np.arange(1, base_matrix.n + 1, dtype=np.float64)
        b = solver.A.matvec(x_true)
        x = solver.solve(b)
        assert np.allclose(x, x_true, atol=1e-8)

    def test_accepts_matrix_with_same_pattern(self, base_matrix, new_values):
        solver = CholeskySolver(base_matrix, method="rl")
        solver.factorize()
        B = SymmetricCSC(base_matrix.n, base_matrix.indptr,
                         base_matrix.indices, new_values, check=False)
        solver.refactorize(B)
        assert np.array_equal(solver.A.data, new_values)

    def test_update_values_drops_stale_result(self, base_matrix, new_values):
        solver = CholeskySolver(base_matrix, method="rl")
        solver.factorize()
        assert solver.result is not None
        solver.update_values(new_values)
        assert solver.result is None

    def test_wrong_length_rejected(self, base_matrix):
        solver = CholeskySolver(base_matrix, method="rl")
        solver.factorize()
        with pytest.raises(ValueError, match="shape"):
            solver.update_values(np.ones(3))

    def test_pattern_mismatch_rejected(self, base_matrix):
        solver = CholeskySolver(base_matrix, method="rl")
        solver.factorize()
        other = grid_laplacian((5, 6, 3))
        with pytest.raises(ValueError, match="pattern"):
            solver.update_values(other)

    def test_refactorize_before_analysis(self, base_matrix, new_values):
        # a cold solver: refactorize must bootstrap the pipeline
        solver = CholeskySolver(base_matrix, method="rl")
        res = solver.refactorize(new_values)
        assert res is solver.result
        assert np.array_equal(solver.A.data, new_values)


class TestMultiRhs:
    def test_refine_block_rhs(self, base_matrix):
        solver = CholeskySolver(base_matrix, method="rl")
        solver.factorize()
        rng = np.random.default_rng(5)
        X_true = rng.standard_normal((base_matrix.n, 3))
        B = base_matrix.matvec(X_true)
        out = refine(base_matrix, solver.result.storage, solver.system.perm,
                     B, tol=1e-12)
        assert out.x.shape == B.shape
        assert out.residual_norms[-1] <= 1e-10
        assert np.allclose(out.x, X_true, atol=1e-7)

    def test_solver_block_solve_and_residual(self, base_matrix):
        solver = CholeskySolver(base_matrix, method="rlb")
        rng = np.random.default_rng(6)
        X_true = rng.standard_normal((base_matrix.n, 4))
        B = base_matrix.matvec(X_true)
        X = solver.solve(B)
        assert X.shape == B.shape
        assert solver.residual_norm(X, B) < 1e-10
        assert np.allclose(X, X_true, atol=1e-7)
