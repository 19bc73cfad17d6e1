"""Solve-layer tests: triangular solves, end-to-end solves through every
engine, iterative refinement."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.numeric import factorize_rl_cpu
from repro.numeric.registry import engine_names
from repro.solve import (
    backward_solve,
    forward_solve,
    refine,
    solve_factored,
)
from repro.sparse import grid_laplacian, random_spd, vector_stencil
from repro.symbolic import analyze


@pytest.fixture(scope="module")
def factored():
    system = analyze(grid_laplacian((6, 6, 3)))
    res = factorize_rl_cpu(system.symb, system.matrix)
    return system, res


class TestTriangularSolves:
    def test_forward(self, factored):
        system, res = factored
        rng = np.random.default_rng(0)
        b = rng.standard_normal(system.matrix.n)
        L = sla.cholesky(system.matrix.to_dense(), lower=True)
        y = forward_solve(res.storage, b)
        assert np.allclose(L @ y, b, atol=1e-9)

    def test_backward(self, factored):
        system, res = factored
        rng = np.random.default_rng(1)
        y = rng.standard_normal(system.matrix.n)
        L = sla.cholesky(system.matrix.to_dense(), lower=True)
        x = backward_solve(res.storage, y)
        assert np.allclose(L.T @ x, y, atol=1e-9)

    def test_full_solve(self, factored):
        system, res = factored
        rng = np.random.default_rng(2)
        b = rng.standard_normal(system.matrix.n)
        x = solve_factored(res.storage, b)
        assert np.allclose(system.matrix.to_dense() @ x, b, atol=1e-8)

    def test_shape_checks(self, factored):
        _, res = factored
        with pytest.raises(ValueError):
            forward_solve(res.storage, np.ones(3))
        with pytest.raises(ValueError):
            backward_solve(res.storage, np.ones(3))

    def test_shape_error_messages_unified(self, factored):
        """Both sweeps validate their argument as a right-hand side with
        one message shape (regression: backward used to say just "y" while
        its docstring called the argument a right-hand side)."""
        _, res = factored
        n = res.storage.symb.n
        with pytest.raises(ValueError,
                           match=rf"right-hand side 'b' must have shape "
                                 rf"\({n},\) or \({n}, k\)"):
            forward_solve(res.storage, np.ones(3))
        with pytest.raises(ValueError,
                           match=rf"right-hand side 'y' must have shape "
                                 rf"\({n},\) or \({n}, k\)"):
            backward_solve(res.storage, np.ones((3, 2)))
        # the offending shape is named (debuggability of (k, n) transposes)
        with pytest.raises(ValueError, match=r"got \(3, 2\)"):
            backward_solve(res.storage, np.ones((3, 2)))
        with pytest.raises(ValueError, match="right-hand side 'b'"):
            solve_factored(res.storage, np.ones((n, 2, 2)))


class TestCholeskySolver:
    """End-to-end ``plan → factorize → solve`` through every engine."""

    @pytest.mark.parametrize("method", engine_names())
    def test_all_methods_solve(self, method):
        A = vector_stencil((4, 4, 3), 3, seed=9)
        rng = np.random.default_rng(3)
        x_true = rng.standard_normal(A.n)
        b = A.matvec(x_true)
        kw = {"device_memory": 10 ** 15} if "gpu" in method else {}
        factor = repro.plan(A).factorize(engine=method, **kw)
        x = factor.solve(b)
        assert np.allclose(x, x_true, atol=1e-7)
        assert factor.residual_norm(x, b) < 1e-10

    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError, match="unknown engine"):
            repro.plan(small_grid).factorize(engine="lu")

    def test_repeated_solves_reuse_factor(self, small_grid):
        """Solving never touches the factor: same result object, panels
        bit-unchanged, same answer the second time."""
        factor = repro.plan(small_grid).factorize()
        result_ref = factor.result
        panels = [p.copy() for p in factor.storage.panels]
        b = np.random.default_rng(5).standard_normal(small_grid.n)
        x = factor.solve(b)
        assert np.array_equal(factor.solve(b), x)
        assert factor.result is result_ref
        assert all(np.array_equal(p, q)
                   for p, q in zip(factor.storage.panels, panels))

    def test_analyze_options_forwarded(self, small_grid):
        plan = repro.plan(small_grid, ordering="mindeg", merge=False,
                          refine=False)
        assert plan.nsup >= 1


class TestRefinement:
    def test_converges_immediately_on_good_factor(self, small_grid):
        system = analyze(small_grid)
        res = factorize_rl_cpu(system.symb, system.matrix)
        rng = np.random.default_rng(6)
        b = rng.standard_normal(small_grid.n)
        out = refine(small_grid, res.storage, system.perm, b, tol=1e-12)
        assert out.converged
        assert out.iterations <= 2
        assert out.residual_norms[-1] <= 1e-12

    def test_improves_perturbed_start(self, small_grid):
        system = analyze(small_grid)
        res = factorize_rl_cpu(system.symb, system.matrix)
        rng = np.random.default_rng(7)
        x_true = rng.standard_normal(small_grid.n)
        b = small_grid.matvec(x_true)
        x0 = x_true + 1e-2 * rng.standard_normal(small_grid.n)
        out = refine(small_grid, res.storage, system.perm, b, x0=x0,
                     tol=1e-12, max_iter=4)
        assert out.converged
        assert np.allclose(out.x, x_true, atol=1e-8)
        assert out.residual_norms[0] > out.residual_norms[-1]

    def test_history_recorded(self, small_grid):
        system = analyze(small_grid)
        res = factorize_rl_cpu(system.symb, system.matrix)
        out = refine(small_grid, res.storage, system.perm,
                     np.ones(small_grid.n), tol=0.0, max_iter=3)
        assert len(out.residual_norms) == 3
        assert not out.converged


class TestSolveInPlace:
    """The single-copy RHS path: solve_factored validates/copies once at
    the top; overwrite flags let callers hand over scratch buffers."""

    def test_default_does_not_clobber_rhs(self, factored):
        _, res = factored
        b = np.ones(res.storage.symb.n)
        keep = b.copy()
        solve_factored(res.storage, b)
        forward_solve(res.storage, b)
        backward_solve(res.storage, b)
        assert np.array_equal(b, keep)

    def test_overwrite_solves_in_place(self, factored):
        system, res = factored
        rng = np.random.default_rng(8)
        b = rng.standard_normal(system.matrix.n)
        expect = solve_factored(res.storage, b)
        buf = b.copy()
        out = solve_factored(res.storage, buf, overwrite_b=True)
        assert out is buf  # no hidden copies anywhere in the sweep
        assert np.array_equal(out, expect)
        assert not np.array_equal(buf, b)  # input really was consumed

    def test_overwrite_forward_backward(self, factored):
        system, res = factored
        rng = np.random.default_rng(9)
        b = rng.standard_normal((system.matrix.n, 3))
        expect = backward_solve(res.storage, forward_solve(res.storage, b))
        buf = b.copy()
        y = forward_solve(res.storage, buf, overwrite_b=True)
        assert y is buf
        x = backward_solve(res.storage, y, overwrite_y=True)
        assert x is y
        assert np.array_equal(x, expect)

    def test_overwrite_non_float_input_still_works(self, factored):
        _, res = factored
        n = res.storage.symb.n
        b = [1.0] * n  # not an ndarray: conversion already makes it fresh
        out = solve_factored(res.storage, b, overwrite_b=True)
        assert out.shape == (n,)

    def test_shape_check_still_enforced_in_overwrite_mode(self, factored):
        _, res = factored
        with pytest.raises(ValueError):
            solve_factored(res.storage, np.ones(3), overwrite_b=True)

    def test_default_copy_protects_subclass_views(self, factored):
        # np.asarray on an ndarray subclass returns a *different* object
        # sharing memory; the default path must still copy (regression:
        # identity check alone let the solve clobber the caller's buffer)
        class Tagged(np.ndarray):
            pass

        _, res = factored
        n = res.storage.symb.n
        base = np.ones(n)
        b = base.view(Tagged)
        solve_factored(res.storage, b)
        assert np.array_equal(base, np.ones(n))


class TestMultiRhs:
    """An ``(n, k)`` block solves like its ``k`` columns, through the host
    sweeps (:func:`solve_factored`) and the staged door (``Factor.solve``)."""

    @pytest.fixture(scope="class")
    def factor(self):
        return repro.plan(grid_laplacian((7, 7, 3))).factorize(engine="rl")

    def test_block_solve_matches_column_solves(self, factor):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((factor.n, 5))
        X = solve_factored(factor.storage, B)
        XF = factor.solve(B)
        for j in range(5):
            xj = solve_factored(factor.storage, B[:, j])
            np.testing.assert_allclose(X[:, j], xj, rtol=0, atol=1e-12)
            np.testing.assert_allclose(XF[:, j], factor.solve(B[:, j]), rtol=0, atol=1e-12)

    def test_block_residual(self, factor):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((factor.n, 4))
        A = factor.matrix.to_dense()
        np.testing.assert_allclose(A @ factor.solve(B), B, atol=1e-8)
        assert factor.residual_norm(factor.solve(B), B) < 1e-12

    def test_shape_validation(self, factor):
        storage = factor.storage
        with pytest.raises(ValueError):
            forward_solve(storage, np.zeros(3))
        with pytest.raises(ValueError):
            backward_solve(storage, np.zeros((storage.symb.n, 2, 2)))
        with pytest.raises(ValueError):
            factor.solve(np.zeros((factor.n, 2, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(0, 10 ** 6))
    def test_property_block_solve(self, k, seed):
        A = random_spd(25, density=0.2, seed=seed)
        factor = repro.plan(A).factorize(engine="rl")
        B = np.random.default_rng(seed).standard_normal((25, k))
        X = factor.solve(B)
        np.testing.assert_allclose(A.to_dense() @ X, B, atol=1e-7)
        np.testing.assert_array_equal(
            X[factor.plan.perm], solve_factored(factor.storage, B[factor.plan.perm]))
