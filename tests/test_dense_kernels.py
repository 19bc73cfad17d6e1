"""Dense kernel wrapper tests (DPOTRF / DTRSM / DSYRK / DGEMM / DTRTRS)."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.dense import (
    NotPositiveDefiniteError,
    factorize_panel,
    gemm_nt,
    gemm_flops,
    potrf,
    potrf_flops,
    syrk_flops,
    syrk_lower,
    trsm_flops,
    trsm_right,
    trtrs_lower,
)
from repro.dense.kernels import UnsupportedDtypeError
from tests.conftest import random_spd_dense


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestPotrf:
    def test_matches_scipy(self, rng):
        A = np.asfortranarray(random_spd_dense(8, rng))
        L = sla.cholesky(A, lower=True)
        potrf(A)
        assert np.allclose(np.tril(A), np.tril(L))

    def test_in_place(self, rng):
        A = np.asfortranarray(random_spd_dense(5, rng))
        out = potrf(A)
        assert out is A

    def test_not_positive_definite(self):
        A = np.asfortranarray(-np.eye(3))
        with pytest.raises(NotPositiveDefiniteError) as ei:
            potrf(A)
        assert ei.value.pivot == 0

    def test_upper_untouched(self, rng):
        A = np.asfortranarray(random_spd_dense(6, rng))
        upper = np.triu(A, 1).copy()
        potrf(A)
        assert np.array_equal(np.triu(A, 1), upper)


class TestTrsm:
    def test_solves_right_transposed(self, rng):
        L = np.asfortranarray(np.tril(rng.standard_normal((5, 5)))
                              + 5 * np.eye(5))
        B = np.asfortranarray(rng.standard_normal((7, 5)))
        X_ref = B @ np.linalg.inv(L.T)
        trsm_right(B, L)
        assert np.allclose(B, X_ref)

    def test_empty_rect(self):
        L = np.asfortranarray(np.eye(3))
        B = np.zeros((0, 3), order="F")
        assert trsm_right(B, L) is B


class TestSyrkGemm:
    def test_syrk_lower_correct(self, rng):
        A = np.asfortranarray(rng.standard_normal((6, 4)))
        U = syrk_lower(A)
        assert np.allclose(np.tril(U), np.tril(A @ A.T))

    def test_syrk_out_buffer(self, rng):
        A = np.asfortranarray(rng.standard_normal((4, 3)))
        out = np.zeros((8, 8), order="F")
        syrk_lower(A, out=out)
        assert np.allclose(np.tril(out[:4, :4]), np.tril(A @ A.T))
        assert np.all(out[4:, :] == 0)

    def test_gemm_nt(self, rng):
        A = np.asfortranarray(rng.standard_normal((5, 3)))
        B = np.asfortranarray(rng.standard_normal((4, 3)))
        C = gemm_nt(A, B)
        assert np.allclose(C, A @ B.T)

    def test_gemm_out_buffer(self, rng):
        A = np.asfortranarray(rng.standard_normal((2, 3)))
        B = np.asfortranarray(rng.standard_normal((3, 3)))
        out = np.zeros((5, 5), order="F")
        gemm_nt(A, B, out=out)
        assert np.allclose(out[:2, :3], A @ B.T)


def _lower_panel(rng, m, w, dtype=np.float64):
    """A Fortran ``(m, w)`` panel with a well-conditioned lower triangle on
    top and NaN in the strictly-upper dead space (never to be read)."""
    panel = np.asfortranarray(rng.standard_normal((m, w)).astype(dtype))
    panel[:w, :w] += w * np.eye(w, dtype=dtype)
    panel[:w, :w][np.triu_indices(w, 1)] = np.nan
    return panel


class TestTrtrsLower:
    """The solve kernel against scipy's ``solve_triangular`` on the dense
    triangle (the oracle lives in the tests only)."""

    TOL = {np.float64: 1e-12, np.float32: 1e-4}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("shape", [(6,), (6, 1), (6, 3)])
    def test_matches_oracle_on_a_taller_panel(self, rng, dtype, trans, shape):
        panel = _lower_panel(rng, 11, 6, dtype)
        tri = np.tril(panel[:6])
        b = np.asfortranarray(rng.standard_normal(shape).astype(dtype))
        ref = sla.solve_triangular(tri, b, lower=True, trans=trans)
        x = trtrs_lower(panel, b, trans)
        assert x is b  # contiguous, same dtype: solved in place
        assert x.dtype == dtype
        np.testing.assert_allclose(x, ref, rtol=self.TOL[dtype])

    @pytest.mark.parametrize("trans", [0, 1])
    def test_non_contiguous_view_of_a_taller_panel(self, rng, trans):
        panel = _lower_panel(rng, 9, 4)
        view = panel[:4, :4]
        assert not view.flags.f_contiguous
        b = rng.standard_normal(4)
        ref = sla.solve_triangular(np.tril(view), b, lower=True, trans=trans)
        whole = trtrs_lower(panel, b.copy(), trans)
        np.testing.assert_array_equal(trtrs_lower(view, b.copy(), trans), whole)
        np.testing.assert_allclose(whole, ref, rtol=1e-12)

    def test_c_ordered_rows_come_back_as_a_new_array(self, rng):
        # the (w, k) slice of a C-ordered multi-RHS buffer cannot be
        # overwritten by a Fortran routine: the caller assigns the result
        panel = _lower_panel(rng, 7, 5)
        Y = rng.standard_normal((20, 3))
        seg = Y[4:9]
        before = seg.copy()
        x = trtrs_lower(panel, seg)
        assert x is not seg
        np.testing.assert_array_equal(seg, before)
        np.testing.assert_allclose(np.tril(panel[:5]) @ x, before, atol=1e-12)

    def test_fp32_panel_against_fp64_rhs_computes_in_fp64(self, rng):
        panel = _lower_panel(rng, 8, 5, np.float32)
        b = rng.standard_normal(5)
        ref = sla.solve_triangular(np.tril(panel[:5]).astype(np.float64), b,
                                   lower=True)
        x = trtrs_lower(panel, b)
        assert x is b and x.dtype == np.float64
        assert panel.dtype == np.float32
        np.testing.assert_allclose(x, ref, rtol=1e-12)

    def test_narrower_rhs_is_promoted_not_the_panel_downcast(self, rng):
        panel = _lower_panel(rng, 5, 5)
        for b in (rng.standard_normal(5).astype(np.float32),
                  np.arange(1, 6)):
            ref = sla.solve_triangular(np.tril(panel), b.astype(np.float64),
                                       lower=True)
            x = trtrs_lower(panel, b)
            assert x.dtype == np.float64
            np.testing.assert_allclose(x, ref, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_exact_zero_diagonal_raises_before_touching_b(self, rng, dtype):
        panel = _lower_panel(rng, 6, 4, dtype)
        panel[2, 2] = 0.0
        b = rng.standard_normal(4).astype(dtype)
        before = b.copy()
        with pytest.raises(np.linalg.LinAlgError, match="diagonal entry 2"):
            trtrs_lower(panel, b)
        np.testing.assert_array_equal(b, before)

    def test_unsupported_dtype(self):
        panel = np.asfortranarray(np.eye(3, dtype=np.complex128))
        with pytest.raises(UnsupportedDtypeError):
            trtrs_lower(panel, np.ones(3))


class TestFactorizePanel:
    def test_full_panel(self, rng):
        # build an SPD matrix, take its leading panel relationship:
        # panel = [L11; L21] such that [A11; A21] = panel applied
        n, w = 9, 4
        A = random_spd_dense(n, rng)
        L = sla.cholesky(A, lower=True)
        panel = np.asfortranarray(A[:, :w].copy())
        factorize_panel(panel, w)
        assert np.allclose(np.tril(panel[:w, :w]), np.tril(L[:w, :w]))
        assert np.allclose(panel[w:, :w], L[w:, :w])


class TestFlopCounts:
    def test_values(self):
        assert potrf_flops(3) == pytest.approx(27 / 3 + 4.5)
        assert trsm_flops(4, 3) == 36
        assert syrk_flops(3, 2) == 24
        assert gemm_flops(2, 3, 4) == 48

    def test_monotonic(self):
        assert potrf_flops(10) < potrf_flops(20)
        assert syrk_flops(10, 5) < syrk_flops(10, 9)
