"""Dense BLAS/LAPACK kernel wrappers and flop counts."""

from .kernels import (
    NotPositiveDefiniteError,
    NonFiniteValuesError,
    potrf,
    trsm_right,
    syrk_lower,
    gemm_nt,
    trtrs_lower,
    factorize_panel,
)
from .flops import potrf_flops, trsm_flops, syrk_flops, gemm_flops

__all__ = [
    "NotPositiveDefiniteError",
    "NonFiniteValuesError",
    "potrf",
    "trsm_right",
    "syrk_lower",
    "gemm_nt",
    "trtrs_lower",
    "factorize_panel",
    "potrf_flops",
    "trsm_flops",
    "syrk_flops",
    "gemm_flops",
]
