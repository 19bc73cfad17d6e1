"""Sparse-matrix substrate: symmetric CSC storage, permutation, generators,
Matrix Market I/O and the 21-matrix benchmark suite."""

from .csc import SymmetricCSC
from .permute import (
    symmetric_permute,
    permutation_gather,
    invert_permutation,
    is_permutation,
    compose_permutations,
    random_permutation,
)
from .generators import (
    grid_laplacian,
    anisotropic_laplacian,
    vector_stencil,
    kkt_like,
    random_spd,
    arrow_matrix,
    tridiagonal,
    spd_value_sweep,
)
from .io import read_matrix_market, write_matrix_market
from .collection import SUITE, SuiteEntry, PaperStats, suite_names, build_matrix, get_entry

__all__ = [
    "SymmetricCSC",
    "symmetric_permute",
    "permutation_gather",
    "invert_permutation",
    "is_permutation",
    "compose_permutations",
    "random_permutation",
    "grid_laplacian",
    "anisotropic_laplacian",
    "vector_stencil",
    "kkt_like",
    "random_spd",
    "arrow_matrix",
    "tridiagonal",
    "spd_value_sweep",
    "read_matrix_market",
    "write_matrix_market",
    "SUITE",
    "SuiteEntry",
    "PaperStats",
    "suite_names",
    "build_matrix",
    "get_entry",
]
