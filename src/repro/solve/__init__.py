"""Solve layer: supernodal triangular solves (serial and one fused task graph)
and iterative refinement."""

from .triangular import (
    forward_solve,
    backward_solve,
    solve_factored,
    check_rhs,
    forward_snode,
    backward_snode,
    solve_graph,
)
from .sparse_rhs import solve_reach, forward_solve_sparse
from .refine import RefinementResult, refine, relative_residual

__all__ = [
    "forward_solve",
    "backward_solve",
    "solve_factored",
    "check_rhs",
    "forward_snode",
    "backward_snode",
    "solve_graph",
    "solve_reach",
    "forward_solve_sparse",
    "RefinementResult",
    "refine",
    "relative_residual",
]
