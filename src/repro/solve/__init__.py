"""Solve layer: supernodal triangular solves (serial, level-scheduled and
offloaded) and iterative refinement."""

from .triangular import (
    forward_solve,
    backward_solve,
    solve_factored,
    check_rhs,
    forward_snode,
    backward_snode,
    forward_solve_graph,
    backward_solve_graph,
    solve_graph,
)
from .gpu_solve import (
    solve_factored_cpu,
    solve_factored_gpu_dag,
    solve_offload_estimate,
    solve_flops,
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
    "forward_solve_graph",
    "backward_solve_graph",
    "solve_graph",
    "solve_factored_cpu",
    "solve_factored_gpu_dag",
    "solve_offload_estimate",
    "solve_flops",
    "solve_reach",
    "forward_solve_sparse",
    "RefinementResult",
    "refine",
    "relative_residual",
]
