"""Symbolic analysis: elimination trees, column counts, supernodes,
amalgamation, partition refinement, relative indices, block partitions and
the end-to-end :func:`analyze` pipeline."""

from .etree import (
    elimination_tree,
    postorder,
    children_lists,
    etree_heights,
    is_postordered,
    first_descendants,
)
from .colcounts import column_counts
from .supernodes import fundamental_supernodes, snode_of_column, validate_snptr
from .amalgamate import amalgamate, merge_extra_fill
from .structure import SymbolicFactor, pattern_fingerprint, symbolic_factorization
from .relind import relative_indices, relative_indices_bottom
from .blocks import Block, snode_blocks, all_blocks, count_blocks
from .partition_refinement import partition_refinement
from .ranges import TaskRanges, task_ranges, trivial_ranges
from .levels import SolveSchedule, solve_levels, solve_schedule
from .analyze import AnalyzedSystem, analyze

__all__ = [
    "elimination_tree",
    "postorder",
    "children_lists",
    "etree_heights",
    "is_postordered",
    "first_descendants",
    "column_counts",
    "fundamental_supernodes",
    "snode_of_column",
    "validate_snptr",
    "amalgamate",
    "merge_extra_fill",
    "SymbolicFactor",
    "symbolic_factorization",
    "pattern_fingerprint",
    "relative_indices",
    "relative_indices_bottom",
    "Block",
    "snode_blocks",
    "all_blocks",
    "count_blocks",
    "partition_refinement",
    "TaskRanges",
    "task_ranges",
    "trivial_ranges",
    "SolveSchedule",
    "solve_levels",
    "solve_schedule",
    "AnalyzedSystem",
    "analyze",
]
