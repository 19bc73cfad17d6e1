"""The full symbolic pipeline of the paper's §IV-A, as one call.

``analyze(A)`` performs: fill-reducing ordering (nested dissection by
default, like the paper's METIS step) → elimination tree → postorder →
column counts → fundamental supernodes → relaxed amalgamation (25 % storage
cap) → partition refinement of columns within supernodes → final supernodal
symbolic factorization.  The result bundles the composed permutation, the
permuted matrix and the :class:`~repro.symbolic.structure.SymbolicFactor`
that every numeric factorization consumes.

This is the *symbolic stage* of the staged pipeline API: ``repro.plan(A)``
wraps the :class:`AnalyzedSystem` returned here in a
:class:`~repro.api.SymbolicPlan` that additionally owns the numeric-side
pattern caches (permutation gather, panel scatter plan, task DAGs) and
serves any number of same-pattern factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.permute import (
    compose_permutations,
    invert_permutation,
    symmetric_permute,
)
from .amalgamate import amalgamate_counts
from .colcounts import column_counts
from .etree import elimination_tree, postorder
from .partition_refinement import partition_refinement
from .structure import SymbolicFactor, symbolic_factorization
from .supernodes import fundamental_supernodes

__all__ = ["AnalyzedSystem", "analyze"]


@dataclass
class AnalyzedSystem:
    """Output of the symbolic pipeline.

    Attributes
    ----------
    perm:
        Composed permutation: ``perm[k]`` is the original index of the row /
        column at position ``k`` of the permuted system.
    matrix:
        ``P A P^T`` — the permuted input, ready for numeric factorization.
    symb:
        Supernodal symbolic factorization of ``matrix``.
    """

    perm: np.ndarray
    matrix: "object"
    symb: SymbolicFactor

    @property
    def n(self):
        """Matrix dimension."""
        return self.symb.n

    @property
    def nsup(self):
        """Number of supernodes after merging."""
        return self.symb.nsup


def analyze(A, *, ordering="nd", merge=True, refine=True, growth_cap=0.25,
            fundamental=True, ordering_kwargs=None,
            refine_method="best"):
    """Run the paper's preprocessing pipeline on ``A``.

    Parameters
    ----------
    A:
        :class:`~repro.sparse.csc.SymmetricCSC`.
    ordering:
        Fill-reducing ordering, one of
        :data:`~repro.ordering.ORDERINGS`; the paper uses METIS nested
        dissection (``"nd"``).
    merge:
        Apply relaxed supernode amalgamation (paper: on).
    refine:
        Apply partition-refinement column reordering within supernodes
        (paper: on — "essential" for RLB).
    growth_cap:
        Storage-growth cap for amalgamation (paper: 0.25).
    fundamental:
        Detect fundamental (vs merely maximal) supernodes.
    ordering_kwargs:
        Extra arguments for the ordering algorithm.
    refine_method:
        Partition-refinement method (``"best"`` | ``"lex"`` | ``"split"``;
        the last two name the same order).

    Each stage is computed once: the postordered matrix's elimination tree
    is a relabelling of the one already in hand, amalgamation reads the
    column counts, and the one symbolic factorization (of the merged
    partition) is relabelled by the refinement (``docs/api.md``, "What a
    cold request pays").
    """
    from ..ordering import order_matrix

    perm = order_matrix(A, ordering, **(ordering_kwargs or {}))
    B = symmetric_permute(A, perm)
    parent = elimination_tree(B)
    post = postorder(parent)
    perm = compose_permutations(post, perm)
    B = symmetric_permute(A, perm)
    # a postorder relabels the elimination tree, it does not change it —
    # and the relabelled tree's own postorder is the identity
    up = parent[post]
    parent = np.where(up >= 0, invert_permutation(post)[up], -1)
    counts = column_counts(B, parent, np.arange(A.n, dtype=np.int64))
    snptr = fundamental_supernodes(parent, counts, fundamental=fundamental)
    if merge:
        snptr = amalgamate_counts(snptr, counts, parent, growth_cap=growth_cap)
    symb = symbolic_factorization(B, snptr)
    if refine:
        rperm = partition_refinement(symb, method=refine_method)
        perm = compose_permutations(rperm, perm)
        B = symmetric_permute(A, perm)
        symb = symb.relabel(rperm)
    return AnalyzedSystem(perm=perm, matrix=B, symb=symb)
