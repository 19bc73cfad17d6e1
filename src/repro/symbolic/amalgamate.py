"""Relaxed supernode amalgamation (Ashcraft–Grimes, paper's §IV-A).

Fundamental supernodes at the bottom of the tree are tiny; merging a child
supernode into its parent trades extra explicit zeros in the factor for
fewer, larger dense panels.  The paper's policy, reproduced here:

* candidate pairs are child/parent supernodes ``(J, p(J))``;
* at each step merge the pair adding the *least* new fill;
* stop once the cumulative growth of factor storage would exceed a cap
  (25 % in the paper).

Like CHOLMOD, we restrict candidates to *column-adjacent* pairs (the child
owning the columns immediately before the parent's first column — on a
postordered partition that child is the parent's rightmost child), so merging
never renumbers columns: the result is simply a coarser ``snptr``.

When child ``C`` (``w_C`` columns, ``b_C`` below-rows) merges into its parent
``P`` (``w_P``, ``b_P``), the subset property gives the merged panel
``w_C + w_P`` columns over ``b_P`` below-rows, and the storage delta is the
difference of dense trapezoid sizes.

The greedy loop is one call into the compiled analysis loops
(``numeric/_analysis.c``'s ``amalg_merge``, its heap keyed ``(extra,
snode)`` in int64) where a library could be built, the Python loop of
:func:`_merge` where not: the same partition.
"""

from __future__ import annotations

import heapq
import math
import numbers

import numpy as np

from ..numeric import _native
from .supernodes import supernodal_tree

__all__ = ["amalgamate", "amalgamate_counts", "merge_extra_fill"]


def _trapezoid(w, b):
    """Entries of a dense trapezoidal panel with ``w`` columns and ``w + b``
    rows (lower-triangular diagonal block plus rectangle)."""
    m = w + b
    return w * m - w * (w - 1) // 2


def merge_extra_fill(w_child, b_child, w_parent, b_parent):
    """Explicit zeros added by merging the child into its parent: the merged
    trapezoid ``(w_child + w_parent, b_parent)`` less the two it replaces,
    which is ``w_child * (w_parent + b_parent - b_child)`` exactly."""
    return w_child * (w_parent + b_parent - b_child)


def amalgamate(symb, *, growth_cap=0.25):
    """Coarsen a supernode partition by greedy min-fill merging.

    Parameters
    ----------
    symb:
        :class:`~repro.symbolic.structure.SymbolicFactor` of the
        *fundamental* partition.
    growth_cap:
        Maximum allowed relative growth of factor storage (paper: 0.25), a
        finite real ``>= 0``.  Merges are applied in increasing-fill order
        while the extra storage stays within ``growth_cap * base_storage``.

    Returns
    -------
    snptr:
        New (coarser) supernode boundary array.  Column order is unchanged.
    """
    w = np.diff(symb.snptr)
    return _merge(symb.snptr, w, np.diff(symb.rowptr) - w, symb.sn_parent, growth_cap)


def amalgamate_counts(snptr, counts, parent, *, growth_cap=0.25):
    """:func:`amalgamate` of the fundamental (or maximal) partition ``snptr``
    read off the elimination tree ``parent`` and column ``counts`` it was
    found from, not off its symbolic factor: such a supernode's panel is its
    first column's structure, and its parent supernode holds ``parent[last]``."""
    snptr = np.asarray(snptr, dtype=np.int64)
    w = np.diff(snptr)
    sn_parent = supernodal_tree(snptr, parent)
    return _merge(snptr, w, counts[snptr[:-1]] - w, sn_parent, growth_cap)


def _merge(snptr, w, b, sn_parent, growth_cap):
    """The greedy merge over supernodes of widths ``w``, below-row counts
    ``b`` and supernodal tree ``sn_parent``."""
    if not isinstance(growth_cap, numbers.Real):
        raise TypeError(f"growth_cap must be a real number, got {growth_cap!r}")
    if not (math.isfinite(growth_cap) and growth_cap >= 0):
        raise ValueError(f"growth_cap must be finite and >= 0, got {growth_cap}")
    nsup = snptr.size - 1
    budget = int(growth_cap * int(np.sum(_trapezoid(w, b))))
    loops = _native.analysis_loops()
    if loops is None:
        alive = _merge_loop(w, b, sn_parent, budget)
    else:
        alive, work = np.empty(nsup, dtype=np.uint8), np.empty(2 * nsup, dtype=np.int64)
        w, b, sn_parent = (np.array(a, dtype=np.int64) for a in (w, b, sn_parent))
        budget = min(budget, np.iinfo(np.int64).max)
        if loops.amalg_merge(nsup, budget, w, b, sn_parent, alive, work) < 0:
            raise MemoryError("no memory for the amalgamation heap")
    # a merged run keeps its last member's id: a boundary survives where the
    # snode before it is alive
    keep = np.ones(nsup + 1, dtype=bool)
    keep[1:] = alive
    return snptr[keep]


def _merge_loop(w, b, sn_parent, budget):
    """:func:`_merge`'s greedy loop in Python: per supernode, whether it
    survives (was not merged into its successor)."""
    nsup = w.size
    # an alive snode ``p`` has absorbed exactly the original snodes after its
    # alive predecessor ``c``, so ``c``'s parent (that of its last original
    # snode) is ``p`` iff it lies in ``(c, p]``; before any merge, iff it is
    # ``c + 1``, which seeds the heap in one pass
    seed = np.flatnonzero(sn_parent[:-1] == np.arange(1, nsup))
    extra = merge_extra_fill(w[seed], b[seed], w[seed + 1], b[seed + 1])
    heap = list(zip(extra.tolist(), seed.tolist()))
    heapq.heapify(heap)
    # plain-int lists: the greedy loop below is scalar bookkeeping
    w, b, parent0 = w.tolist(), b.tolist(), sn_parent.tolist()

    alive = [True] * nsup
    prev_sn = list(range(-1, nsup - 1))
    next_sn = [*range(1, nsup), -1]

    def candidate(c):
        """Extra fill for merging alive snode ``c`` into its successor, or
        None when the successor is not its parent."""
        p = next_sn[c]
        if not c < parent0[c] <= p:
            return None
        return w[c] * (w[p] + b[p] - b[c])  # merge_extra_fill, inlined

    spent = 0
    while heap:
        extra, c = heapq.heappop(heap)
        if not alive[c]:
            continue
        cur = candidate(c)
        if cur is None or cur != extra:
            if cur is not None:
                heapq.heappush(heap, (cur, c))
            continue
        if spent + extra > budget:
            break
        p = next_sn[c]
        spent += extra
        # merge c into p (p keeps its id; its columns now start at c's)
        w[p] += w[c]
        alive[c] = False
        prv = prev_sn[c]
        prev_sn[p] = prv
        if prv != -1:
            next_sn[prv] = p
            cur = candidate(prv)
            if cur is not None:
                heapq.heappush(heap, (cur, prv))
        cur = candidate(p)
        if cur is not None:
            heapq.heappush(heap, (cur, p))
    return alive
