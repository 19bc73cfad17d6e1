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
"""

from __future__ import annotations

import heapq

import numpy as np

from .supernodes import snode_of_column

__all__ = ["amalgamate", "amalgamate_counts", "merge_extra_fill"]


def _trapezoid(w, b):
    """Entries of a dense trapezoidal panel with ``w`` columns and ``w + b``
    rows (lower-triangular diagonal block plus rectangle)."""
    m = w + b
    return w * m - w * (w - 1) // 2


def merge_extra_fill(w_child, b_child, w_parent, b_parent):
    """Explicit zeros added by merging the child into its parent."""
    new = _trapezoid(w_child + w_parent, b_parent)
    old = _trapezoid(w_child, b_child) + _trapezoid(w_parent, b_parent)
    return new - old


def amalgamate(symb, *, growth_cap=0.25):
    """Coarsen a supernode partition by greedy min-fill merging.

    Parameters
    ----------
    symb:
        :class:`~repro.symbolic.structure.SymbolicFactor` of the
        *fundamental* partition.
    growth_cap:
        Maximum allowed relative growth of factor storage (paper: 0.25).
        Merges are applied in increasing-fill order while the cumulative
        extra storage stays within ``growth_cap * base_storage``.

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
    up = parent[snptr[1:] - 1]
    sn_parent = np.where(up >= 0, snode_of_column(snptr)[up], -1)
    return _merge(snptr, w, counts[snptr[:-1]] - w, sn_parent, growth_cap)


def _merge(snptr, w, b, sn_parent, growth_cap):
    """The greedy merge over supernodes of widths ``w``, below-row counts
    ``b`` and supernodal tree ``sn_parent``."""
    nsup = snptr.size - 1
    budget = int(growth_cap * int(np.sum(_trapezoid(w, b))))
    # plain-int lists: the greedy loop below is scalar bookkeeping
    w, b, parent0 = w.tolist(), b.tolist(), sn_parent.tolist()

    alive = [True] * nsup
    merged_into = list(range(nsup))  # union-find
    prev_sn = list(range(-1, nsup - 1))
    next_sn = [*range(1, nsup), -1]

    def find(s):
        root = s
        while merged_into[root] != root:
            root = merged_into[root]
        while merged_into[s] != root:
            merged_into[s], s = root, merged_into[s]
        return root

    def candidate(c):
        """Extra fill for merging alive snode ``c`` into its successor, or
        None when the successor is not its parent."""
        p = next_sn[c]
        if p == -1:
            return None
        par = parent0[c]
        if par == -1 or find(par) != p:
            return None
        return merge_extra_fill(w[c], b[c], w[p], b[p])

    heap = [(extra, c) for c in range(nsup) if (extra := candidate(c)) is not None]
    heapq.heapify(heap)
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
        merged_into[c] = p
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

    # a merged run keeps its last member's id: a boundary survives where the
    # snode before it is alive
    keep = np.ones(nsup + 1, dtype=bool)
    keep[1:] = alive
    return snptr[keep]
