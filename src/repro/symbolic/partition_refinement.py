"""Partition-refinement reordering of columns within supernodes.

Reordering the columns *inside* a supernode changes neither the fill nor the
supernode partition (paper's refs [11], [12]), but it renumbers rows — and
therefore controls how many *consecutive-row blocks* every descendant
supernode's row set splits into.  Fewer, longer blocks mean fewer BLAS calls
in RLB, which is why the paper calls this step "essential to attain high
performance using RLB".

One reordering is provided (the paper's ref [12] compares "two effective
methods for reordering columns within supernodes"; on 0/1 membership keys
they are the same permutation):

* for each supernode ``P``, each descendant ``J`` whose rows intersect
  ``cols(P)`` contributes a 0/1 membership row (a *segment*); columns of
  ``P`` are sorted lexicographically by their membership patterns with
  larger segments as more significant keys, ties keeping the natural order.
  Because descendant row sets within an ancestor are near-laminar (they
  follow subtrees of the elimination tree), equal/nested patterns become
  contiguous and most segments collapse to single runs.  This stable sort
  *is* classical ordered partition refinement — every segment, largest
  first, splits each class it straddles into adjacent (out, in) halves — so
  ``method="lex"`` and ``method="split"`` name the same order.
* ``"best"`` (default) — the column order of each supernode only affects the
  runs of the segments that land in *that* supernode, so the choice is
  independent per supernode: count the exact blocks (runs) the natural and
  the lex order induce and keep the natural order unless lex is strictly
  better.  Guarded this way, refinement never increases the block count.

Every method returns a permutation that is block-diagonal with respect to
``snptr``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["partition_refinement", "segment_runs"]


def _pivot_segments(symb):
    """Every (descendant ``J``, ancestor ``P``) row segment, flat.

    Returns ``(ptr, seg, col)``: the below-diagonal rows of all supernodes
    grouped by the supernode ``P`` owning them as columns —
    ``col[ptr[P]:ptr[P+1]]``, descendants ascending, rows ascending inside
    a descendant — with ``seg`` the running segment number (it steps where
    the descendant or the owner changes).
    """
    src = np.repeat(np.arange(symb.nsup), np.diff(symb.rowptr))
    below = np.arange(symb.rows.size) - symb.rowptr[src] >= np.diff(symb.snptr)[src]
    src, col = src[below], symb.rows[below]
    own = symb.col2sn[col]
    by_owner = np.argsort(own, kind="stable")
    src, col, own = src[by_owner], col[by_owner], own[by_owner]
    step = np.ones(col.size, dtype=bool)
    step[1:] = (src[1:] != src[:-1]) | (own[1:] != own[:-1])
    ptr = np.searchsorted(own, np.arange(symb.nsup + 1))
    return ptr, np.cumsum(step) - 1, col


def segment_runs(seg, cols, local_order):
    """Total number of consecutive runs the segments split into when the
    supernode's columns are permuted by ``local_order``.

    ``cols`` are *local* column indices (``0..w-1``) and ``seg`` their
    segment numbers (non-decreasing); ``local_order[k]`` is the local column
    placed at position ``k``.  This is exactly the number of RLB blocks
    these segments will contribute.
    """
    w = local_order.size
    inv = np.empty(w, dtype=np.int64)
    inv[local_order] = np.arange(w)
    # stride w + 1 keeps the end of one segment from abutting the next
    pos = np.sort(seg * (w + 1) + inv[cols])
    return 1 + int(np.count_nonzero(np.diff(pos) != 1))


def _order_lex(seg, cols, w):
    """Lexicographic membership-pattern order (local); ``seg`` starts at 0."""
    sizes = np.bincount(seg)
    row = np.empty(sizes.size, dtype=np.int64)
    row[np.argsort(-sizes, kind="stable")] = np.arange(sizes.size)  # big sets first
    keys = np.zeros((sizes.size, w), dtype=np.int8)
    keys[row[seg], cols] = 1
    # np.lexsort treats the *last* row as the primary key
    return np.lexsort(keys[::-1])


def partition_refinement(symb, *, method="best"):
    """Compute the within-supernode refinement permutation.

    Parameters
    ----------
    symb:
        :class:`~repro.symbolic.structure.SymbolicFactor` of the current
        (merged) partition.
    method:
        ``"best"`` (lex order where it strictly beats the natural order's
        block count, default), ``"lex"`` (membership-pattern lexicographic
        sort, unguarded) or ``"split"`` (classical class splitting — the
        same order as ``"lex"``).

    Returns
    -------
    perm:
        ``int64`` permutation (``perm[k]`` = current column index placed at
        position ``k``); columns never leave their supernode.
    """
    if method not in ("best", "lex", "split"):
        raise ValueError("method must be 'best', 'lex' or 'split'")
    perm = np.arange(symb.n, dtype=np.int64)
    ptr, seg, col = _pivot_segments(symb)
    widths = np.diff(symb.snptr)
    for s in np.flatnonzero((np.diff(ptr) > 0) & (widths > 1)):
        first, w, lo, hi = symb.snptr[s], widths[s], ptr[s], ptr[s + 1]
        sid, cols = seg[lo:hi] - seg[lo], col[lo:hi] - first
        order = _order_lex(sid, cols, w)
        # the natural order is the other candidate and wins ties
        natural = np.arange(w)
        if method != "best" or segment_runs(sid, cols, order) < segment_runs(sid, cols, natural):
            perm[first : first + w] = first + order
    return perm
