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
``snptr``; none loops over supernodes (one lexsort orders them all).
"""

from __future__ import annotations

import numpy as np

__all__ = ["partition_refinement"]


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


def _runs(seg, pos, owner, nsup):
    """Per supernode, the consecutive runs — RLB blocks — its segments form
    when entry ``e`` puts column position ``pos[e]`` into segment ``seg[e]``
    (non-decreasing) of supernode ``owner[e]``."""
    key = np.sort(seg * (pos.max(initial=0) + 2) + pos)  # segments never abut
    return np.bincount(owner[np.diff(key, prepend=-2) != 1], minlength=nsup)


def _lex_order(sn, seg, col):
    """Every supernode's lexicographic membership-pattern order, by one
    stable lexsort keyed first by the supernode ``sn`` of each column.
    Entry ``e`` puts column ``col[e]`` into segment ``seg[e]`` (0, 1, ...);
    a column's key is its 0/1 membership, larger segments more significant
    (ties: lower segment first), 64 ranks per ``uint64`` word, top bit first."""
    size = np.bincount(seg)
    owner = sn[col[np.cumsum(size) - size]]
    group = np.flatnonzero(np.diff(owner, prepend=-1))
    rank = np.empty(size.size, dtype=np.int64)
    start = np.repeat(group, np.diff(group, append=size.size))  # its supernode's first
    rank[np.lexsort((-size, owner))] = np.arange(size.size) - start
    rank = rank[seg]
    words = np.zeros((rank.max(initial=0) // 64 + 1, sn.size), dtype=np.uint64)
    bit = np.uint64(1) << (63 - rank % 64).astype(np.uint64)
    np.bitwise_or.at(words, (rank // 64, col), bit)
    return np.lexsort((*words[::-1], sn))  # the last key is the primary one


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
    _, seg, col = _pivot_segments(symb)
    moves = (np.diff(symb.snptr) > 1)[symb.col2sn]  # width-1 supernodes stay
    cols = np.flatnonzero(moves)
    keep = moves[col]
    seg, col = seg[keep], (np.cumsum(moves) - 1)[col[keep]]  # col: index into cols
    seg = np.cumsum(np.diff(seg, prepend=-1) != 0) - 1
    sn = symb.col2sn[cols]
    order = _lex_order(sn, seg, col)
    if method == "best":  # the natural order is the other candidate and wins ties
        where = np.empty_like(order)
        where[order] = np.arange(order.size)
        lex, natural = (_runs(seg, pos, sn[col], symb.nsup) for pos in (where[col], col))
        order = np.where((lex < natural)[sn], order, np.arange(order.size))
    perm[cols] = cols[order]
    return perm
