"""Nested dissection fill-reducing ordering (the METIS stand-in).

The paper orders every matrix with METIS nested dissection.  METIS is not
available offline, so this module implements George-style recursive nested
dissection with BFS level-set vertex separators:

1. find a pseudo-peripheral vertex and its BFS level structure;
2. pick the level whose removal best balances the two halves (subject to a
   minimum balance fraction), preferring small separators;
3. shrink the chosen level to a minimal separator by moving vertices that
   touch only one side into that side;
4. dissect the parts in turn, ordering the separator last;
5. order leaves, separators and graphs with no useful separator by exact
   minimum degree, each recorded as a *piece* (ascending ids) and all induced
   from the top graph in ONE pass after the recursion (induced subgraphs
   compose, and ascending ids keep minimum degree's tie-breaks).

This produces the balanced elimination trees with fat top separators that
give supernodal Cholesky its large dense panels — the property all of the
paper's GPU results rely on.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .graph import connected_components, pseudo_peripheral_vertex
from .mindeg import _order_pieces

__all__ = ["nested_dissection"]


def _level_separator(sub, levels, *, balance=0.2):
    """Choose a level of the BFS level structure ``levels`` (rooted at a
    pseudo-peripheral vertex, reaching every vertex) as separator.

    Returns ``(sep_mask, a_mask, b_mask)`` boolean arrays over the subgraph's
    vertices, or ``None`` when no level yields two non-empty sides.
    """
    n = sub.n
    depth = int(levels.max())
    if depth < 2:
        return None
    counts = np.bincount(levels, minlength=depth + 1)
    # candidate levels 1 .. depth-1, ranked by (unbalanced, separator size,
    # imbalance) and then by depth: one stable lexsort takes the first
    na, ns = np.cumsum(counts)[: depth - 1], counts[1:depth]  # above, at each candidate
    nb = n - na - ns
    unbalanced = np.minimum(na, nb) < balance * (n - ns)
    lvl = 1 + int(np.lexsort((np.abs(na - nb), ns, unbalanced))[0])
    sep, a, b = levels == lvl, levels < lvl, levels > lvl
    # minimal-separator cleanup: a separator vertex with no side-B neighbour
    # sinks into A without reconnecting the sides (every level-``lvl`` vertex
    # has its BFS parent in A, so none can sink into B, and sinking only
    # grows A: the decisions are independent)
    sepv = np.flatnonzero(sep)
    nb, counts = sub.gather(sepv)
    owner = np.repeat(np.arange(sepv.size), counts)
    sink = sepv[np.bincount(owner[b[nb]], minlength=sepv.size) == 0]
    sep[sink], a[sink] = False, True
    if not a.any() or not b.any() or not sep.any():
        return None
    return sep, a, b


def nested_dissection(graph, *, leaf_size=64, balance=0.2):
    """Return a nested-dissection permutation of ``graph``.

    Parameters
    ----------
    graph:
        :class:`~repro.ordering.graph.AdjacencyGraph`.
    leaf_size:
        Subgraphs at or below this size are ordered by minimum degree; an
        integer ``>= 1``.
    balance:
        Minimum fraction of non-separator vertices each side must hold for a
        level to count as "balanced"; a real number in ``[0, 0.5]``.

    Returns
    -------
    perm:
        ``int64`` array; ``perm[k]`` is the original vertex eliminated at
        step ``k``.
    """
    if not isinstance(leaf_size, numbers.Integral):
        raise TypeError(f"leaf_size must be an integer, got {leaf_size!r}")
    if not isinstance(balance, numbers.Real):
        raise TypeError(f"balance must be a real number, got {balance!r}")
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
    if not (math.isfinite(balance) and 0 <= balance <= 0.5):
        raise ValueError(f"balance must be finite and in [0, 0.5], got {balance}")
    pieces = []  # each piece's vertices, ascending, in elimination order
    # an explicit stack, not recursion: a tiny ``balance`` peels a few
    # vertices per level, thousands of levels deep.  An entry is a part to
    # dissect — ``parent``'s ascending vertices ``local`` (global ids
    # ``verts``), induced if dissected — or a separator to emit; pushed in
    # reverse, so pieces come out a-part, b-part, separator
    stack = [(graph, np.arange(graph.n, dtype=np.int64), np.arange(graph.n))]
    while stack:
        parent, verts, local = stack.pop()
        if parent is None or local.size <= leaf_size:
            pieces.append(verts if parent is None else verts[local])
            continue
        sub, local = parent.subgraph(local)
        verts = verts[local]
        _, levels, order = pseudo_peripheral_vertex(sub, int(np.argmin(sub.degrees())))
        if order.size < sub.n:  # the BFS missed a vertex: dissect each component
            stack.extend((sub, verts, comp) for comp in reversed(connected_components(sub)))
            continue
        found = _level_separator(sub, levels, balance=balance)
        if found is None:
            pieces.append(verts)
            continue
        sep, a, b = found
        # the separator is eliminated last
        stack += [(None, verts[sep], None), (sub, verts, np.flatnonzero(b)),
                  (sub, verts, np.flatnonzero(a))]
    return _order_pieces(graph, pieces)
