"""Nested dissection fill-reducing ordering (the METIS stand-in).

The paper orders every matrix with METIS nested dissection.  METIS is not
available offline, so this module implements George-style recursive nested
dissection with BFS level-set vertex separators:

1. find a pseudo-peripheral vertex and its BFS level structure;
2. pick the level whose removal best balances the two halves (subject to a
   minimum balance fraction), preferring small separators;
3. shrink the chosen level to a minimal separator by moving vertices that
   touch only one side into that side;
4. recurse on the parts, ordering the separator last;
5. order leaf subgraphs (and graphs with no useful separator) with exact
   minimum degree.

This produces the balanced elimination trees with fat top separators that
give supernodal Cholesky its large dense panels — the property all of the
paper's GPU results rely on.
"""

from __future__ import annotations

import numpy as np

from .graph import connected_components, pseudo_peripheral_vertex
from .mindeg import minimum_degree

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
    below = np.cumsum(counts)  # below[l] = # vertices at level <= l
    best = None
    for lvl in range(1, depth):
        na = below[lvl - 1]
        ns = counts[lvl]
        nb = n - na - ns
        if na == 0 or nb == 0:
            continue
        balanced = min(na, nb) >= balance * (n - ns)
        key = (not balanced, ns, abs(int(na) - int(nb)))
        if best is None or key < best[0]:
            best = (key, lvl)
    if best is None:
        return None
    lvl = best[1]
    sep = levels == lvl
    a = levels < lvl
    b = levels > lvl
    # minimal-separator cleanup: a separator vertex with no side-B neighbour
    # sinks into A without reconnecting the sides (every level-``lvl`` vertex
    # has its BFS parent in A, so none can sink into B, and sinking only
    # grows A: the decisions are independent)
    sepv = np.flatnonzero(sep)
    nb, counts = sub.gather(sepv)
    owner = np.repeat(np.arange(sepv.size), counts)
    sink = sepv[np.bincount(owner[b[nb]], minlength=sepv.size) == 0]
    sep[sink] = False
    a[sink] = True
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
        Subgraphs at or below this size are ordered by minimum degree.
    balance:
        Minimum fraction of non-separator vertices each side must hold for a
        level to count as "balanced".

    Returns
    -------
    perm:
        ``int64`` array; ``perm[k]`` is the original vertex eliminated at
        step ``k``.
    """
    out = np.empty(graph.n, dtype=np.int64)
    pos = 0

    def emit(vertices_in_order):
        nonlocal pos
        k = len(vertices_in_order)
        out[pos:pos + k] = vertices_in_order
        pos += k

    def rec(vertices):
        # vertices: sorted global vertex ids of the current subproblem
        if vertices.size <= leaf_size:
            sub, verts = graph.subgraph(vertices)
            emit(verts[minimum_degree(sub)])
            return
        sub, verts = graph.subgraph(vertices)
        _, levels, order = pseudo_peripheral_vertex(sub, int(np.argmin(sub.degrees())))
        if order.size < sub.n:  # the BFS missed a vertex: dissect each component
            for comp in connected_components(sub):
                rec(verts[comp])
            return
        found = _level_separator(sub, levels, balance=balance)
        if found is None:
            emit(verts[minimum_degree(sub)])
            return
        sep, a, b = found
        rec(verts[np.flatnonzero(a)])
        rec(verts[np.flatnonzero(b)])
        # separator vertices are eliminated last; order them among
        # themselves by minimum degree on their induced subgraph
        sep_verts = verts[np.flatnonzero(sep)]
        if sep_verts.size > 1:
            ssub, sverts = graph.subgraph(sep_verts)
            emit(sverts[minimum_degree(ssub)])
        else:
            emit(sep_verts)

    rec(np.arange(graph.n, dtype=np.int64))
    assert pos == graph.n
    return out
