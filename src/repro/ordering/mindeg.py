"""Minimum-degree fill-reducing ordering.

A clean exact-degree implementation over an explicit elimination graph with
two standard accelerations from the minimum-degree literature:

* **mass elimination** — after eliminating ``v``, any neighbour whose
  adjacency becomes a subset of the new clique is eliminated immediately
  (it would have minimum degree next anyway);
* **lazy heap** — degrees live in a binary heap with stale entries skipped
  on pop, avoiding decrease-key.

Exact (not approximate) degrees keep the code honest and testable; the cost
is fine at the suite's scale.  All pieces of a dissection are induced from
the top graph and ordered in ONE call into the compiled analysis loops
(``numeric/_analysis.c``'s ``md_order``, :func:`_order_pieces`); where no
library could be built, the same order is computed on plain Python sets of
subgraphs induced in one pass.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..numeric import _native

__all__ = ["minimum_degree"]


def minimum_degree(graph, *, tie_break="index"):
    """Return a minimum-degree elimination ordering of ``graph``.

    Parameters
    ----------
    graph:
        :class:`~repro.ordering.graph.AdjacencyGraph`.
    tie_break:
        ``"index"`` (deterministic, lowest vertex number first) — the only
        supported policy; the argument exists to make the determinism
        explicit at call sites.

    Returns
    -------
    perm:
        ``int64`` permutation array; ``perm[k]`` is the vertex eliminated at
        step ``k`` (i.e. the original index placed at position ``k``).
    """
    if tie_break != "index":
        raise ValueError("only tie_break='index' is supported")
    return _order_pieces(graph, [np.arange(graph.n, dtype=np.int64)])


def _order_pieces(graph, pieces):
    """The minimum-degree orders of the subgraphs of ``graph`` induced by
    ``pieces`` (disjoint ascending vertex arrays covering it), concatenated;
    all induced in one pass, ascending ids keeping the tie-breaks."""
    n, verts = graph.n, np.concatenate(pieces).astype(np.int64, copy=False)
    start = np.cumsum([0] + [p.size for p in pieces])  # piece k: verts[start[k]:start[k + 1]]
    loops = _native.analysis_loops()
    if loops is not None:
        perm = np.empty(n, dtype=np.int64)
        if loops.md_order(n, len(pieces), graph.xadj, graph.adjncy, start, verts, perm) < 0:
            raise MemoryError("no memory for the minimum-degree elimination graph")
        return perm
    piece = np.repeat(np.arange(len(pieces)), np.diff(start))
    piece_of, local_of = np.empty((2, n), dtype=np.int64)
    piece_of[verts], local_of[verts] = piece, np.arange(n) - start[piece]
    # the edges inside a piece, renumbered locally, as plain-int sets
    src = np.repeat(np.arange(n), graph.degrees())
    keep = piece_of[src] == piece_of[graph.adjncy]
    nb = local_of[graph.adjncy[keep]].tolist()
    x = np.concatenate(([0], np.cumsum(np.bincount(src[keep], minlength=n)))).tolist()
    adj = [set(nb[x[v] : x[v + 1]]) for v in verts.tolist()]
    order = []
    for s0, s1 in zip(start[:-1].tolist(), start[1:].tolist()):
        order.extend(s0 + v for v in _eliminate(adj[s0:s1]))
    return verts[np.array(order, dtype=np.int64)]


def _eliminate(adj):
    """:func:`minimum_degree`'s order, a list, of the graph whose vertex
    ``v`` has the neighbour set ``adj[v]`` (consumed; no self loops)."""
    n = len(adj)
    eliminated = [False] * n
    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    perm = []
    while len(perm) < n:
        deg, v = heapq.heappop(heap)
        if eliminated[v] or deg != len(adj[v]):
            continue  # stale heap entry
        # eliminate v: its neighbours become a clique
        clique = adj[v]
        perm.append(v)
        eliminated[v] = True
        for u in clique:
            adj[u].discard(v)
        # mass elimination: neighbours dominated by the clique go now
        absorbed = [u for u in clique if adj[u] <= clique]
        perm.extend(sorted(absorbed))
        for u in absorbed:
            eliminated[u] = True
            for w in adj[u]:
                adj[w].discard(u)
            adj[u].clear()
        survivors = clique.difference(absorbed)
        for u in survivors:
            adj[u] |= survivors
            adj[u].discard(u)
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    return perm
