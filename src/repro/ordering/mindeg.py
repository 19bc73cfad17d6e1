"""Minimum-degree fill-reducing ordering.

A clean exact-degree implementation over an explicit elimination graph with
two standard accelerations from the minimum-degree literature:

* **mass elimination** — after eliminating ``v``, any neighbour whose
  adjacency becomes a subset of the new clique is eliminated immediately
  (it would have minimum degree next anyway);
* **lazy heap** — degrees live in a binary heap with stale entries skipped
  on pop, avoiding decrease-key.

Exact (not approximate) degrees keep the code honest and testable; the cost
is fine at the suite's scale, and nested dissection only calls this on small
leaf subgraphs.
"""

from __future__ import annotations

import heapq

import numpy as np

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
    n = graph.n
    adj = [set(graph.neighbors(v).tolist()) for v in range(n)]
    eliminated = np.zeros(n, dtype=bool)
    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    perm = np.empty(n, dtype=np.int64)
    k = 0
    while k < n:
        deg, v = heapq.heappop(heap)
        if eliminated[v] or deg != len(adj[v]):
            continue  # stale heap entry
        # eliminate v: its neighbours become a clique
        clique = adj[v]
        perm[k] = v
        k += 1
        eliminated[v] = True
        for u in clique:
            adj[u].discard(v)
        # mass elimination: neighbours dominated by the clique go now
        absorbed = []
        for u in clique:
            if adj[u] <= clique:
                absorbed.append(u)
        for u in sorted(absorbed):
            perm[k] = u
            k += 1
            eliminated[u] = True
        for u in absorbed:
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
