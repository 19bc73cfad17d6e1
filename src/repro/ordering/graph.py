"""Undirected graph utilities backing the fill-reducing orderings.

The adjacency structure of a symmetric matrix (both triangles, no diagonal)
is stored CSR-style in two flat arrays — the format every ordering algorithm
here walks.  Helpers provide BFS level structures, connected components,
pseudo-peripheral vertices (for RCM and for the level-set separators used by
nested dissection), and subgraph extraction.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from ..symbolic.structure import _sorted_unique

__all__ = [
    "AdjacencyGraph",
    "adjacency_from_matrix",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral_vertex",
]


class AdjacencyGraph:
    """CSR adjacency of an undirected graph without self loops.

    Attributes
    ----------
    n:
        Number of vertices.
    xadj:
        ``int64`` array of length ``n + 1``.
    adjncy:
        Flat neighbour array; vertex ``v``'s neighbours are
        ``adjncy[xadj[v]:xadj[v+1]]`` (sorted ascending).
    """

    __slots__ = ("n", "xadj", "adjncy")

    def __init__(self, n, xadj, adjncy):
        self.n = int(n)
        self.xadj = np.ascontiguousarray(xadj, dtype=np.int64)
        self.adjncy = np.ascontiguousarray(adjncy, dtype=np.int64)

    def neighbors(self, v):
        """Sorted neighbour array of vertex ``v`` (a view, do not mutate)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v):
        """Degree of vertex ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self):
        """Array of all vertex degrees."""
        return np.diff(self.xadj)

    @property
    def num_edges(self):
        """Number of undirected edges."""
        return int(self.adjncy.size // 2)

    def gather(self, vertices):
        """Concatenated neighbour lists of ``vertices``, in the order given.

        Returns ``(nb, counts)``: ``nb`` is ``neighbors(v)`` for each ``v``
        back to back, ``counts[k]`` the degree of ``vertices[k]``.
        """
        lo = self.xadj[vertices]
        counts = self.xadj[1:][vertices] - lo
        ends = counts.cumsum()
        flat = np.arange(ends[-1] if ends.size else 0)
        flat += (lo - ends + counts).repeat(counts)
        return self.adjncy[flat], counts

    def subgraph(self, vertices):
        """Induced subgraph on ``vertices``.

        Returns ``(graph, vertices_sorted)`` where vertex ``k`` of the
        subgraph corresponds to ``vertices_sorted[k]`` in the parent.
        """
        vertices = _sorted_unique(np.asarray(vertices, dtype=np.int64))
        k = vertices.size
        local = np.full(self.n, -1, dtype=np.int64)
        local[vertices] = np.arange(k, dtype=np.int64)
        nb, counts = self.gather(vertices)
        nb = local[nb]
        keep = nb >= 0
        owner = np.repeat(np.arange(k, dtype=np.int64), counts)[keep]
        xadj = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=k), out=xadj[1:])
        return AdjacencyGraph(k, xadj, nb[keep]), vertices


def adjacency_from_matrix(A):
    """Adjacency graph of the symmetric matrix ``A`` (diagonal dropped)."""
    cols = np.repeat(np.arange(A.n, dtype=np.int64), np.diff(A.indptr))
    off = A.indices != cols
    r, c = A.indices[off], cols[off]
    src, dst = np.concatenate([r, c]), np.concatenate([c, r])  # both directions
    order = np.argsort(src * A.n + dst, kind="stable")
    xadj = np.zeros(A.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=A.n), out=xadj[1:])
    return AdjacencyGraph(A.n, xadj, dst[order])


def _csgraph(graph, root, mask):
    """``graph`` as a scipy CSR matrix for :func:`_bfs`, edges into
    ``mask``-false vertices dropped (``ValueError`` if ``root`` is one).

    float64 data and int32 indices are what ``scipy.sparse.csgraph``
    validates to, so every BFS on the result copies nothing.
    """
    xadj, adjncy = graph.xadj, graph.adjncy
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask[root]:
            raise ValueError("root excluded by mask")
        keep = mask[adjncy]
        xadj = np.concatenate(([0], np.cumsum(keep)))[xadj]
        adjncy = adjncy[keep]
    return csr_matrix(
        (np.ones(adjncy.size), adjncy.astype(np.int32), xadj.astype(np.int32)),
        shape=(graph.n, graph.n),
    )


def _bfs(G, root):
    """``(levels, order)`` of a FIFO breadth-first search of ``G`` from
    ``root``, neighbours taken in CSR order."""
    order, pred = breadth_first_order(G, root, directed=True, return_predecessors=True)
    order = order.astype(np.int64)
    n = G.shape[0]
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(order.size)
    # pointer jumping over the BFS tree in queue positions: ``depth[k]`` is
    # the distance from ``order[k]`` to ``order[up[k]]``, and ``up`` doubles
    # its reach each pass until every vertex points at the root
    up = np.zeros(order.size, dtype=np.int64)
    up[1:] = pos[pred[order[1:]]]
    depth = np.ones(order.size, dtype=np.int64)
    depth[0] = 0
    while up.any():
        depth += depth[up]
        up = up[up]
    levels = np.full(n, -1, dtype=np.int64)
    levels[order] = depth
    return levels, order


def bfs_levels(graph, root, *, mask=None):
    """Breadth-first level structure from ``root``.

    Parameters
    ----------
    graph:
        :class:`AdjacencyGraph`.
    root:
        Start vertex.
    mask:
        Optional boolean array; only ``mask``-true vertices are visited.

    Returns
    -------
    levels:
        ``int64`` array of per-vertex level, ``-1`` for unreached vertices.
    order:
        Vertices in FIFO visitation order, neighbours in ``adjncy`` order.
    """
    return _bfs(_csgraph(graph, root, mask), root)


def connected_components(graph, *, mask=None):
    """Connected components (restricted to ``mask`` when given).

    Returns a list of ``int64`` vertex arrays, one per component, each sorted.
    """
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    dst = graph.adjncy
    verts = np.arange(graph.n, dtype=np.int64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        keep = mask[src] & mask[dst]
        src, dst, verts = src[keep], dst[keep], verts[mask]
    # min-label propagation with pointer jumping: every vertex takes the
    # smallest label in its closed neighbourhood, then its label's label;
    # labels are vertex ids of the same component, so the fixed point is the
    # component's smallest vertex
    label = np.arange(graph.n, dtype=np.int64)
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    label = label[verts]
    by_label = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[by_label])) + 1
    return np.split(verts[by_label], cuts) if verts.size else []


def pseudo_peripheral_vertex(graph, start, *, mask=None, max_iter=10):
    """George–Liu pseudo-peripheral vertex heuristic.

    Repeatedly BFS from the current candidate and jump to a minimum-degree
    vertex of the last (deepest) level until the eccentricity stops growing.
    Returns ``(vertex, levels, order)`` of the final BFS.
    """
    v = int(start)
    G = _csgraph(graph, v, mask)
    levels, order = _bfs(G, v)
    ecc = levels[order[-1]]
    for _ in range(max_iter):
        last = order[levels[order] == ecc]
        degs = graph.xadj[last + 1] - graph.xadj[last]
        cand = int(last[np.argmin(degs)])
        lv, od = _bfs(G, cand)
        new_ecc = lv[od[-1]]
        if new_ecc <= ecc:
            break
        v, levels, order, ecc = cand, lv, od, new_ecc
    return v, levels, order
