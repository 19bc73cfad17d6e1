"""Undirected graph utilities backing the fill-reducing orderings.

The adjacency structure of a symmetric matrix (both triangles, no diagonal)
is stored CSR-style in two flat arrays — the format every ordering algorithm
here walks.  Helpers provide BFS level structures, connected components,
pseudo-peripheral vertices (for RCM and for the level-set separators used by
nested dissection), and subgraph extraction.

The George–Liu search (every breadth-first search included) is one call
into the compiled analysis loops (``numeric/_analysis.c``'s ``pp_vertex``)
where a library could be built; the FIFO loop of :func:`_bfs` on plain ints
where not, the same levels and visiting order.
"""

from __future__ import annotations

import numpy as np

from ..numeric import _native
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


def _bfs(xadj, adjncy, keep, root):
    """``(levels, order)`` lists of a FIFO breadth-first search from
    ``root`` over the plain-int CSR ``xadj`` / ``adjncy``, neighbours in
    ``adjncy`` order, visiting only vertices whose ``keep`` is true (all
    when ``keep`` is ``None``)."""
    levels = [-1] * (len(xadj) - 1)
    levels[root] = 0
    order = [root]
    for v in order:  # the queue: appended to while it is read
        depth = levels[v] + 1
        for u in adjncy[xadj[v] : xadj[v + 1]]:
            if levels[u] < 0 and (keep is None or keep[u]):
                levels[u] = depth
                order.append(u)
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
    _, levels, order = pseudo_peripheral_vertex(graph, root, mask=mask, max_iter=0)
    return levels, order


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
    vertex (degree in ``graph``, first in visiting order) of the last
    (deepest) level until the eccentricity stops growing, at most
    ``max_iter`` times.  Only ``mask``-true vertices are visited (a
    ``ValueError`` if ``start`` is not one).  Returns ``(vertex, levels,
    order)`` of the final BFS (:func:`bfs_levels`' arrays).
    """
    v, n = int(start), graph.n
    if not 0 <= v < n:
        raise ValueError(f"start vertex {v} out of range for {n} vertices")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError(f"mask must have shape ({n},), got {mask.shape}")
        if not mask[v]:
            raise ValueError("root excluded by mask")
    loops = _native.analysis_loops()
    if loops is not None:
        levels, order = np.full((2, n), -1, dtype=np.int64), np.empty((2, n), dtype=np.int64)
        keep = None if mask is None else np.ascontiguousarray(mask).view(np.uint8)
        found = np.empty(1, dtype=np.int64)
        buffers = (levels[0], order[0], levels[1], order[1], found)
        count = loops.pp_vertex(n, v, max_iter, graph.xadj, graph.adjncy, keep, *buffers)
        return int(found[0]), levels[0], order[0, :count]
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    keep = None if mask is None else mask.tolist()
    levels, order = _bfs(xadj, adjncy, keep, v)
    ecc = levels[order[-1]]
    for _ in range(max_iter):
        last = [u for u in order if levels[u] == ecc]
        cand = min(last, key=lambda u: xadj[u + 1] - xadj[u])  # the first minimum
        lv, od = _bfs(xadj, adjncy, keep, cand)
        if lv[od[-1]] <= ecc:
            break
        v, levels, order, ecc = cand, lv, od, lv[od[-1]]
    return v, np.asarray(levels, dtype=np.int64), np.asarray(order, dtype=np.int64)
