"""The array-at-a-time analysis paths against the loops they replaced.

The reference implementations below are the deleted per-vertex /
per-segment / per-supernode loops, verbatim (minimum degree's numpy-array
bookkeeping, nested dissection's per-node extraction from the root graph
with the per-level separator choice loop,
amalgamation's per-candidate heap seeding, the supernodal symbolic
factorization's ``pending`` lists and partition refinement's per-supernode
lexsort among them); every property requires the
vectorised code to return *equal arrays* (orders included, not just sets),
which is what keeps ``analyze`` byte-identical (``test_analysis_golden``).
The edge cases at the bottom are the inputs the old loops handled
implicitly — empty gathers, duplicate discoveries, untouched supernodes.
"""

import heapq
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ordering import (
    ORDERINGS,
    AdjacencyGraph,
    adjacency_from_matrix,
    bfs_levels,
    connected_components,
    minimum_degree,
    nested_dissection,
    pseudo_peripheral_vertex,
)
from repro.ordering.nested_dissection import _level_separator
from repro.sparse import (
    SymmetricCSC,
    arrow_matrix,
    compose_permutations,
    grid_laplacian,
    kkt_like,
    random_spd,
    symmetric_permute,
    tridiagonal,
    vector_stencil,
)
from repro.symbolic import (
    amalgamate,
    analyze,
    column_counts,
    count_blocks,
    elimination_tree,
    fundamental_supernodes,
    partition_refinement,
    postorder,
    symbolic_factorization,
)
from repro.symbolic.amalgamate import _merge, _trapezoid, amalgamate_counts, merge_extra_fill
from repro.symbolic.partition_refinement import _lex_order, _pivot_segments, _runs
from repro.symbolic.structure import SymbolicFactor, _supernodal_structure
from repro.symbolic.supernodes import snode_of_column, supernodal_tree, validate_snptr

# the package re-exports the function under the submodule's name
analyze_module = importlib.import_module("repro.symbolic.analyze")

PROPERTY = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# reference implementations (the replaced loops)
# ----------------------------------------------------------------------
def bfs_levels_ref(graph, root, *, mask=None):
    levels = np.full(graph.n, -1, dtype=np.int64)
    if mask is not None and not mask[root]:
        raise ValueError("root excluded by mask")
    levels[root] = 0
    frontier = [root]
    order = [root]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if levels[u] == -1 and (mask is None or mask[u]):
                    levels[u] = depth
                    nxt.append(int(u))
        order.extend(nxt)
        frontier = nxt
    return levels, np.asarray(order, dtype=np.int64)


def pseudo_peripheral_vertex_ref(graph, start, *, mask=None, max_iter=10):
    v = int(start)
    levels, order = bfs_levels_ref(graph, v, mask=mask)
    ecc = levels[order].max() if order.size else 0
    for _ in range(max_iter):
        last = order[levels[order] == ecc]
        degs = graph.xadj[last + 1] - graph.xadj[last]
        cand = int(last[np.argmin(degs)])
        lv, od = bfs_levels_ref(graph, cand, mask=mask)
        new_ecc = lv[od].max() if od.size else 0
        if new_ecc <= ecc:
            break
        v, levels, order, ecc = cand, lv, od, new_ecc
    return v, levels, order


def connected_components_ref(graph, *, mask=None):
    if mask is None:
        todo = np.ones(graph.n, dtype=bool)
    else:
        todo = mask.copy()
    comps = []
    for start in range(graph.n):
        if not todo[start]:
            continue
        levels, order = bfs_levels_ref(graph, start, mask=todo)
        todo[order] = False
        comps.append(np.sort(order))
    return comps


def subgraph_ref(graph, vertices):
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    local = np.full(graph.n, -1, dtype=np.int64)
    local[vertices] = np.arange(vertices.size, dtype=np.int64)
    xadj = np.zeros(vertices.size + 1, dtype=np.int64)
    chunks = []
    for k, v in enumerate(vertices):
        nb = local[graph.neighbors(v)]
        nb = nb[nb >= 0]
        chunks.append(nb)
        xadj[k + 1] = xadj[k] + nb.size
    adjncy = (np.concatenate(chunks) if chunks
              else np.empty(0, dtype=np.int64))
    return AdjacencyGraph(vertices.size, xadj, adjncy), vertices


def level_separator_ref(sub, levels, *, balance=0.2):
    n = sub.n
    depth = int(levels.max())
    if depth < 2:
        return None
    counts = np.bincount(levels[levels >= 0], minlength=depth + 1)
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
    a = (levels >= 0) & (levels < lvl)
    b = (levels > lvl) | (levels < 0)  # unreached vertices join side B
    # minimal-separator cleanup: a separator vertex with no side-B neighbour
    # can sink into A (and vice versa) without reconnecting the sides
    for v in np.flatnonzero(sep):
        nb = sub.neighbors(v)
        touches_a = bool(a[nb].any())
        touches_b = bool(b[nb].any())
        if touches_a and not touches_b:
            sep[v] = False
            a[v] = True
        elif touches_b and not touches_a:
            sep[v] = False
            b[v] = True
    if not a.any() or not b.any() or not sep.any():
        return None
    return sep, a, b


def minimum_degree_ref(graph, *, tie_break="index"):
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


def nested_dissection_ref(graph, *, leaf_size=64, balance=0.2):
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
            emit(verts[minimum_degree_ref(sub)])
            return
        sub, verts = graph.subgraph(vertices)
        _, levels, order = pseudo_peripheral_vertex(sub, int(np.argmin(sub.degrees())))
        if order.size < sub.n:  # the BFS missed a vertex: dissect each component
            for comp in connected_components(sub):
                rec(verts[comp])
            return
        found = level_separator_ref(sub, levels, balance=balance)
        if found is None:
            emit(verts[minimum_degree_ref(sub)])
            return
        sep, a, b = found
        rec(verts[np.flatnonzero(a)])
        rec(verts[np.flatnonzero(b)])
        # separator vertices are eliminated last; order them among
        # themselves by minimum degree on their induced subgraph
        sep_verts = verts[np.flatnonzero(sep)]
        if sep_verts.size > 1:
            ssub, sverts = graph.subgraph(sep_verts)
            emit(sverts[minimum_degree_ref(ssub)])
        else:
            emit(sep_verts)

    rec(np.arange(graph.n, dtype=np.int64))
    assert pos == graph.n
    return out


def merge_ref(snptr, w, b, sn_parent, growth_cap):
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


def pivot_segments_ref(symb):
    touch = [[] for _ in range(symb.nsup)]
    col2sn = symb.col2sn
    for j in range(symb.nsup):
        below = symb.snode_below_rows(j)
        if below.size == 0:
            continue
        owners = col2sn[below]
        cut = np.flatnonzero(np.diff(owners)) + 1
        for seg in np.split(below, cut):
            touch[int(col2sn[seg[0]])].append(seg)
    return touch


def segment_runs_ref(segs, local_order, w):
    inv = np.empty(w, dtype=np.int64)
    inv[local_order] = np.arange(w)
    total = 0
    for seg in segs:
        pos = np.sort(inv[seg])
        total += 1 + int(np.count_nonzero(np.diff(pos) != 1))
    return total


def order_lex_ref(segs, w):
    keys = np.zeros((len(segs), w), dtype=np.int8)
    for i, seg in enumerate(segs):
        keys[i, seg] = 1
    sizes = keys.sum(axis=1)
    order = np.argsort(-sizes, kind="stable")  # big sets most significant
    keys = keys[order]
    return np.lexsort(keys[::-1])


def order_split_ref(segs, w):
    """Ordered partition refinement: classical class splitting."""
    classes = [np.arange(w, dtype=np.int64)]
    for seg in sorted(segs, key=len, reverse=True):
        if len(classes) == w:
            break
        new = []
        for q in classes:
            if q.size == 1:
                new.append(q)
                continue
            mask = np.isin(q, seg, assume_unique=True)
            if mask.all() or not mask.any():
                new.append(q)
            else:
                new.append(q[~mask])
                new.append(q[mask])
        classes = new
    return np.concatenate(classes)


def partition_refinement_ref(symb, method):
    perm = np.empty(symb.n, dtype=np.int64)
    touch = pivot_segments_ref(symb)
    for s in range(symb.nsup):
        first, last = symb.snode_cols(s)
        w = last - first
        segs = [seg - first for seg in touch[s]]
        if not segs or w == 1:
            perm[first:last] = np.arange(first, last)
            continue
        if method == "lex":
            best = order_lex_ref(segs, w)
        elif method == "split":
            best = order_split_ref(segs, w)
        else:
            orders = [np.arange(w, dtype=np.int64), order_lex_ref(segs, w),
                      order_split_ref(segs, w)]
            best = min(orders, key=lambda o: segment_runs_ref(segs, o, w))
        perm[first:last] = first + best
    return perm


# the loops ``symbolic_factorization`` (its per-supernode ``pending`` lists)
# and ``partition_refinement`` (one lexsort and two run counts per supernode)
# ran before the tree walk and the batched sort replaced them
def symbolic_factorization_ref(A, snptr):
    """Compute the :class:`SymbolicFactor` of ``A`` for partition ``snptr``.

    ``A`` must already carry its final ordering (fill-reducing permutation +
    postorder [+ within-supernode refinement] applied).
    """
    n = A.n
    snptr = np.ascontiguousarray(snptr, dtype=np.int64)
    validate_snptr(snptr, n)
    nsup = snptr.size - 1
    col2sn = snode_of_column(snptr, n)
    sn_parent = np.full(nsup, -1, dtype=np.int64)
    pending = [[] for _ in range(nsup)]  # rows children pass up the tree
    panels = []
    bounds = snptr.tolist()
    colptr = A.indptr[snptr].tolist()
    for s in range(nsup):
        first, last = bounds[s], bounds[s + 1]
        # a supernode's columns are contiguous: one slice holds all their rows
        own = A.indices[colptr[s]:colptr[s + 1]]
        b = np.unique(np.concatenate([own[own >= last], *pending[s]]))
        pending[s] = None
        panels += (np.arange(first, last), b)
        if b.size:
            p = col2sn[b[0]]
            sn_parent[s] = p
            # pass rows beyond the parent's columns up the tree
            pending[p].append(b[b >= bounds[p + 1]])
    rows = np.concatenate(panels) if panels else np.empty(0, dtype=np.int64)
    nbelow = np.array([b.size for b in panels[1::2]], dtype=np.int64)
    rowptr = np.concatenate(([0], np.cumsum(np.diff(snptr) + nbelow)))
    return SymbolicFactor(
        n=n, snptr=snptr, sn_parent=sn_parent,
        rowptr=rowptr, rows=rows, col2sn=col2sn,
    )


def segment_runs_loop_ref(seg, cols, local_order):
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


def order_lex_loop_ref(seg, cols, w):
    """Lexicographic membership-pattern order (local); ``seg`` starts at 0."""
    sizes = np.bincount(seg)
    row = np.empty(sizes.size, dtype=np.int64)
    row[np.argsort(-sizes, kind="stable")] = np.arange(sizes.size)  # big sets first
    keys = np.zeros((sizes.size, w), dtype=np.int8)
    keys[row[seg], cols] = 1
    # np.lexsort treats the *last* row as the primary key
    return np.lexsort(keys[::-1])


def partition_refinement_loop_ref(symb, *, method="best"):
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
        order = order_lex_loop_ref(sid, cols, w)
        # the natural order is the other candidate and wins ties
        natural = np.arange(w)
        if method != "best" or segment_runs_loop_ref(sid, cols, order) < segment_runs_loop_ref(sid, cols, natural):
            perm[first : first + w] = first + order
    return perm


def fundamental_supernodes_ref(parent, counts, fundamental):
    n = parent.size
    childcount = np.zeros(n, dtype=np.int64)
    np.add.at(childcount, parent[parent >= 0], 1)
    boundaries = [0]
    for j in range(1, n):
        chain = parent[j - 1] == j and counts[j - 1] == counts[j] + 1
        if fundamental:
            chain = chain and childcount[j] == 1
        if not chain:
            boundaries.append(j)
    boundaries.append(n)
    return np.asarray(boundaries, dtype=np.int64)


def factor_flops_ref(symb):
    total = 0
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        b = m - w
        total += w ** 3 // 3 + w ** 2 * b + w * b * b
    return int(total)


def children_ref(symb):
    out = [[] for _ in range(symb.nsup)]
    for s in range(symb.nsup):
        p = symb.sn_parent[s]
        if p >= 0:
            out[p].append(s)
    return [np.asarray(c, dtype=np.int64) for c in out]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_n=24):
    """Random undirected graphs: sparse enough for isolated vertices and
    several components, dense enough for duplicate discoveries."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = {(max(u, v), min(u, v)) for u, v in pairs if u != v}
    rows = [e[0] for e in edges] + list(range(n))
    cols = [e[1] for e in edges] + list(range(n))
    A = SymmetricCSC.from_coo(n, rows, cols, np.ones(len(rows)), symmetry="lower")
    return adjacency_from_matrix(A)


@st.composite
def disconnected_graphs(draw):
    """Two :func:`graphs` side by side, vertex ids interleaved so neither
    part is a prefix of the other."""
    g, h = draw(graphs(max_n=20)), draw(graphs(max_n=20))
    n = g.n + h.n
    relabel = np.asarray(draw(st.permutations(range(n))))
    src = np.concatenate((np.repeat(np.arange(g.n), g.degrees()),
                          g.n + np.repeat(np.arange(h.n), h.degrees())))
    dst = relabel[np.concatenate((g.adjncy, g.n + h.adjncy))]
    src = relabel[src]
    by_edge = np.lexsort((dst, src))
    xadj = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return AdjacencyGraph(n, xadj, dst[by_edge])


@st.composite
def segment_families(draw, laminar):
    """``(segs, w)``: segments over ``0..w-1`` as sorted unique index
    arrays.  Laminar families are built by recursive halving (any two
    members nested or disjoint), the others are arbitrary subsets; sizes tie
    often in both."""
    w = draw(st.integers(2, 14))
    if laminar:
        relabel = np.asarray(draw(st.permutations(range(w))))
        segs, stack = [], [(0, w)]
        while stack:
            lo, hi = stack.pop()
            if draw(st.booleans()):
                segs.append(np.sort(relabel[lo:hi]))
            if hi - lo > 1:
                mid = draw(st.integers(lo + 1, hi - 1))
                stack += [(lo, mid), (mid, hi)]
        segs = [segs[i] for i in draw(st.permutations(range(len(segs))))]
    else:
        subsets = draw(st.lists(st.sets(st.integers(0, w - 1), min_size=1), max_size=8))
        segs = [np.asarray(sorted(sub), dtype=np.int64) for sub in subsets]
    return segs, w


def coordinates(A):
    """Lower-triangle ``(rows, cols)`` of ``A``'s pattern."""
    return A.indices, np.repeat(np.arange(A.n), np.diff(A.indptr))


@st.composite
def patterns(draw):
    """Random SPD and KKT patterns, two random patterns side by side with
    their ids interleaved (disconnected), and a star."""
    kind = draw(st.sampled_from(["spd", "kkt", "disconnected", "star"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "spd":
        return spd_pattern(draw(st.integers(1, 150)), seed)
    if kind == "kkt":
        return kkt_like(draw(st.integers(2, 120)), draw(st.integers(1, 40)),
                        density=0.03, seed=seed)
    if kind == "star":
        return star(draw(st.integers(1, 150)))
    A = spd_pattern(draw(st.integers(1, 80)), seed)
    B = spd_pattern(draw(st.integers(1, 80)), seed + 1)
    n = A.n + B.n
    relabel = np.random.default_rng(seed).permutation(n)
    (ar, ac), (br, bc) = coordinates(A), coordinates(B)
    rows = relabel[np.concatenate((ar, A.n + br))]
    cols = relabel[np.concatenate((ac, A.n + bc))]
    return SymmetricCSC.from_coo(n, rows, cols, np.ones(rows.size), symmetry="lower")


@st.composite
def analysis_patterns(draw):
    """:func:`patterns` plus arrow, dense and ``n = 1`` patterns and a
    vector stencil whose supernodes are tens of columns wide."""
    kind = draw(st.sampled_from(["patterns", "arrow", "dense", "one", "stencil"]))
    if kind == "patterns":
        return draw(patterns())
    if kind == "arrow":
        n = draw(st.integers(2, 120))
        return arrow_matrix(n, bandwidth=draw(st.integers(1, 4)),
                            arrow_width=draw(st.integers(1, min(n - 1, 8))))
    if kind == "dense":
        return random_spd(draw(st.integers(1, 40)), density=1.0, seed=draw(st.integers(0, 99)))
    if kind == "one":
        return diagonal(1)
    return vector_stencil((3, 3, 3), 4, connectivity="box")


def flat(segs):
    """The flat ``(seg, cols)`` form ``partition_refinement`` works on."""
    seg = np.repeat(np.arange(len(segs)), [s.size for s in segs])
    return seg, np.concatenate(segs)


def spd_pattern(n, seed):
    return random_spd(n, density=3.0 / n, seed=seed)


def assert_same_separator(sub, balance):
    """``_level_separator`` and the loop it replaced pick the same level of
    the same BFS level structure and clean it up alike."""
    _, levels, _ = pseudo_peripheral_vertex(sub, int(np.argmin(sub.degrees())))
    found = _level_separator(sub, levels, balance=balance)
    ref = level_separator_ref(sub, levels, balance=balance)
    assert (found is None) == (ref is None)
    if ref is not None:
        assert all(np.array_equal(x, y) for x, y in zip(found, ref))


def assert_same_symb(got, want):
    for name in ("snptr", "sn_parent", "rowptr", "rows", "col2sn"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name


# ----------------------------------------------------------------------
# ordering/graph.py
# ----------------------------------------------------------------------
class TestGraphAgainstReference:
    @given(graphs(), st.data())
    @PROPERTY
    def test_bfs_levels_and_order(self, g, data):
        root = data.draw(st.integers(0, g.n - 1))
        levels, order = bfs_levels(g, root)
        ref_levels, ref_order = bfs_levels_ref(g, root)
        assert np.array_equal(levels, ref_levels)
        assert np.array_equal(order, ref_order)
        assert levels.dtype == order.dtype == np.int64

    @given(graphs(), st.data())
    @PROPERTY
    def test_bfs_levels_and_order_masked(self, g, data):
        mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        root = data.draw(st.integers(0, g.n - 1))
        mask[root] = True
        levels, order = bfs_levels(g, root, mask=mask)
        ref_levels, ref_order = bfs_levels_ref(g, root, mask=mask)
        assert np.array_equal(levels, ref_levels)
        assert np.array_equal(order, ref_order)

    @given(disconnected_graphs(), st.booleans(), st.data())
    @PROPERTY
    def test_pseudo_peripheral_vertex(self, g, masked, data):
        # nested dissection's candidate tie-break and separator read the FIFO
        # order, not only the levels
        assert len(connected_components(g)) >= 2
        start = data.draw(st.integers(0, g.n - 1))
        mask = None
        if masked:
            mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
            mask[start] = True
        v, levels, order = pseudo_peripheral_vertex(g, start, mask=mask)
        ref_v, ref_levels, ref_order = pseudo_peripheral_vertex_ref(g, start, mask=mask)
        assert v == ref_v
        assert np.array_equal(levels, ref_levels) and np.array_equal(order, ref_order)

    @given(graphs(), st.data())
    @PROPERTY
    def test_subgraph_unsorted_duplicated(self, g, data):
        verts = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        sub, kept = g.subgraph(verts)
        ref, ref_kept = subgraph_ref(g, verts)
        assert np.array_equal(kept, ref_kept)
        assert sub.n == ref.n
        assert np.array_equal(sub.xadj, ref.xadj)
        assert np.array_equal(sub.adjncy, ref.adjncy)

    @given(graphs(), st.data())
    @PROPERTY
    def test_connected_components(self, g, data):
        mask = None
        if data.draw(st.booleans()):
            mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        comps = connected_components(g, mask=mask)
        ref = connected_components_ref(g, mask=mask)
        assert len(comps) == len(ref)
        for c, r in zip(comps, ref):
            assert c.dtype == np.int64 and np.array_equal(c, r)

    @given(graphs(max_n=40), st.sampled_from([0.0, 0.2, 0.4, 0.5]))
    @PROPERTY
    def test_level_separator(self, g, balance):
        # the sequential cleanup loop sank vertices one at a time, in either
        # direction; on a BFS level structure only A ever grows
        sub, _ = g.subgraph(max(connected_components(g), key=len))
        assert_same_separator(sub, balance)

    @pytest.mark.parametrize("balance", [0.0, 0.2, 0.4, 0.5])
    @pytest.mark.parametrize("shape", [
        # paths: every level one vertex, so an even path ties two levels on
        # size and imbalance; ladders tie at two; a star has one candidate
        ("path", 7), ("path", 8), ("path", 12), ("ladder", 6), ("ladder", 9), ("star", 9),
    ], ids=lambda s: f"{s[0]}{s[1]}" if isinstance(s, tuple) else None)
    def test_level_separator_on_tied_levels(self, shape, balance):
        kind, n = shape
        A = {"path": lambda: grid_laplacian((n,)), "ladder": lambda: grid_laplacian((2, n)),
             "star": lambda: star(n)}[kind]()
        assert_same_separator(adjacency_from_matrix(A), balance)


# ----------------------------------------------------------------------
# symbolic/partition_refinement.py
# ----------------------------------------------------------------------
class TestRefinementAgainstReference:
    @pytest.mark.parametrize("laminar", [True, False])
    @given(data=st.data())
    @PROPERTY
    def test_order_lex_is_class_splitting(self, laminar, data):
        segs, w = data.draw(segment_families(laminar))
        if not segs:
            return
        seg, cols = flat(segs)
        order = _lex_order(np.zeros(w, dtype=np.int64), seg, cols)
        assert np.array_equal(order, order_split_ref(segs, w))
        assert np.array_equal(order, order_lex_ref(segs, w))
        assert np.array_equal(order, order_lex_loop_ref(seg, cols, w))

    @given(segment_families(False), st.data())
    @PROPERTY
    def test_segment_runs(self, family, data):
        segs, w = family
        if not segs:
            return
        order = np.asarray(data.draw(st.permutations(range(w))))
        seg, cols = flat(segs)
        where = np.empty(w, dtype=np.int64)
        where[order] = np.arange(w)
        runs = _runs(seg, where[cols], np.zeros(seg.size, dtype=np.int64), 1)
        assert runs.tolist() == [segment_runs_ref(segs, order, w)]
        assert runs[0] == segment_runs_loop_ref(seg, cols, order)

    @given(st.integers(20, 90), st.integers(0, 10**6), st.booleans())
    @PROPERTY
    def test_pivot_segments_and_permutation(self, n, seed, merge):
        symb = analyze(spd_pattern(n, seed), merge=merge, refine=False).symb
        ptr, seg, col = _pivot_segments(symb)
        touch = pivot_segments_ref(symb)
        for s in range(symb.nsup):
            lo, hi = ptr[s], ptr[s + 1]
            want = np.concatenate(touch[s]) if touch[s] else np.empty(0, dtype=np.int64)
            assert np.array_equal(col[lo:hi], want)
            sizes = np.bincount(seg[lo:hi] - seg[lo]) if hi > lo else []
            assert list(sizes) == [t.size for t in touch[s]]
        for method in ("best", "lex", "split"):
            assert np.array_equal(partition_refinement(symb, method=method),
                                  partition_refinement_ref(symb, method))


# ----------------------------------------------------------------------
# symbolic/structure.py, supernodes.py, analyze.py
# ----------------------------------------------------------------------
class TestRelabelledStructures:
    # the two ids below keep the names they had when ``SymbolicFactor`` also
    # relabelled a merged partition (``coarsen``); their relabel halves stay
    @given(st.integers(2, 90), st.integers(0, 10**6), st.sampled_from(["nd", "mindeg", "natural"]),
           st.sampled_from([0.0, 0.1, 0.25, 1.0, 5.0]), st.booleans())
    @PROPERTY
    def test_coarsen_and_relabel_equal_symbolic_factorization(
            self, n, seed, ordering, growth_cap, fundamental):
        A = spd_pattern(n, seed)
        base = analyze(A, ordering=ordering, merge=False, refine=False,
                       fundamental=fundamental)
        snptr = amalgamate(base.symb, growth_cap=growth_cap)
        merged = symbolic_factorization(base.matrix, snptr)
        for method in ("best", "lex"):
            rperm = partition_refinement(merged, method=method)
            B = symmetric_permute(A, compose_permutations(rperm, base.perm))
            assert_same_symb(merged.relabel(rperm), symbolic_factorization(B, snptr))

    def test_coarsen_and_relabel_reject_what_they_cannot_relabel(self):
        symb = analyze(grid_laplacian((6, 6)), merge=False, refine=False).symb
        with pytest.raises(ValueError):  # columns leaving their supernode
            symb.relabel(np.roll(np.arange(symb.n), 1))

    @given(st.integers(1, 90), st.integers(0, 10**6), st.sampled_from(["nd", "mindeg", "natural"]),
           st.sampled_from([0.0, 0.1, 0.25, 1.0, 5.0]), st.booleans())
    @PROPERTY
    def test_amalgamate_from_counts_equals_amalgamate_of_the_symbolic_factor(
            self, n, seed, ordering, growth_cap, fundamental):
        # what ``analyze`` merges without walking the fundamental partition
        base = analyze(spd_pattern(n, seed), ordering=ordering, merge=False, refine=False,
                       fundamental=fundamental)
        parent = elimination_tree(base.matrix)
        counts = column_counts(base.matrix, parent)
        snptr = fundamental_supernodes(parent, counts, fundamental=fundamental)
        want = amalgamate(symbolic_factorization(base.matrix, snptr), growth_cap=growth_cap)
        got = amalgamate_counts(snptr, counts, parent, growth_cap=growth_cap)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("merge", [True, False])
    def test_analyze_walks_the_supernodal_tree_once(self, monkeypatch, merge):
        calls = []

        def spy(B, snptr, sn_parent):
            calls.append(snptr.size - 1)
            return _supernodal_structure(B, snptr, sn_parent)

        monkeypatch.setattr(analyze_module, "_supernodal_structure", spy)
        system = analyze(grid_laplacian((9, 8)), merge=merge)
        assert calls == [system.nsup]

    @given(st.integers(1, 90), st.integers(0, 10**6))
    @PROPERTY
    def test_postorder_relabels_the_elimination_tree(self, n, seed):
        A = symmetric_permute(spd_pattern(n, seed),
                              np.random.default_rng(seed).permutation(n))
        parent = elimination_tree(A)
        post = postorder(parent)
        inv = np.empty(n, dtype=np.int64)
        inv[post] = np.arange(n)
        up = parent[post]
        relabelled = np.where(up >= 0, inv[up], -1)
        assert np.array_equal(relabelled, elimination_tree(symmetric_permute(A, post)))
        assert np.array_equal(postorder(relabelled), np.arange(n))

    @given(st.integers(1, 90), st.integers(0, 10**6), st.booleans())
    @PROPERTY
    def test_supernode_partition_and_aggregates(self, n, seed, fundamental):
        system = analyze(spd_pattern(n, seed), fundamental=fundamental)
        parent = elimination_tree(system.matrix)
        counts = column_counts(system.matrix, parent)
        assert np.array_equal(
            fundamental_supernodes(parent, counts, fundamental=fundamental),
            fundamental_supernodes_ref(parent, counts, fundamental))
        symb = system.symb
        assert symb.factor_flops() == factor_flops_ref(symb)
        got, want = symb.children(), children_ref(symb)
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, r)


class TestTreeWalkAndBatchedRefinement:
    @given(analysis_patterns(), st.sampled_from(ORDERINGS), st.booleans(),
           st.sampled_from([0, 0.1, 0.25, 1, 5]))
    @PROPERTY
    def test_structure_and_refinement(self, A, ordering, fundamental, growth_cap):
        base = analyze(A, ordering=ordering, merge=False, refine=False, fundamental=fundamental)
        parent = elimination_tree(base.matrix)
        counts = column_counts(base.matrix, parent)
        merged = amalgamate_counts(base.symb.snptr, counts, parent, growth_cap=growth_cap)
        for snptr in (base.symb.snptr, merged):
            want = symbolic_factorization_ref(base.matrix, snptr)
            assert_same_symb(symbolic_factorization(base.matrix, snptr), want)
            assert_same_symb(
                _supernodal_structure(base.matrix, snptr, supernodal_tree(snptr, parent)), want)
            for method in ("best", "lex", "split"):
                got = partition_refinement(want, method=method)
                assert got.dtype == np.int64
                assert np.array_equal(got, partition_refinement_loop_ref(want, method=method))
        for method in ("best", "lex"):
            system = analyze(A, ordering=ordering, fundamental=fundamental,
                             growth_cap=growth_cap, refine_method=method)
            rperm = partition_refinement_loop_ref(
                symbolic_factorization_ref(base.matrix, merged), method=method)
            assert np.array_equal(system.perm, compose_permutations(rperm, base.perm))
            want = symbolic_factorization_ref(system.matrix, merged)
            assert_same_symb(system.symb, want)
            assert_same_symb(symbolic_factorization(system.matrix, merged), want)

    @given(analysis_patterns(), st.booleans(), st.data())
    @PROPERTY
    def test_any_partition(self, A, ordered, data):
        # the public door takes any partition the loop took, chains of the
        # elimination tree or not, on any symmetric ordering
        B = analyze(A, refine=False).matrix if ordered else A
        cuts = data.draw(st.sets(st.integers(1, max(A.n - 1, 1)))) if A.n > 1 else set()
        snptr = np.array(sorted(cuts | {0, A.n}), dtype=np.int64)
        assert_same_symb(symbolic_factorization(B, snptr), symbolic_factorization_ref(B, snptr))


# ----------------------------------------------------------------------
# ordering/mindeg.py, ordering/nested_dissection.py, symbolic/amalgamate.py
# ----------------------------------------------------------------------
class TestOrderingAndMergeLoops:
    @given(patterns())
    @PROPERTY
    def test_minimum_degree(self, A):
        g = adjacency_from_matrix(A)
        got = minimum_degree(g)
        assert got.dtype == np.int64 and np.array_equal(got, minimum_degree_ref(g))

    @given(patterns(), st.sampled_from([1, 2, 8, 64]))
    @PROPERTY
    def test_nested_dissection(self, A, leaf_size):
        g = adjacency_from_matrix(A)
        got = nested_dissection(g, leaf_size=leaf_size)
        want = nested_dissection_ref(g, leaf_size=leaf_size)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @given(disconnected_graphs(), st.sampled_from([1, 2, 8, 64]), st.sampled_from([0.0, 0.5]))
    @PROPERTY
    def test_nested_dissection_disconnected(self, g, leaf_size, balance):
        # components are dissected one by one, their pieces induced together
        got = nested_dissection(g, leaf_size=leaf_size, balance=balance)
        want = nested_dissection_ref(g, leaf_size=leaf_size, balance=balance)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("leaf_size", [1, 2, 64])
    @pytest.mark.parametrize("n", [0, 1])
    def test_nested_dissection_of_no_and_one_vertex(self, n, leaf_size):
        g = AdjacencyGraph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        got = nested_dissection(g, leaf_size=leaf_size)
        assert got.dtype == np.int64 and np.array_equal(got, np.arange(n))
        assert np.array_equal(got, nested_dissection_ref(g, leaf_size=leaf_size))

    @given(patterns(), st.sampled_from([0, 0.1, 0.25, 1, 2]), st.booleans())
    @PROPERTY
    def test_merge(self, A, growth_cap, fundamental):
        symb = analyze(A, merge=False, refine=False, fundamental=fundamental).symb
        w = np.diff(symb.snptr)
        args = (symb.snptr, w, np.diff(symb.rowptr) - w, symb.sn_parent, growth_cap)
        got = _merge(*args)
        assert got.dtype == np.int64 and np.array_equal(got, merge_ref(*args))


# ----------------------------------------------------------------------
# edge cases the loops handled implicitly
# ----------------------------------------------------------------------
def diagonal(n):
    return SymmetricCSC(n, np.arange(n + 1), np.arange(n), np.ones(n))


def star(n):
    """Vertex 0 adjacent to every other vertex."""
    rows = list(range(n)) + list(range(1, n))
    cols = list(range(n)) + [0] * (n - 1)
    return SymmetricCSC.from_coo(n, rows, cols, np.ones(len(rows)), symmetry="lower")


class TestEdgeCases:
    def test_empty_graph(self):
        g = AdjacencyGraph(0, [0], [])
        assert connected_components(g) == []
        sub, verts = g.subgraph([])
        assert sub.n == 0 and verts.size == 0 and sub.xadj.tolist() == [0]
        assert nested_dissection(g).size == 0
        nb, counts = g.gather(np.empty(0, dtype=np.int64))
        assert nb.size == 0 and counts.size == 0

    def test_single_vertex(self):
        g = adjacency_from_matrix(diagonal(1))
        levels, order = bfs_levels(g, 0)
        assert levels.tolist() == [0] and order.tolist() == [0]
        assert [c.tolist() for c in connected_components(g)] == [[0]]
        assert pseudo_peripheral_vertex(g, 0)[0] == 0
        system = analyze(diagonal(1))
        assert system.perm.tolist() == [0] and system.symb.rows.tolist() == [0]

    @pytest.mark.parametrize("ordering", ["nd", "mindeg", "rcm", "natural"])
    def test_diagonal_matrix(self, ordering):
        # every BFS ends on an empty gather; every vertex is its own component
        n = 70  # above the nested-dissection leaf size
        g = adjacency_from_matrix(diagonal(n))
        levels, order = bfs_levels(g, 5)
        assert order.tolist() == [5] and levels[5] == 0 and (levels < 0).sum() == n - 1
        assert [c.tolist() for c in connected_components(g)] == [[v] for v in range(n)]
        system = analyze(diagonal(n), ordering=ordering)
        assert sorted(system.perm.tolist()) == list(range(n))
        assert system.symb.nsup == n and (system.symb.sn_parent == -1).all()
        assert all(c.size == 0 for c in system.symb.children())

    def test_star_duplicate_discoveries(self):
        # from the hub one frontier touches every vertex and the next gathers
        # the hub n - 1 times over; from a leaf the hub is a frontier of one
        n = 80
        g = adjacency_from_matrix(star(n))
        for root in (0, 7):
            levels, order = bfs_levels(g, root)
            ref_levels, ref_order = bfs_levels_ref(g, root)
            assert np.array_equal(levels, ref_levels) and np.array_equal(order, ref_order)
        assert sorted(analyze(star(n)).perm.tolist()) == list(range(n))

    def test_dense_frontier_duplicates(self):
        # a 9-point grid: most vertices are discovered by several frontier
        # vertices at once
        g = adjacency_from_matrix(grid_laplacian((9, 9), connectivity="box"))
        levels, order = bfs_levels(g, 40)
        ref_levels, ref_order = bfs_levels_ref(g, 40)
        assert np.array_equal(levels, ref_levels) and np.array_equal(order, ref_order)

    @pytest.mark.parametrize("method", ["best", "lex", "split"])
    def test_refine_without_merge(self, method):
        A = grid_laplacian((9, 8))
        base = analyze(A, merge=False, refine=False)
        refined = analyze(A, merge=False, refine=True, refine_method=method)
        assert np.array_equal(refined.symb.snptr, base.symb.snptr)
        assert_same_symb(refined.symb, symbolic_factorization(refined.matrix, base.symb.snptr))
        if method == "best":
            assert count_blocks(refined.symb) <= count_blocks(base.symb)

    def test_supernode_no_descendant_touches(self):
        # an arrow's tail is one supernode fed by every earlier column, its
        # head columns touch only the tail; a path's supernodes are touched
        # by exactly one row each; a diagonal's by none
        for A in (arrow_matrix(30, bandwidth=1, arrow_width=4), tridiagonal(12), diagonal(6)):
            symb = analyze(A, ordering="natural", refine=False).symb
            ptr, seg, col = _pivot_segments(symb)
            touch = pivot_segments_ref(symb)
            assert [int(ptr[s + 1] - ptr[s]) for s in range(symb.nsup)] == [
                sum(t.size for t in touch[s]) for s in range(symb.nsup)]
            assert any(not t for t in touch)  # some supernode is untouched
            for method in ("best", "lex", "split"):
                assert np.array_equal(partition_refinement(symb, method=method),
                                      partition_refinement_ref(symb, method))

    def test_mask_need_not_be_boolean_dtype(self):
        g = adjacency_from_matrix(tridiagonal(6))
        levels, order = bfs_levels(g, 0, mask=np.array([1, 1, 0, 1, 1, 1]))
        assert order.tolist() == [0, 1] and levels[3] == -1
