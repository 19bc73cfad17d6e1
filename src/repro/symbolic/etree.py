"""Elimination trees (Liu) and tree utilities.

The elimination tree of a symmetric matrix drives everything in supernodal
Cholesky: the column dependency order, supernode detection, column counts and
the supernodal assembly tree.  This module implements

* :func:`elimination_tree` — Liu's algorithm with ancestor path compression,
* :func:`postorder` — iterative depth-first postorder of a forest,
* helpers for tree heights, child lists and checking postorderedness.

References: J. W. H. Liu, "The role of elimination trees in sparse
factorization", SIAM J. Matrix Anal. Appl. 11(1), 1990 (paper's ref [2]).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "elimination_tree",
    "postorder",
    "children_lists",
    "etree_heights",
    "is_postordered",
    "first_descendants",
]


def _row_lists(A):
    """CSR-style arrays of the strictly-lower entries grouped by *row*.

    Returns ``(rowptr, cols)``: row ``i``'s below-diagonal column indices are
    ``cols[rowptr[i]:rowptr[i+1]]`` (ascending).
    """
    n = A.n
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr))
    rows = A.indices
    off = rows != cols
    r, c = rows[off], cols[off]
    order = np.lexsort((c, r))
    r, c = r[order], c[order]
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(rowptr, r + 1, 1)
    np.cumsum(rowptr, out=rowptr)
    return rowptr, c


def elimination_tree(A):
    """Elimination tree of symmetric ``A``.

    Returns ``parent`` (``int64``, length n) with ``parent[j] = -1`` for
    roots.  Liu's algorithm: for each row ``i``, walk up from every column
    ``k < i`` with ``a_ik != 0`` to the current root, path-compressing
    through an ``ancestor`` array.
    """
    n = A.n
    rowptr, rcols = (a.tolist() for a in _row_lists(A))  # plain ints: fast scalar walk
    parent = [-1] * n
    ancestor = [-1] * n
    for i in range(n):
        for k in rcols[rowptr[i]:rowptr[i + 1]]:
            # walk from k to the root of its current tree, compressing
            while True:
                a = ancestor[k]
                if a == i:
                    break
                ancestor[k] = i
                if a == -1:
                    parent[k] = i
                    break
                k = a
    return np.asarray(parent, dtype=np.int64)


def children_lists(parent):
    """Return ``(childptr, child)`` CSR arrays of each node's children,
    children sorted ascending (deterministic postorders)."""
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.argsort(parent[kids], kind="stable")]  # ascending per parent
    childptr = np.zeros(parent.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[kids], minlength=parent.size), out=childptr[1:])
    return childptr, kids


def postorder(parent):
    """Depth-first postorder of the forest.

    Returns ``post`` with ``post[k]`` = node visited k-th; children are
    visited in ascending node order, roots in ascending order.
    """
    n = parent.size
    childptr, child = (a.tolist() for a in children_lists(parent))
    post = []
    for root in np.flatnonzero(parent < 0).tolist():
        # iterative DFS; stack holds (node, next-child cursor)
        stack = [(root, childptr[root])]
        while stack:
            node, cursor = stack[-1]
            if cursor < childptr[node + 1]:
                stack[-1] = (node, cursor + 1)
                c = child[cursor]
                stack.append((c, childptr[c]))
            else:
                stack.pop()
                post.append(node)
    if len(post) != n:
        raise ValueError("parent array is not a forest (cycle detected)")
    return np.asarray(post, dtype=np.int64)


def is_postordered(parent):
    """True when every node's label exceeds all labels in its subtree,
    i.e. ``parent[j] > j`` for all non-roots."""
    j = np.arange(parent.size)
    ok = (parent < 0) | (parent > j)
    return bool(ok.all())


def etree_heights(parent):
    """Height of each node's subtree (leaves have height 0).

    Requires only that children precede parents numerically OR not; computed
    with an explicit bottom-up pass over a postorder.
    """
    n = parent.size
    heights = np.zeros(n, dtype=np.int64)
    for j in postorder(parent):
        p = parent[j]
        if p >= 0:
            heights[p] = max(heights[p], heights[j] + 1)
    return heights


def first_descendants(parent, post):
    """Postorder number of the first (deepest-leftmost) descendant of each
    node — the ``first`` array of the fast column-count algorithm."""
    parent, post = parent.tolist(), post.tolist()
    first = [-1] * len(parent)
    for k, j in enumerate(post):
        while j != -1 and first[j] == -1:
            first[j] = k
            j = parent[j]
    return np.asarray(first, dtype=np.int64)
