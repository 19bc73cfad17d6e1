"""Column counts of the Cholesky factor, without forming its structure.

``column_counts`` implements the Gilbert–Ng–Peyton skeleton/least-common-
ancestor algorithm (the one in CSparse's ``cs_counts``), which runs in nearly
O(|A|) time: each strictly-lower entry ``a_ij`` is tested for being a leaf of
the row subtree ``T_i`` via first-descendant numbers, and overlap between
consecutive leaves is subtracted at their LCA (found with path compression).
"""

from __future__ import annotations

import numpy as np

from .etree import first_descendants, postorder

__all__ = ["column_counts"]


def column_counts(A, parent, post=None):
    """Counts ``|struct(L_{*,j})|`` (including the diagonal) for each j.

    Parameters
    ----------
    A:
        :class:`~repro.sparse.csc.SymmetricCSC` (lower triangle).
    parent:
        Elimination tree of ``A``.
    post:
        Optional postorder of ``parent`` (computed when omitted).
    """
    n = A.n
    if post is None:
        post = postorder(parent)
    first = first_descendants(parent, post).tolist()
    # delta[j] = 1 iff j is a leaf of the elimination tree
    delta = (np.bincount(parent[parent >= 0], minlength=n) == 0).astype(np.int64).tolist()
    # the scalar walk below runs on plain ints
    parent, post = parent.tolist(), post.tolist()
    maxfirst = [-1] * n
    prevleaf = [-1] * n
    ancestor = list(range(n))
    indptr, indices = A.indptr.tolist(), A.indices.tolist()
    for j in post:
        if parent[j] != -1:
            delta[parent[j]] -= 1  # child subtree overlaps parent's diagonal
        for i in indices[indptr[j] + 1:indptr[j + 1]]:  # strictly-lower of col j
            if first[j] > maxfirst[i]:
                # j is a new leaf of the row subtree T_i
                delta[j] += 1
                maxfirst[i] = first[j]
                q = prevleaf[i]
                if q != -1:
                    # LCA(prevleaf[i], j) via path compression on `ancestor`
                    r = q
                    while r != ancestor[r]:
                        r = ancestor[r]
                    # compress the path q -> r
                    while q != r:
                        ancestor[q], q = r, ancestor[q]
                    delta[r] -= 1  # subtract the overlap counted twice
                prevleaf[i] = j
        if parent[j] != -1:
            ancestor[j] = parent[j]
    counts = delta
    for j in post:
        if parent[j] != -1:
            counts[parent[j]] += counts[j]
    return np.asarray(counts, dtype=np.int64)
