"""Column counts of the Cholesky factor, without forming its structure.

``column_counts`` implements the Gilbert–Ng–Peyton skeleton/least-common-
ancestor algorithm (the one in CSparse's ``cs_counts``), which runs in nearly
O(|A|) time: each strictly-lower entry ``a_ij`` is tested for being a leaf of
the row subtree ``T_i`` via first-descendant numbers, and overlap between
consecutive leaves is subtracted at their LCA (found with path compression).
The walk, first descendants included, is one call into the compiled analysis
loops (``numeric/_analysis.c``) where a library could be built, the Python
loop below where not: the same counts.
"""

from __future__ import annotations

import numpy as np

from ..numeric import _native
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
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    if parent.shape != (n,):
        raise ValueError(f"parent must have shape ({n},), got {parent.shape}")
    post = postorder(parent) if post is None else np.ascontiguousarray(post, dtype=np.int64)
    if post.shape != (n,):
        raise ValueError(f"post must have shape ({n},), got {post.shape}")
    loops = _native.analysis_loops()
    if loops is not None:
        counts, work = np.empty(n, dtype=np.int64), np.empty(4 * n, dtype=np.int64)
        loops.col_counts(n, parent, post, A.indptr, A.indices, counts, work)
        return counts
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
