"""Symmetric permutations of :class:`~repro.sparse.csc.SymmetricCSC` matrices.

Given a permutation vector ``perm`` (``perm[k]`` = original index of the row
or column that lands at position ``k``), :func:`symmetric_permute` forms
``B = P A P^T`` keeping only the lower triangle, entirely with vectorised
NumPy index arithmetic (the guide's "vectorise the bookkeeping" idiom).

Also provides permutation-vector utilities shared by the ordering and
symbolic packages.
"""

from __future__ import annotations

import numpy as np

from .csc import SymmetricCSC

__all__ = [
    "symmetric_permute",
    "permutation_gather",
    "invert_permutation",
    "is_permutation",
    "compose_permutations",
    "random_permutation",
]


def is_permutation(perm, n=None):
    """Return ``True`` when ``perm`` is a permutation of ``0..len(perm)-1``
    (and of length ``n`` when given)."""
    perm = np.asarray(perm)
    if n is not None and perm.size != n:
        return False
    if perm.ndim != 1:
        return False
    seen = np.zeros(perm.size, dtype=bool)
    ok = (perm >= 0) & (perm < perm.size)
    if not ok.all():
        return False
    seen[perm] = True
    return bool(seen.all())


def invert_permutation(perm):
    """Return ``iperm`` with ``iperm[perm[k]] == k``."""
    perm = np.asarray(perm, dtype=np.int64)
    iperm = np.empty_like(perm)
    iperm[perm] = np.arange(perm.size, dtype=np.int64)
    return iperm


def compose_permutations(outer, inner):
    """Return the permutation applying ``inner`` first, then ``outer``.

    With the ``perm[k] = original index at position k`` convention the
    composition is ``inner[outer[k]]``: position ``k`` of the final ordering
    holds position ``outer[k]`` of the intermediate ordering, which holds
    original index ``inner[outer[k]]``.
    """
    outer = np.asarray(outer, dtype=np.int64)
    inner = np.asarray(inner, dtype=np.int64)
    if outer.size != inner.size:
        raise ValueError("permutation length mismatch")
    return inner[outer]


def random_permutation(n, rng):
    """Random permutation of ``0..n-1`` from the given ``numpy`` Generator."""
    return rng.permutation(n).astype(np.int64)


def _permuted_entries(A, perm):
    """Internal: ``(order, rows, cols)`` of ``P A P^T``'s stored entries.

    ``order`` gathers ``A.data`` into the permuted matrix's CSC entry order;
    ``rows`` / ``cols`` are the already-gathered lower-triangle coordinates.
    """
    perm = np.asarray(perm, dtype=np.int64)
    if not is_permutation(perm, A.n):
        raise ValueError("perm is not a permutation of 0..n-1")
    iperm = invert_permutation(perm)
    # new coordinates of every stored (row, col) entry
    cols = np.repeat(np.arange(A.n, dtype=np.int64), np.diff(A.indptr))
    new_r = iperm[A.indices]
    new_c = iperm[cols]
    lo = np.maximum(new_r, new_c)
    hi = np.minimum(new_r, new_c)
    order = np.argsort(hi * A.n + lo, kind="stable")  # one sort, column-major
    return order, lo[order], hi[order]


def permutation_gather(A, perm):
    """Data-gather index of the symmetric permutation.

    Returns ``g`` with ``symmetric_permute(A, perm).data == A.data[g]`` —
    the permuted matrix's values are a pure gather of the original's.
    :class:`repro.api.SymbolicPlan` caches this to push new numeric values
    through a fixed ordering without redoing any structural work.
    """
    order, _, _ = _permuted_entries(A, perm)
    return order


def symmetric_permute(A, perm):
    """Return ``P A P^T`` as a new :class:`SymmetricCSC`.

    ``perm[k]`` is the original index placed at position ``k``; equivalently
    ``B[i, j] = A[perm[i], perm[j]]``.
    """
    order, rows, cols2 = _permuted_entries(A, perm)
    vals = A.data[order]
    indptr = np.zeros(A.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols2, minlength=A.n), out=indptr[1:])
    return SymmetricCSC(A.n, indptr, rows, vals, check=False)
