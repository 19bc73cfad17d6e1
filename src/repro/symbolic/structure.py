"""Supernodal symbolic factorization: row structures and storage layout.

Given a (postordered, permuted) matrix and a supernode partition — any
partition into column chains, including relaxed/merged ones — this computes,
bottom-up over the supernodal elimination tree,

* ``rowind(J)``: the sorted row indices of supernode ``J``'s dense panel
  (its own columns followed by the below-diagonal rows),
* the supernodal elimination tree (``sn_parent``),
* the dense trapezoidal storage layout of the factor.

The recurrence is exact for fundamental supernodes and a (tight) superset
for relaxed ones::

    below(J) = ( ⋃_{children C} below(C)  ∪  A-rows of cols(J) )  \\  {rows ≤ last(J)}

The recurrence is evaluated array-at-a-time, one tree level per step
(:func:`symbolic_factorization`), not one supernode at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..sparse.csc import SymmetricCSC
from ..sparse.permute import invert_permutation
from .etree import children_lists, elimination_tree
from .supernodes import snode_of_column, validate_snptr

__all__ = ["SymbolicFactor", "symbolic_factorization", "pattern_fingerprint"]


def pattern_digest(n, *arrays):
    """Stable 64-bit hex digest of integer index arrays describing a
    sparsity structure.

    The digest covers ``n`` plus each array's length and ``int64`` byte
    content (SHA-256, truncated to 16 hex characters), so it is stable
    across processes, platforms and NumPy versions — unlike ``hash()`` —
    and collision-safe enough to key caches that *also* verify the pattern
    on use (the staged API validates ``indptr``/``indices`` equality when
    values are pushed through a plan, so a collision can never silently
    mix patterns).
    """
    h = hashlib.sha256()
    h.update(f"repro-pattern-v1:{int(n)}".encode())
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype=np.int64)
        h.update(str(a.size).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def pattern_fingerprint(A):
    """Stable fingerprint of ``A``'s sparsity pattern.

    ``A`` is anything with ``n`` / ``indptr`` / ``indices`` attributes
    (a :class:`~repro.sparse.csc.SymmetricCSC`); the returned 16-hex-char
    string depends only on the *pattern* — every same-pattern matrix maps
    to the same fingerprint, values never enter the hash.  This is the
    request key of the multi-tenant serving gateway
    (:class:`repro.serving.Gateway`): clients that know their pattern is
    already warm can skip shipping the structure arrays entirely and
    submit values under the fingerprint alone.

    The symbolic pipeline is deterministic, so equal pattern fingerprints
    imply equal orderings, equal permuted patterns and interchangeable
    :class:`~repro.api.SymbolicPlan` objects (for fixed ``analyze``
    options).  :attr:`repro.api.SymbolicPlan.fingerprint` is the related
    *plan* identity: a hash of the permuted pattern and its permutation,
    which additionally distinguishes plans built with different orderings.
    """
    return pattern_digest(A.n, A.indptr, A.indices)


@dataclass
class SymbolicFactor:
    """Symbolic description of a supernodal Cholesky factor.

    Attributes
    ----------
    n:
        Matrix dimension.
    snptr:
        Supernode column boundaries (``nsup + 1``).
    sn_parent:
        Supernodal elimination tree (``-1`` for roots).
    rowptr / rows:
        Concatenated per-supernode row index lists: supernode ``s`` owns rows
        ``rows[rowptr[s]:rowptr[s+1]]`` (sorted; the first ``ncols(s)`` are
        its own columns).
    col2sn:
        Column → supernode map.
    """

    n: int
    snptr: np.ndarray
    sn_parent: np.ndarray
    rowptr: np.ndarray
    rows: np.ndarray
    col2sn: np.ndarray
    _panel_offsets: np.ndarray = field(default=None, repr=False)
    _cache: dict = field(default=None, repr=False, compare=False)

    # -- basic queries ---------------------------------------------------
    @property
    def nsup(self):
        """Number of supernodes."""
        return int(self.snptr.size - 1)

    def cache(self):
        """Dictionary of derived index structures (scatter plans, relative
        index maps, block lists) memoised against this symbolic factor.

        The structure arrays are immutable after construction, so cached
        entries never need invalidation; consumers key their own namespaces
        (e.g. ``"scatter_plan"``, ``"assembly_index"``).
        """
        if self._cache is None:
            self._cache = {}
        return self._cache

    def snode_cols(self, s):
        """``(first, last+1)`` column range of supernode ``s``."""
        return int(self.snptr[s]), int(self.snptr[s + 1])

    def snode_ncols(self, s):
        """Number of columns of supernode ``s``."""
        return int(self.snptr[s + 1] - self.snptr[s])

    def snode_rows(self, s):
        """Sorted row indices of supernode ``s``'s panel (a view)."""
        return self.rows[self.rowptr[s]:self.rowptr[s + 1]]

    def snode_below_rows(self, s):
        """Row indices strictly below the diagonal block (a view)."""
        w = self.snode_ncols(s)
        return self.rows[self.rowptr[s] + w:self.rowptr[s + 1]]

    def panel_shape(self, s):
        """``(nrows, ncols)`` of supernode ``s``'s dense panel."""
        return (int(self.rowptr[s + 1] - self.rowptr[s]), self.snode_ncols(s))

    def panel_size(self, s):
        """Number of entries of the dense panel (rows × cols) — the paper's
        "supernode size" used by the CPU/GPU threshold."""
        m, w = self.panel_shape(s)
        return m * w

    def panel_offsets(self):
        """Entry offset of every panel in one flat arena holding the
        F-ordered ``(m, w)`` panels back to back (``nsup + 1`` entries, the
        last is the arena's size) — the layout of
        :class:`~repro.numeric.storage.FactorStorage` and the base of the
        flat assembly index (:mod:`repro.symbolic.relind`)."""
        if self._panel_offsets is None:
            sizes = np.diff(self.rowptr) * np.diff(self.snptr)
            self._panel_offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        return self._panel_offsets

    # -- aggregate statistics ---------------------------------------------
    def factor_nnz_dense(self):
        """Entries of the trapezoidal dense panels (= stored factor size,
        including any explicit zeros introduced by relaxed merging)."""
        m = np.diff(self.rowptr)
        w = np.diff(self.snptr)
        return int(np.sum(m * w - w * (w - 1) // 2))

    def largest_update_size(self):
        """Entries of the largest RL update matrix, ``max_s b_s^2`` with
        ``b_s`` the below-diagonal row count — what must fit on the GPU (and
        what overflows it for nlpkkt120 in the paper)."""
        m = np.diff(self.rowptr)
        w = np.diff(self.snptr)
        b = m - w
        return int(np.max(b * b)) if b.size else 0

    def factor_flops(self):
        """Total factorization flops over the dense panels (potrf + trsm +
        syrk), the standard supernodal flop count."""
        w = np.diff(self.snptr)
        b = np.diff(self.rowptr) - w
        return int(np.sum(w ** 3 // 3 + w ** 2 * b + w * b * b))

    def children(self):
        """List of child-supernode index arrays per supernode."""
        childptr, child = children_lists(self.sn_parent)
        return np.split(child, childptr[1:-1])

    def relabel(self, perm):
        """The symbolic factor after permuting columns *inside* supernodes.

        ``perm`` (``perm[k]`` = current index placed at position ``k``) must
        be block-diagonal in ``snptr``, as
        :func:`~repro.symbolic.partition_refinement.partition_refinement`
        returns (``ValueError`` otherwise).  Such a permutation renames rows
        without changing any supernode's row *set*, so the result equals
        ``symbolic_factorization`` of the permuted matrix: only ``rows``
        moves, re-sorted inside each panel.
        """
        if not np.array_equal(self.col2sn[perm], self.col2sn):
            raise ValueError("perm moves columns between supernodes")
        panel = np.repeat(np.arange(self.nsup), np.diff(self.rowptr))
        rows = invert_permutation(perm)[self.rows]
        return SymbolicFactor(n=self.n, snptr=self.snptr, sn_parent=self.sn_parent,
                              rowptr=self.rowptr, rows=rows[np.lexsort((rows, panel))],
                              col2sn=self.col2sn)


def symbolic_factorization(A, snptr):
    """Compute the :class:`SymbolicFactor` of ``A`` for partition ``snptr``.

    ``A`` must already carry its final ordering (fill-reducing permutation +
    postorder [+ within-supernode refinement] applied).  Any partition: the
    tree is the elimination tree of ``A`` with each supernode contracted.
    """
    n = A.n
    snptr = np.ascontiguousarray(snptr, dtype=np.int64)
    validate_snptr(snptr, n)
    nsup = snptr.size - 1
    # the quotient graph's lower pattern: (supernode of row, supernode of column)
    key = _sorted_unique(np.repeat(np.arange(nsup) * nsup, np.diff(A.indptr[snptr]))
                         + snode_of_column(snptr, n)[A.indices])
    col = key // nsup
    quotient = SymmetricCSC(nsup, np.searchsorted(col, np.arange(nsup + 1)),
                            key - col * nsup, np.ones(key.size), check=False)
    return _supernodal_structure(A, snptr, elimination_tree(quotient))


def _supernodal_structure(A, snptr, sn_parent):
    """:func:`symbolic_factorization` given the supernodal tree: one pass
    up it, a level (depth) at a time, deepest first.  The rows of ``A``'s
    entries below their supernode's columns climb, joining every panel on
    the way to their own supernode; each level's rows, as keys
    ``supernode * n + row``, are sorted and deduplicated together."""
    n, nsup = A.n, snptr.size - 1
    col2sn = snode_of_column(snptr, n)
    up, depth = sn_parent.tolist(), [0] * nsup  # a parent's id exceeds its children's
    for s in range(nsup - 1, -1, -1):
        if up[s] >= 0:
            depth[s] = depth[up[s]] + 1
    per_sn = np.diff(A.indptr[snptr])
    below = A.indices >= np.repeat(snptr[1:], per_sn)
    keys = _sorted_unique((np.repeat(np.arange(nsup) * n, per_sn) + A.indices)[below])
    level = np.asarray(depth, dtype=np.int64)[keys // n]
    levels = np.split(keys[np.argsort(-level, kind="stable")],
                      np.cumsum(np.bincount(level, minlength=1)[::-1])[:-1])
    end_up = np.where(sn_parent >= 0, snptr[1:][sn_parent], n)  # roots pass nothing
    climbing = keys[:0]
    for k, keys in enumerate(levels):
        levels[k] = keys = _sorted_unique(np.concatenate((keys, climbing)))
        s = keys // n
        on = keys - s * n >= end_up[s]
        climbing = keys[on] + (sn_parent[s[on]] - s[on]) * n  # re-keyed to the parent
    keys = np.sort(np.concatenate((*levels, col2sn * n + np.arange(n))))
    s = keys // n
    rowptr = np.concatenate(([0], np.cumsum(np.bincount(s, minlength=nsup))))
    return SymbolicFactor(n=n, snptr=snptr, sn_parent=sn_parent,
                          rowptr=rowptr, rows=keys - s * n, col2sn=col2sn)


def _sorted_unique(keys):
    """``np.unique`` of a 1-D ``keys`` by one sort and one comparison: 2x
    faster at 50 keys, 16x at 2 000 (``np.diff(prepend=)`` alone costs
    more than ``np.unique`` on a small array)."""
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]
