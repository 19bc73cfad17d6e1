"""Rank-k update / downdate of a supernodal Cholesky factor.

Given the factor ``L L^T = A`` held in
:class:`~repro.numeric.storage.FactorStorage`, sweep the panels of the
factor of ``A + W W^T`` (update) or ``A - W W^T`` (downdate) without
refactorizing — the classic Gill-Golub-Murray-Saunders sweep of (hyperbolic)
rotations, in its sparse form (Davis & Hager): only the columns on the
elimination-tree path from ``j0 = min struct(w)`` to the root are touched,
and no new fill is created when ``struct(w) \\ {j0}`` is contained in
``struct(L_{:,j0})`` — the factor's column structures nest along the path,
so containment at ``j0`` propagates.  The condition is checked up front
(:meth:`_Modification.require_contained`) and a clear ``ValueError`` names
the offending rows otherwise.

The sweep is blocked by supernode (Davis & Hager, TOMS 2009).  Each rank
runs after the previous one, over its own path, so rank k is k sequential
rank-1 sweeps bit for bit.  A path crosses a supernode in one *segment*,
columns ``j_in .. last`` of its panel; with carry ``z`` on the segment's
rows, diagonal block ``L11`` and below block ``L21`` (``±``: update /
downdate), one Python iteration per (rank, path supernode) does::

    p   = L11^{-1} z1,   t_0 = 1,   t_{j+1} = t_j ± p_j^2
    L[:, j] <- sqrt(t_j / t_{j+1}) L[:, j]
               ± p_j / sqrt(t_j t_{j+1}) (z - sum_{i<j} L[:, i] p_i)
    carry   <- (z2 - L21 p) / sqrt(t_end)          (on to the below rows)

— the Gill-Golub-Murray-Saunders rotations with ``s_j = p_j / sqrt(t_j)``
and ``c_j = sqrt(t_{j+1} / t_j)``, up to rounding.  The column sum runs as
one GEMM per :data:`_BLOCK` columns from the block's first row down, so only
a segment's lower trapezoid is touched.  A column where ``t ≤ 0`` or ``t``
is not finite (a zero or NaN pivot, an overflow) raises before its segment
is written.

:meth:`repro.api.Factor.update` is the one caller: it sweeps private
copies of the path's panels (copy-on-write), so a failed downdate discards
them and leaves its base exactly as it was.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemm, dger

from ..dense.kernels import NotPositiveDefiniteError, trtrs_lower
from ..symbolic.levels import path_tables
from ..symbolic.relind import _ranges

__all__ = ["column_structure"]


def column_structure(symb, j):
    """Row structure of factor column ``j`` below the diagonal: the
    supernode's remaining own columns plus its below-diagonal rows."""
    s = int(symb.col2sn[j])
    first, last = symb.snode_cols(s)
    own = np.arange(j + 1, last, dtype=np.int64)
    return np.concatenate((own, symb.snode_below_rows(s)))


def _columns(snptr, segments):
    """The columns ``j_in .. last`` of each ``(s, j_in)`` of ``segments``
    (ascending supernodes), concatenated: one array pass."""
    starts = np.array([j for _, j in segments], dtype=np.int64)
    counts = np.array([snptr[s + 1] for s, _ in segments], dtype=np.int64) - starts
    _, owner, within = _ranges(counts)
    return starts[owner] + within


def _walk(tables, j):
    """The ``(s, j_in)`` segments of the elimination-tree path from column
    ``j`` to its root: the path enters each supernode ``s`` it crosses at
    column ``j_in`` and runs to its last column (plain ints throughout)."""
    snptr, _, parent, exit_ = tables
    s = bisect_right(snptr, j) - 1
    segments = []
    while s >= 0:
        segments.append((s, j))
        j, s = exit_[s], parent[s]
    return segments


class _Modification(NamedTuple):
    """What one rank-k modification touches — see :func:`_modification_plan`.

    ``cols`` are the nonempty columns of ``W``, ``roots`` their entry columns
    ``j0 = min struct(W[:, r])``, ``paths[i]`` the elimination-tree path the
    sweep walks for ``cols[i]`` and ``segments[i]`` that path as the sweep
    reads it, one ``(s, c0, j_in, rows, below)`` per supernode it crosses:
    the path enters panel column ``c0`` (global column ``j_in``) and the
    carry lives on the panel's ``rows`` from there, then moves on to
    ``below``.  ``union`` is the paths' merged union (ascending) and
    ``snodes`` the supernodes it touches (ascending ``int`` tuple).
    ``uncontained`` is ``None`` when every column passes the no-new-fill
    check, else ``(r, j0, rows)`` of the first column ``r`` that fails.
    """

    cols: tuple
    roots: tuple
    paths: tuple
    segments: tuple
    union: np.ndarray
    snodes: tuple
    uncontained: tuple | None

    def require_contained(self):
        """Raise the containment ``ValueError`` if a column failed."""
        if self.uncontained is None:
            return
        r, j0, outside = self.uncontained
        raise ValueError(
            f"rank-1 vector (column {r} of W) has entries at rows "
            f"{outside[:5].tolist()} outside struct(L[:, {j0}]) — the "
            "modification would create new fill; refactorize instead"
        )


def _modification_plan(symb, W):
    """Everything a consumer of the modification ``A ± W W^T`` derives from
    the pattern of ``W`` (``(n, k)``, factor ordering, values ignored), once:
    per column the entry column, the containment verdict, the path and its
    segments; the merged union; the touched supernodes.  The paths are
    walked over the memoised plain-int
    :func:`~repro.symbolic.levels.path_tables`.  The sweep, the
    copy-on-write of :meth:`repro.api.Factor.update` and the pricing of
    :func:`repro.update.crossover.update_cost` all read the returned
    :class:`_Modification`."""
    tables = path_tables(symb)
    snptr, rowptr, _, exit_ = tables
    rows = symb.rows
    cols, roots, paths, segments = [], [], [], []
    entry = {}  # earliest column through which any path enters each supernode
    uncontained = None
    for r in range(W.shape[1]):
        nz = np.flatnonzero(W[:, r])
        if nz.size == 0:
            continue  # identity column
        j0 = int(nz[0])
        walk = _walk(tables, j0)
        if uncontained is None:
            # struct(L[:, j0]) is the rest of its supernode's sorted rows
            s = walk[0][0]
            struct, rest = rows[rowptr[s] + j0 - snptr[s] + 1 : rowptr[s + 1]], nz[1:]
            found = np.zeros(rest.size, dtype=bool)
            if struct.size:
                found = struct[np.minimum(np.searchsorted(struct, rest), struct.size - 1)] == rest
            if not found.all():
                uncontained = (r, j0, rest[~found])
        cols.append(r)
        roots.append(j0)
        paths.append(_columns(snptr, walk))
        segs = []
        for s, j in walk:
            c0, lo, hi = j - snptr[s], rowptr[s], rowptr[s + 1]
            segs.append((s, c0, j, rows[lo + c0 : hi], rows[lo + snptr[s + 1] - snptr[s] : hi]))
            entry[s] = min(entry.get(s, j), j)
        segments.append(tuple(segs))
    union = sorted(entry.items())
    return _Modification(tuple(cols), tuple(roots), tuple(paths), tuple(segments),
                         _columns(snptr, union), tuple(s for s, _ in union), uncontained)


_BLOCK = 64  #: columns per GEMM of a segment's rewrite
_STRICT_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)


def _sweep_segment(panel, c0, z, sign, j_in):
    """Sweep one carry ``z`` (on the panel rows ``c0:``) over the segment of
    columns ``c0:`` of ``panel``, in place; returns the carry for the below
    rows.  ``j_in`` is column ``c0``'s index, to name a failure."""
    w = panel.shape[1]
    nseg = w - c0
    rhs = np.zeros(w)  # solve on the whole panel (no copy): c0 leading zeros
    rhs[c0:] = z[:nseg]
    try:
        p = trtrs_lower(panel, rhs)[c0:]
    except np.linalg.LinAlgError:  # an exactly-zero pivot
        raise NotPositiveDefiniteError(j_in - c0 + int(np.argmin(np.diagonal(panel) != 0)))
    t = np.cumsum(p * p)  # t[j] is t_{j+1}: monotone, so t[-1] decides
    t *= sign
    t += 1.0
    if not 0.0 < t[-1] < math.inf:
        raise NotPositiveDefiniteError(j_in + int(np.argmin((t > 0.0) & np.isfinite(t))))
    t_in = np.concatenate(([1.0], t[:-1]))
    a, b = np.sqrt(t_in / t), sign * p / np.sqrt(t_in * t)
    v = z  # z - sum_{i < b0} L[:, i] p_i on the rows b0: of the segment
    for b0 in range(0, nseg, _BLOCK):
        b1 = min(b0 + _BLOCK, nseg)
        bw = b1 - b0
        blk = panel[c0 + b0:, c0 + b0:c0 + b1]
        pb, bb = p[b0:b1], b[b0:b1]
        # T's row j < bw: a_j at j, -b_j p_i at i < j; row bw: p (the carry step)
        T = np.empty((bw + 1, bw))
        np.multiply(np.multiply.outer(bb, -pb), _STRICT_UPPER[:bw, :bw].T, out=T[:bw])
        T.ravel()[:bw * (bw + 1):bw + 1] = a[b0:b1]
        T[bw] = pb
        # scipy's BLAS, like trtrs and dger: alternating with numpy's own
        # BLAS pool, the two pools' idle threads spin against each other
        X = dgemm(1.0, blk, T.T)
        new = dger(1.0, v[b0:], bb, a=X[:, :bw], overwrite_a=1)  # + v b^T
        v[b1:] -= X[bw:, bw]
        np.copyto(new[:bw], blk[:bw], where=_STRICT_UPPER[:bw, :bw])
        blk[...] = new
    return v[nseg:] / math.sqrt(t[-1])


def _sweep(storage, W, mod, sign):
    """Sweep each rank's carry ``W[:, r]`` (mutated) along its own path,
    one :func:`_sweep_segment` per segment of ``mod.segments``; raises
    :class:`NotPositiveDefiniteError` at the offending column, the panels
    swept as far as it got (the caller discards its private copies)."""
    for r, segments in zip(mod.cols, mod.segments):
        for s, c0, j_in, rows, below in segments:
            W[below, r] = _sweep_segment(storage.panel(s), c0, W[rows, r], sign, j_in)
