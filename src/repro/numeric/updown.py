"""Rank-k update / downdate of a supernodal Cholesky factor.

Given the factor ``L L^T = A`` held in
:class:`~repro.numeric.storage.FactorStorage`, compute in place the factor
of ``A + W W^T`` (update) or ``A - W W^T`` (downdate) without
refactorizing — the classic Gill-Golub-Murray-Saunders sweep of (hyperbolic)
rotations, in its sparse form (Davis & Hager): only the columns on the
elimination-tree path from ``j0 = min struct(w)`` to the root are touched,
and no new fill is created when ``struct(w) \\ {j0}`` is contained in
``struct(L_{:,j0})`` — the factor's column structures nest along the path,
so containment at ``j0`` propagates.  The condition is checked up front and
a clear ``ValueError`` names the offending rows otherwise.

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

Both entry points are *atomic*: the affected panels are snapshotted up
front and restored before a
:class:`~repro.dense.kernels.NotPositiveDefiniteError` propagates, so a
failed downdate leaves the factor exactly as it was.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemm, dger

from ..dense.kernels import NotPositiveDefiniteError, check_finite, trtrs_lower
from ..solve.sparse_rhs import solve_reach

__all__ = [
    "rank1_update",
    "rank_k_update",
    "affected_columns",
    "column_structure",
    "path_union",
]


def column_structure(symb, j):
    """Row structure of factor column ``j`` below the diagonal: the
    supernode's remaining own columns plus its below-diagonal rows."""
    s = int(symb.col2sn[j])
    first, last = symb.snode_cols(s)
    own = np.arange(j + 1, last, dtype=np.int64)
    return np.concatenate((own, symb.snode_below_rows(s)))


def path_union(symb, roots):
    """Merged elimination-tree path columns for entry columns ``roots``.

    The union of the column paths root -> tree root, ascending.  Vectorized
    through :func:`~repro.solve.sparse_rhs.solve_reach`: the touched
    supernodes are the reach of ``roots`` under ``sn_parent``, and within
    each reached supernode the path occupies the contiguous column range
    from its earliest entry point to the supernode's last column, so one
    ascending walk propagating entry columns recovers the exact column set
    without any per-column recomputation.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if roots.size == 0:
        return np.empty(0, dtype=np.int64)
    reached = solve_reach(symb, roots)
    # earliest column through which the path enters each reached supernode
    entry = np.full(symb.nsup, symb.n, dtype=np.int64)
    np.minimum.at(entry, symb.col2sn[roots], roots)
    cols = []
    for s in reached:
        s = int(s)
        _first, last = symb.snode_cols(s)
        j_in = int(entry[s])
        cols.append(np.arange(j_in, last, dtype=np.int64))
        below = symb.snode_below_rows(s)
        if below.size:
            # the path exits at the first below-diagonal row, which lives in
            # sn_parent[s]; parents have larger indices, so the ascending
            # walk sees every entry point before consuming it
            p = int(symb.col2sn[below[0]])
            entry[p] = min(entry[p], int(below[0]))
    return np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)


def affected_columns(symb, w_pattern):
    """Columns a rank-1 modification with pattern ``w_pattern`` touches:
    the elimination-tree path from ``min(w_pattern)`` to its root."""
    w_pattern = np.asarray(w_pattern)
    if w_pattern.size == 0:
        return []
    return path_union(symb, [int(w_pattern.min())]).tolist()


class _Modification(NamedTuple):
    """What one rank-k modification touches — see :func:`_modification_plan`.

    ``cols`` are the nonempty columns of ``W``, ``roots`` their entry columns
    ``j0 = min struct(W[:, r])``, ``paths[i]`` the elimination-tree path the
    sweep walks for ``cols[i]``, ``union`` their merged union (ascending)
    and ``snodes`` the supernodes it touches.  ``uncontained`` is
    ``None`` when every column passes the no-new-fill check, else ``(r, j0,
    rows)`` of the first column ``r`` that fails.
    """

    cols: tuple
    roots: tuple
    paths: tuple
    union: np.ndarray
    snodes: np.ndarray
    uncontained: tuple | None

    def require_contained(self, name_column=True):
        """Raise the containment ``ValueError`` if a column failed."""
        if self.uncontained is None:
            return
        r, j0, outside = self.uncontained
        which = f" (column {r} of W)" if name_column else ""
        raise ValueError(
            f"rank-1 vector{which} has entries at rows "
            f"{outside[:5].tolist()} outside struct(L[:, {j0}]) — the "
            "modification would create new fill; refactorize instead"
        )


def _modification_plan(symb, W, check=True):
    """Everything a consumer of the modification ``A ± W W^T`` derives from
    the pattern of ``W`` (``(n, k)``, factor ordering, values ignored), once:
    per column the entry column, the containment verdict (skipped with
    ``check=False``) and the path; the merged union; the touched supernodes.
    The sweep, the copy-on-write of :meth:`repro.api.Factor.update` and the
    pricing of :func:`repro.update.crossover.update_cost` all read the
    returned :class:`_Modification`."""
    cols, roots, paths = [], [], []
    uncontained = None
    for r in range(W.shape[1]):
        nz = np.flatnonzero(W[:, r])
        if nz.size == 0:
            continue  # identity column
        j0 = int(nz[0])
        if check and uncontained is None:
            outside = np.setdiff1d(nz[1:], column_structure(symb, j0))
            if outside.size:
                uncontained = (r, j0, outside)
        cols.append(r)
        roots.append(j0)
        paths.append(path_union(symb, [j0]))
    union = np.unique(np.concatenate(paths)) if paths else np.empty(0, dtype=np.int64)
    return _Modification(tuple(cols), tuple(roots), tuple(paths), union,
                         np.unique(symb.col2sn[union]), uncontained)


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
    one :func:`_sweep_segment` per supernode the path crosses; raises
    :class:`NotPositiveDefiniteError` at the offending column (the caller
    restores its snapshot)."""
    symb = storage.symb
    for r, path in zip(mod.cols, mod.paths):
        sn = symb.col2sn[path]
        enter = np.flatnonzero(np.r_[True, sn[1:] != sn[:-1]])
        for s, j_in in zip(sn[enter].tolist(), path[enter].tolist()):
            c0 = j_in - int(symb.snptr[s])
            rows = symb.snode_rows(s)[c0:]
            carry = _sweep_segment(storage.panel(s), c0, W[rows, r], sign, j_in)
            W[symb.snode_below_rows(s), r] = carry


def _run_atomic(storage, W, mod, downdate, snapshot):
    """Sweep the carry vectors ``W`` (mutated) along ``mod.paths``,
    restoring the touched panels on failure when ``snapshot``."""
    saved = None
    if snapshot:
        saved = {s: storage.panel(s).copy() for s in mod.snodes.tolist()}
    try:
        _sweep(storage, W, mod, -1.0 if downdate else 1.0)
    except NotPositiveDefiniteError:
        if saved is not None:
            for s, panel in saved.items():
                storage.panel(s)[...] = panel
        raise


def _modify(storage, W, downdate, check_structure, snapshot, name_column):
    """The in-place entry points after shape validation: refuse non-finite
    values, plan, check containment, sweep ``W`` (a private copy)."""
    mod = _modification_plan(storage.symb, check_finite(W, "update vectors"), check_structure)
    mod.require_contained(name_column)
    _run_atomic(storage, W, mod, downdate, snapshot)
    return mod.union.tolist()


def rank1_update(storage, w, *, downdate=False, check_structure=True, snapshot=True):
    """In-place rank-1 update (``A + w w^T``) or downdate (``A - w w^T``).

    Parameters
    ----------
    storage:
        The factor to modify (any engine's output).
    w:
        Dense ``(n,)`` vector; its *nonzero pattern* determines the affected
        elimination-tree path.
    downdate:
        Subtract instead of add.  Raises
        :class:`~repro.dense.kernels.NotPositiveDefiniteError` if the
        downdated matrix is not positive definite.
    check_structure:
        Verify the no-new-fill condition
        ``struct(w) \\ {j0} ⊆ struct(L_{:,j0})`` (``ValueError`` otherwise).
    snapshot:
        Snapshot the affected panels up front and restore them before a
        ``NotPositiveDefiniteError`` propagates, making the call atomic.
        Callers sweeping private panel copies may disable it.

    Returns
    -------
    list of affected column indices (the elimination-tree path from ``j0``).
    """
    symb = storage.symb
    w = np.array(w, dtype=np.float64, copy=True)
    if w.shape != (symb.n,):
        raise ValueError("w must have shape (n,)")
    return _modify(storage, w[:, None], downdate, check_structure, snapshot, name_column=False)


def rank_k_update(storage, W, *, downdate=False, check_structure=True, snapshot=True):
    """In-place rank-k update (``A + W W^T``) or downdate (``A - W W^T``).

    Sweeps the k columns of ``W`` one after the other, each over its own
    elimination-tree path, one supernode segment at a time.  Bitwise
    identical to k sequential :func:`rank1_update` calls (see the module
    docstring), and atomic on failure like them.

    Parameters
    ----------
    storage:
        The factor to modify (any engine's output).
    W:
        Dense ``(n, k)`` matrix (a ``(n,)`` vector is treated as rank 1);
        each column's nonzero pattern determines its elimination-tree path.
    downdate, check_structure, snapshot:
        As for :func:`rank1_update`; the containment check runs per column
        *before* any panel is touched.

    Returns
    -------
    list of affected column indices — the merged path union, ascending.
    """
    symb = storage.symb
    W = np.array(W, dtype=np.float64, copy=True)
    if W.ndim == 1:
        W = W[:, None]
    if W.ndim != 2 or W.shape[0] != symb.n:
        raise ValueError("W must have shape (n,) or (n, k)")
    return _modify(storage, W, downdate, check_structure, snapshot, name_column=True)
