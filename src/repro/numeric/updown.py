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

This is the standard "many solves against a slowly changing matrix"
workflow (optimization re-weighting, sliding-window least squares) that
motivates keeping a factorization live instead of recomputing — a natural
companion feature for the paper's solver.

Per affected column ``j`` (update; downdate flips the inner signs)::

    r   = sqrt(L_jj^2 + w_j^2)
    c   = r / L_jj,   s = w_j / L_jj
    L_jj        = r
    L_below,j   = (L_below,j + s * w_below) / c
    w_below     = c * w_below - s * L_below,j     (updated column)

Rank k sweeps the k columns of ``W`` over the *merged* path union in one
ascending pass with an inner loop over the ranks.  Because each rotation at
column ``j`` reads and writes only panel column ``j`` and its own carry
vector ``w_r``, the interleaved order is bitwise identical to k sequential
rank-1 sweeps — the determinism contract the rest of the runtime keeps.

Both entry points are *atomic*: the affected panels are snapshotted up
front and restored before a
:class:`~repro.dense.kernels.NotPositiveDefiniteError` propagates, so a
failed downdate leaves the factor exactly as it was.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..dense.kernels import NotPositiveDefiniteError, check_finite
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

    ``roots`` are the entry columns ``j0 = min struct(W[:, r])`` of the
    nonempty columns of ``W``; ``paths[i]`` is the elimination-tree path of
    ``roots[i]``, ``union`` their merged union (ascending — what the sweep
    walks) and ``snodes`` the supernodes it touches.  ``uncontained`` is
    ``None`` when every column passes the no-new-fill check, else ``(r, j0,
    rows)`` of the first column ``r`` that fails.
    """

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
    roots, paths = [], []
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
        roots.append(j0)
        paths.append(path_union(symb, [j0]))
    union = np.unique(np.concatenate(paths)) if paths else np.empty(0, dtype=np.int64)
    return _Modification(tuple(roots), tuple(paths), union,
                         np.unique(symb.col2sn[union]), uncontained)


def _sweep(storage, W, path, sign):
    """Apply the GGMS rotations of every column of ``W`` along ``path``.

    Mutates ``storage`` panels and the carry vectors in ``W`` in place;
    raises :class:`NotPositiveDefiniteError` at the offending pivot (the
    caller restores its snapshot).  One panel/structure lookup per path
    column is shared by all k ranks.
    """
    symb = storage.symb
    k = W.shape[1]
    for j in path:
        j = int(j)
        s = int(symb.col2sn[j])
        first, _last = symb.snode_cols(s)
        c_loc = j - first
        panel = storage.panel(s)
        rows_below = symb.snode_rows(s)[c_loc + 1:]
        for r in range(k):
            wj = W[j, r]
            if wj == 0.0:
                continue  # identity rotation; the pattern cannot grow here
            d = panel[c_loc, c_loc]
            r2 = d * d + sign * wj * wj
            if r2 <= 0.0 or d == 0.0:
                raise NotPositiveDefiniteError(j)
            rad = math.sqrt(r2)
            c = rad / d
            sfac = wj / d
            panel[c_loc, c_loc] = rad
            if rows_below.size:
                col = panel[c_loc + 1:, c_loc]
                wb = W[rows_below, r]
                col_new = (col + sign * sfac * wb) / c
                panel[c_loc + 1:, c_loc] = col_new
                W[rows_below, r] = c * wb - sfac * col_new


def _run_atomic(storage, W, mod, downdate, snapshot):
    """Sweep the carry vectors ``W`` (mutated) along ``mod.union``,
    restoring the touched panels on failure when ``snapshot``."""
    saved = None
    if snapshot:
        saved = {s: storage.panel(s).copy() for s in mod.snodes.tolist()}
    try:
        _sweep(storage, W, mod.union, -1.0 if downdate else 1.0)
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

    Sweeps the k columns of ``W`` over the merged elimination-tree path
    union in one ascending pass, reusing each path column's panel and
    structure lookups across all k rotations.  Bitwise identical to k
    sequential :func:`rank1_update` calls (see the module docstring), and
    atomic on failure like them.

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
