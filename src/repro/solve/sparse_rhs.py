"""Sparse right-hand-side forward solve: touch only the reach.

When ``b`` has few nonzeros (a point load, one column of an inverse, a
single observation update), the forward sweep ``L y = b`` only produces
nonzeros on the *reach* of ``struct(b)`` — the closure of the nonzero rows
under the supernodal elimination tree's parent relation (Gilbert/CSparse).
Skipping every supernode off the reach turns an O(factor) sweep into one
proportional to the touched panels, which is the standard trick behind
sparse triangular solves in CHOLMOD/CSparse.

The backward sweep is generically dense (information flows from the root
down to *every* column), so the sparse path applies to the forward half
only; :func:`solve_reach` exposes the structural set for callers that want
to reason about it (e.g. selected entries of ``A^{-1} b``).
"""

from __future__ import annotations

import numpy as np

from ..symbolic.levels import path_tables

__all__ = ["solve_reach", "forward_solve_sparse"]


def solve_reach(symb, pattern):
    """Supernodes touched by a forward solve with RHS pattern ``pattern``.

    The reach is the closure of the pattern's owning supernodes under the
    supernodal elimination tree parent map; returned ascending.
    """
    pattern = np.asarray(pattern, dtype=np.int64)
    if pattern.size == 0:
        return np.empty(0, dtype=np.int64)
    if pattern.min() < 0 or pattern.max() >= symb.n:
        raise ValueError("pattern indices out of range")
    parent = path_tables(symb)[2]
    flagged = set()
    for s in set(symb.col2sn[pattern].tolist()):
        while s != -1 and s not in flagged:
            flagged.add(s)
            s = parent[s]
    return np.array(sorted(flagged), dtype=np.int64)


def forward_solve_sparse(storage, b_indices, b_values):
    """Solve ``L y = b`` for a sparse ``b``; returns ``(y, touched)``.

    ``b`` is given as parallel ``(indices, values)`` arrays; ``y`` comes
    back dense (its nonzeros lie on the reach) together with the array of
    supernodes actually visited — callers use ``touched.size`` vs
    ``symb.nsup`` as the work ratio.
    """
    # numeric.updown imports solve_reach from this module while
    # .triangular is still importing numeric.executor
    from .triangular import forward_snode

    symb = storage.symb
    b_indices = np.asarray(b_indices, dtype=np.int64)
    b_values = np.asarray(b_values, dtype=np.float64)
    if b_indices.shape != b_values.shape or b_indices.ndim != 1:
        raise ValueError("b_indices and b_values must be parallel 1-D")
    y = np.zeros(symb.n)
    y[b_indices] = b_values
    touched = solve_reach(symb, b_indices)
    for s in touched.tolist():
        below, u = forward_snode(storage, y, s)
        if u is not None:
            y[below] -= u
    return y, touched
