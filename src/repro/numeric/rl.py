"""RL: right-looking supernodal Cholesky with a full update matrix (§II-A).

For each supernode ``J`` (left to right):

1. DPOTRF on the dense diagonal block, DTRSM on the rectangle below — ``J``
   is now factorized;
2. one DSYRK computes the *entire* update matrix
   ``U_J = L_{R,J} L_{R,J}^T`` (``R`` = below-diagonal rows of ``J``) into a
   preallocated workspace sized for the largest update matrix of the whole
   factorization;
3. the update matrix is *assembled* (scatter-subtracted) into every ancestor
   supernode's panel using generalized relative indices.

The assembly routine is shared with the GPU variant (where it runs on the
host, OpenMP-parallel in the paper's implementation).
"""

from __future__ import annotations

import numpy as np

from ..dense import kernels as dk
from ..gpu.costmodel import CPU_THREAD_CHOICES
from ..symbolic.relind import assembly_plan
from .result import cpu_cost
from .storage import FactorStorage

__all__ = [
    "factorize_rl_cpu",
    "factor_snode",
    "snode_update",
    "assemble_update",
    "update_workspace_entries",
]


def update_workspace_entries(symb):
    """Entries of the largest update matrix — the preallocated temporary
    working storage RL needs (§II-A).  Pattern-only, so memoised on the
    symbolic factor."""
    cache = symb.cache()
    best = cache.get("update_workspace_entries")
    if best is None:
        best = 0
        for s in range(symb.nsup):
            m, w = symb.panel_shape(s)
            best = max(best, (m - w) ** 2)
        cache["update_workspace_entries"] = best
    return best


def factor_snode(symb, storage, s):
    """Factorize supernode ``s``'s panel in place: DPOTRF on the diagonal
    block, DTRSM on the rectangle below.

    This is the per-supernode *factor body* shared by the serial engines
    (:func:`factorize_rl_cpu`, :func:`repro.numeric.rlb.factorize_rlb_cpu`)
    and the threaded task-DAG runtime
    (:mod:`repro.numeric.executor`) — the kernels exist exactly once.
    Returns ``(panel, w, b)``.
    """
    panel = storage.panel(s)
    m, w = symb.panel_shape(s)
    b = m - w
    dk.potrf(panel[:w, :w])
    if b:
        dk.trsm_right(panel[w:, :w], panel[:w, :w])
    return panel, w, b


def snode_update(symb, storage, s, W=None):
    """DSYRK body: the update matrix ``U_J = L_{R,J} L_{R,J}^T`` of the
    (already factorized) supernode ``s``.

    ``W`` is an optional preallocated workspace (the serial engine's single
    reusable buffer); when ``None`` a fresh ``(b, b)`` buffer is allocated —
    the parallel runtime needs one live buffer per in-flight task.  Returns
    the lower-valid ``(b, b)`` update matrix, or ``None`` when ``s`` has no
    below-diagonal rows.
    """
    panel = storage.panel(s)
    m, w = symb.panel_shape(s)
    b = m - w
    if not b:
        return None
    U = (W[:b, :b] if W is not None
         else np.zeros((b, b), dtype=panel.dtype, order="F"))
    dk.syrk_lower(panel[w:, :w], out=U)
    return U


def assemble_update(symb, storage, s, U):
    """Scatter-subtract supernode ``s``'s update matrix into its ancestors.

    ``U`` is the ``(b, b)`` lower-valid update matrix over the below-diagonal
    rows of ``s``.  Rows are grouped into runs owned by a single ancestor
    supernode; each run becomes one fancy-indexed ``-=`` (this is the loop
    nest the paper parallelizes with OpenMP).  The per-(supernode, ancestor)
    relative indices come from the cached
    :func:`~repro.symbolic.relind.assembly_plan`, so repeated factorizations
    of the same structure do no index recomputation here.

    Returns the number of bytes moved (for the assembly cost model).
    """
    bytes_moved = 0
    for p, k0, k1, relrows, colpos, nbytes in assembly_plan(symb, s):
        storage.panel(p)[relrows, colpos] -= U[k0:, k0:k1]
        bytes_moved += nbytes
    return bytes_moved


def factorize_rl_cpu(symb, A, *, machine=None,
                     thread_choices=CPU_THREAD_CHOICES, dtype=None):
    """CPU-only RL factorization.

    The numerics run here; the modeled time for every MKL thread count in
    ``thread_choices`` and the best of them (the paper's CPU baseline
    protocol; assembly loops are OpenMP-parallel, §III) is the pattern's
    :func:`~repro.numeric.result.cpu_cost`, priced once and shared.
    ``dtype`` selects the factor precision (``None`` keeps the values').
    """
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    entries = update_workspace_entries(symb)
    bmax = int(np.sqrt(entries))
    W = (np.zeros((bmax, bmax), dtype=storage.dtype, order="F")
         if bmax else None)
    for s in range(symb.nsup):
        _, _, b = factor_snode(symb, storage, s)
        if b:
            U = snode_update(symb, storage, s, W=W)
            assemble_update(symb, storage, s, U)
    cost = cpu_cost(symb, "rl", machine, thread_choices, storage.itemsize)
    return cost.result("rl", storage, {"workspace_entries": entries})
