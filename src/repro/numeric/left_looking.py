"""Left-looking supernodal Cholesky — the classical baseline.

Where RL pushes a supernode's updates *rightward* as soon as it is
factorized, the left-looking method *pulls* all pending updates from
descendants just before factorizing each supernode (the organisation of
CHOLMOD and of SuperLU's symmetric mode).  Included as the comparison
baseline the paper's base algorithms (ref [1]) were evaluated against, and
as an independent numeric implementation for cross-checking factors.

Descendant tracking uses per-supernode "update lists" with a cursor into
each descendant's row list, exactly the classical linked-list scheme: after
descendant ``d`` contributes its rows targeting supernode ``J``, its cursor
advances and ``d`` is re-filed under the owner of its next row.
"""

from __future__ import annotations

import numpy as np

from ..dense import kernels as dk
from ..gpu.costmodel import MachineModel
from ..symbolic.relind import relative_indices
from .result import CpuCostAccumulator, FactorizeResult
from .storage import FactorStorage

__all__ = ["factorize_left_looking"]


def factorize_left_looking(symb, A, *, machine=None):
    """CPU left-looking supernodal factorization."""
    machine = machine or MachineModel()
    storage = FactorStorage.from_matrix(symb, A)
    acc = CpuCostAccumulator(machine)
    nsup = symb.nsup
    # update lists: pending[J] = list of (descendant, cursor)
    pending = [[] for _ in range(nsup)]
    col2sn = symb.col2sn
    for s in range(nsup):
        first, last = symb.snode_cols(s)
        w = last - first
        panel = storage.panel(s)
        rows_s = symb.snode_rows(s)
        for d, cur in pending[s]:
            drows = symb.snode_rows(d)
            dpanel = storage.panel(d)
            wd = symb.snode_ncols(d)
            # rows of d that fall inside this supernode's columns
            stop = cur
            while stop < drows.size and drows[stop] < last:
                stop += 1
            src_cols = dpanel[cur:stop, :wd]          # rows -> J's columns
            src_rows = dpanel[cur:, :wd]              # rows >= J's columns
            u = dk.gemm_nt(src_rows, src_cols)
            acc.kernel("gemm", m=src_rows.shape[0], n=src_cols.shape[0], k=wd)
            relrows = relative_indices(symb, drows[cur:], s)
            colpos = drows[cur:stop] - first
            panel[np.ix_(relrows, colpos)] -= u
            acc.assembly(2 * 8 * u.size)
            if stop < drows.size:
                nxt = int(col2sn[drows[stop]])
                pending[nxt].append((d, stop))
        pending[s] = None
        dk.potrf(panel[:w, :w])
        acc.kernel("potrf", n=w)
        b = rows_s.size - w
        if b:
            dk.trsm_right(panel[w:, :w], panel[:w, :w])
            acc.kernel("trsm", m=b, n=w)
            nxt = int(col2sn[rows_s[w]])
            pending[nxt].append((s, w))
    threads, seconds = acc.best()
    return FactorizeResult(
        method="left_looking",
        storage=storage,
        modeled_seconds=seconds,
        total_snodes=nsup,
        cpu_times_by_threads=dict(acc.times),
        best_threads=threads,
        flops=acc.flops,
        kernel_count=acc.kernel_count,
        assembly_bytes=acc.assembly_bytes,
    )
