"""RLB: right-looking *blocked* supernodal Cholesky (§II-B).

After factorizing the current supernode ``J`` (same DPOTRF + DTRSM as RL),
its below-diagonal rows are processed as consecutive-row blocks
``B_1 < B_2 < ... < B_k`` (see :mod:`repro.symbolic.blocks`).  For every pair
``(B, B')`` with ``B`` above or equal to ``B'``:

* ``B' == B``: one DSYRK updates the diagonal part ``L_{B,B}`` of the
  ancestor supernode owning ``B``;
* ``B' != B``: one DGEMM updates the off-diagonal part ``L_{B',B}``.

Updates are applied *directly into factor storage* — no temporary update
matrix, no assembly pass; each block pair needs a single generalized
relative index (a contiguous offset into the target panel).
"""

from __future__ import annotations

import numpy as np

from ..dense import kernels as dk
from ..gpu.costmodel import CPU_THREAD_CHOICES
from ..symbolic.blocks import snode_blocks
from .result import cpu_cost
from .rl import factor_snode
from .storage import FactorStorage

__all__ = [
    "factorize_rlb_cpu",
    "apply_block_pair",
    "compute_block_pair",
    "commit_block_pair",
    "block_pair_targets",
]


def block_pair_targets(symb, bi, bj):
    """Target slice of the pair ``(B_i, B_j)`` (``B_j`` at or below ``B_i``).

    Returns ``(owner, row_off, col_off)``: inside the owner supernode's
    panel the update lands at
    ``panel[row_off : row_off + len(B_j), col_off : col_off + len(B_i)]``.
    For the diagonal pair (``bi is bj``) ``row_off == col_off`` because the
    panel's first ``w`` rows are its own columns.

    Each pair's single generalized relative index (one ``searchsorted``) is
    memoised on the symbolic factor — block pairs are pure structure, so
    repeated factorizations look the offsets up instead of recomputing them.
    """
    cache = symb.cache().setdefault("block_pair_targets", {})
    key = (bi, bj)
    got = cache.get(key)
    if got is not None:
        return got
    p = bi.owner
    col_off = bi.first_row - int(symb.snptr[p])
    if bj is bi:
        cache[key] = (p, col_off, col_off)
        return cache[key]
    prows = symb.snode_rows(p)
    row_off = int(np.searchsorted(prows, bj.first_row))
    if row_off + bj.length > prows.size or prows[row_off] != bj.first_row:
        raise ValueError("block rows not contained in ancestor structure")
    cache[key] = (p, row_off, col_off)
    return cache[key]


def compute_block_pair(panel, w, bi, bj):
    """DSYRK/DGEMM body of one block pair: the update contribution of
    ``(B_i, B_j)`` from the factorized ``panel`` of the descendant
    supernode.

    This is the per-pair *compute half* shared by the serial engine and the
    threaded task-DAG runtime (:mod:`repro.numeric.executor`), which must
    separate computing a pair's update (parallel) from committing it into
    the ancestor's panel (ordered, see :func:`commit_block_pair`).  Returns
    the dense update block ``u`` — ``(len(B_i), len(B_i))`` lower-valid for
    the diagonal pair, ``(len(B_j), len(B_i))`` otherwise.
    """
    rows_i = panel[bi.panel_start:bi.panel_start + bi.length, :w]
    if bj is bi:
        return dk.syrk_lower(rows_i)
    rows_j = panel[bj.panel_start:bj.panel_start + bj.length, :w]
    return dk.gemm_nt(rows_j, rows_i)


def commit_block_pair(symb, storage, bi, bj, u):
    """Commit half: subtract a computed pair update ``u`` from the owning
    ancestor's panel (one contiguous generalized relative index)."""
    p, row_off, col_off = block_pair_targets(symb, bi, bj)
    target = storage.panel(p)
    target[row_off:row_off + u.shape[0],
           col_off:col_off + u.shape[1]] -= u


def apply_block_pair(symb, storage, panel, w, bi, bj):
    """Compute and apply the update of one block pair directly into the
    owning ancestor's panel.  Returns ``(kind, m, n, k)`` describing the
    BLAS call for cost accounting."""
    u = compute_block_pair(panel, w, bi, bj)
    commit_block_pair(symb, storage, bi, bj, u)
    if bj is bi:
        return ("syrk", 0, bi.length, w)
    return ("gemm", bj.length, bi.length, w)


def factorize_rlb_cpu(symb, A, *, machine=None,
                      thread_choices=CPU_THREAD_CHOICES, dtype=None):
    """CPU-only RLB factorization (direct in-place updates, no assembly).

    As with RL, the modeled time for all MKL thread counts is the
    pattern's :func:`~repro.numeric.result.cpu_cost`; RLB's cost profile
    differs from RL's by many smaller BLAS calls and the absence of the
    assembly pass.
    ``dtype`` selects the factor precision (``None`` keeps the values').
    """
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    total_pairs = 0
    for s in range(symb.nsup):
        panel, w, b = factor_snode(symb, storage, s)
        if not b:
            continue
        blocks = snode_blocks(symb, s)
        for i, bi in enumerate(blocks):
            for bj in blocks[i:]:
                u = compute_block_pair(panel, w, bi, bj)
                commit_block_pair(symb, storage, bi, bj, u)
                total_pairs += 1
    cost = cpu_cost(symb, "rlb", machine, thread_choices, storage.itemsize)
    return cost.result("rlb", storage, {"block_pairs": total_pairs})
