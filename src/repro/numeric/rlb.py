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

The pair program
----------------
:func:`run_pair_range` is the one body: per supernode, :func:`factor_entry
<repro.numeric.rl.factor_entry>` hands back the factorized rectangle,
:func:`pair_updates` cuts it into row blocks that are made F-contiguous
ONCE (so no pair copies an operand across f2py again), calls the dtype's raw
``?syrk`` / ``?gemm`` once per pair — the same routines, flags and operand
values as :func:`compute_block_pair`, hence the same bits — and commits.  A
small source on an arena-backed storage commits all its pairs as ONE
``arena[dst] -= stream`` over the flat form of the pattern's
:func:`~repro.symbolic.blocks.pair_index`; a large source (or a storage of
loose panels) subtracts each update from its panel slice as it is computed,
so no more than one pair update is alive at a time.  Pairs of one source
write disjoint entries, so both commits give the same factor.

The serial engine runs the body over all supernodes; the threaded and
process task ranges run it over theirs with the pairs that leave the range
handed to ``leave`` (:func:`repro.numeric.executor.range_tasks`).
:func:`compute_block_pair` / :func:`commit_block_pair` /
:func:`apply_block_pair` are the same work for ONE pair — the bodies of pair
*tasks* (a single supernode above the cut, the simulated-device graphs).
"""

from __future__ import annotations

import numpy as np

from ..dense import kernels as dk
from ..symbolic.blocks import pair_index
from .result import cpu_cost
from .rl import factor_entry
from .storage import FactorStorage

__all__ = [
    "factorize_rlb_cpu",
    "run_pair_range",
    "pair_updates",
    "pair_kernel",
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

    Each pair's single generalized relative index is a row of the pattern's
    :func:`~repro.symbolic.blocks.pair_index` (all pairs located by one
    ``searchsorted`` when it is built), so repeated factorizations look the
    offsets up instead of recomputing them.
    """
    p, r0, _, c0, _ = pair_index(symb).target(bi, bj)
    return p, r0, c0


def pair_kernel(w, bi, bj):
    """``(kind, m, n, k)`` of the BLAS call of the pair ``(B_i, B_j)`` of a
    ``w``-column supernode — what the cost accounting is charged with."""
    if bj is bi:
        return "syrk", 0, bi.length, w
    return "gemm", bj.length, bi.length, w


def compute_block_pair(panel, w, bi, bj):
    """DSYRK/DGEMM body of one block pair: the update contribution of
    ``(B_i, B_j)`` from the factorized ``panel`` of the descendant
    supernode.

    This is the per-pair *compute half* of a pair task in the task-DAG
    runtimes (:mod:`repro.numeric.executor`), which must separate computing
    a pair's update (parallel) from committing it into the ancestor's panel
    (ordered, see :func:`commit_block_pair`).  Returns the dense update
    block ``u`` — ``(len(B_i), len(B_i))`` lower-valid for the diagonal
    pair, ``(len(B_j), len(B_i))`` otherwise.
    """
    rows_i = panel[bi.panel_start:bi.panel_start + bi.length, :w]
    if bj is bi:
        return dk.syrk_lower(rows_i)
    rows_j = panel[bj.panel_start:bj.panel_start + bj.length, :w]
    return dk.gemm_nt(rows_j, rows_i)


def commit_block_pair(symb, storage, bi, bj, u):
    """Commit half: subtract a computed pair update ``u`` from the owning
    ancestor's panel (one contiguous generalized relative index)."""
    p, r0, r1, c0, c1 = pair_index(symb).target(bi, bj)
    storage.panels[p][r0:r1, c0:c1] -= u


def apply_block_pair(symb, storage, panel, w, bi, bj):
    """Compute and apply the update of one block pair directly into the
    owning ancestor's panel.  Returns ``(kind, m, n, k)`` describing the
    BLAS call for cost accounting."""
    u = compute_block_pair(panel, w, bi, bj)
    commit_block_pair(symb, storage, bi, bj, u)
    return pair_kernel(w, bi, bj)


def pair_updates(storage, index, s, rect, routines, plan=None, leave=None):
    """Every block-pair update of source supernode ``s``, computed from its
    factorized below-diagonal rectangle ``rect`` and subtracted from the
    ancestors' panels (see the module docstring for the two commit forms).

    ``routines`` is the dtype's :func:`~repro.dense.kernels.pair_routines`.
    With a fine :class:`~repro.numeric.executor.DagPlan`, only the pairs of
    the leading ``plan.stay[s]`` upper blocks — the ones owned inside
    ``s``'s task range — are committed; the others are handed over, in
    serial order, as ``leave(pid, updates)``: ``updates[t]`` is the update
    of the leaving pair with id ``pid + t``.
    """
    syrk, gemm = routines
    cuts, flat = index.sources[s]
    # a block of a one-column supernode, or the only block, already is
    blocks = [np.asfortranarray(rect[a:e]) for a, e in cuts]
    nb = len(blocks)
    nstay = nb if plan is None else plan.stay[s]
    if flat is not None and storage.arena is not None:
        us = []
        for i, bi in enumerate(blocks):
            us.append(syrk(1.0, bi, lower=1, trans=0))
            for bj in blocks[i + 1 :]:
                us.append(gemm(1.0, bj, bi, trans_b=1))
        if nstay < nb:
            kstay = nstay * (2 * nb - nstay + 1) // 2  # pairs of the first nstay upper blocks
            leave(plan.pair_ids[s][0], us[kstay:])
            if not kstay:
                return
            flat, us = index.flat_prefix(s, nstay), us[:kstay]
        storage.arena[flat] -= np.concatenate(us, axis=None)
        return
    panels = storage.panels
    targets = iter(index.targets(s))
    pids = iter(plan.pair_ids[s]) if nstay < nb else None
    for i, bi in enumerate(blocks):
        for j in range(i, nb):
            u = gemm(1.0, blocks[j], bi, trans_b=1) if j > i else syrk(1.0, bi, lower=1, trans=0)
            p, r0, r1, c0, c1 = next(targets)
            if i < nstay:
                panels[p][r0:r1, c0:c1] -= u
            else:
                leave(next(pids), (u,))


def run_pair_range(storage, index, lo, hi, plan=None, leave=None):
    """The serial RLB bodies over the supernodes ``lo..hi-1``: factorize
    each (DPOTRF + DTRSM, :func:`~repro.numeric.rl.factor_entry`), then its
    :func:`pair_updates`.  ``plan`` / ``leave`` as there; without them every
    pair is committed."""
    potrf, trsm, _ = dk.factor_routines(storage.dtype)
    routines = dk.pair_routines(storage.dtype)
    program = storage.factor_program()
    for s in range(lo, hi):
        rect = factor_entry(program[s], potrf, trsm)
        if rect is not None:
            pair_updates(storage, index, s, rect, routines, plan, leave)


def factorize_rlb_cpu(symb, A, *, machine=None, dtype=None):
    """CPU-only RLB factorization (direct in-place updates, no assembly).

    As with RL, the modeled time for all MKL thread counts is the
    pattern's :func:`~repro.numeric.result.cpu_cost`; RLB's cost profile
    differs from RL's by many smaller BLAS calls and the absence of the
    assembly pass.
    ``dtype`` selects the factor precision (``None`` keeps the values').
    """
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    index = pair_index(symb)
    run_pair_range(storage, index, 0, symb.nsup)
    cost = cpu_cost(symb, "rlb", machine, itemsize=storage.itemsize)
    return cost.result("rlb", storage, {"block_pairs": index.npairs})
