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
<repro.numeric.rl.factor_entry>` hands back the factorized rectangle and
:func:`pair_updates` forms and commits its pair updates.  A narrow small
source (:data:`~repro.symbolic.blocks.BATCHED_GEMM_MADDS`) takes every
off-diagonal pair from ONE ``?gemm(rect, rectᵀ)``, writes each diagonal
pair's own ``?syrk`` over its diagonal block (a one-column GEMM already is
its SYRK) and commits the lower triangle as RL does, ONE
``arena[dst] -= G[src]`` through the flat form of the pattern's
:func:`~repro.symbolic.relind.assembly_index` — the same bits as one call
per pair by the GEMM property ``tests/test_pair_program.py`` pins within the
width bound.  Any other source cuts the rectangle into row blocks made
F-contiguous once and calls ``?syrk`` / ``?gemm`` once per pair — the
routines, flags and operands of :func:`compute_block_pair` — subtracting
each update from its panel slice.  Pairs of one source write disjoint
entries, so both give the same factor.

The threaded and process task ranges run the body over their supernodes
with the pairs that leave the range handed to ``leave``
(:func:`repro.numeric.executor.range_tasks`).

The serial loop, compiled
-------------------------
The serial engine (``rlb``: :func:`factorize_rlb_cpu`, a served request's
work storage, ``factorize_batch``, the ``rlb_gpu_v2`` / ``v1`` rows' factor)
runs the body over every supernode in ONE call into ``rl``'s compiled loop
(:func:`repro.numeric._native.rl_loop`, ``_rl_loop.c``), with a form code per
source: a batched source's ONE ``?gemm`` (or ``?syrk``) and diagonal-block
``?syrk`` calls into a workspace, committed through the flat form; any
other source's ``?syrk`` / ``?gemm`` per pair into the workspace, each
subtracted from its target.  It reads the pair index's arrays and the
assembly index's flat form, and calls the same routines on the same
operands in place (leading dimension ``m``), so the arena is
:func:`run_pair_range`'s byte for byte.  Where no compiler can build it,
:func:`run_pair_range` runs over all supernodes.
:func:`compute_block_pair` / :func:`commit_block_pair` are the same work
for ONE pair, its product and its commit apart.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..dense import kernels as dk
from ..symbolic.blocks import pair_index
from .result import serial_result
from ._native import rl_loop
from .rl import _assemble, _compiled_body, factor_entry
from .storage import FactorStorage

__all__ = [
    "factorize_rlb_cpu",
    "run_pair_range",
    "pair_updates",
    "compute_block_pair",
    "commit_block_pair",
]


def compute_block_pair(panel, w, bi, bj):
    """DSYRK/DGEMM body of one block pair: the update contribution of
    ``(B_i, B_j)`` from the factorized ``panel`` of the descendant
    supernode — the *compute half* of one pair, apart from its commit
    (:func:`commit_block_pair`).  Returns the dense update block ``u`` —
    ``(len(B_i), len(B_i))`` lower-valid for the diagonal pair,
    ``(len(B_j), len(B_i))`` otherwise.
    """
    rows_i = panel[bi.panel_start:bi.panel_start + bi.length, :w]
    if bj is bi:
        return dk.syrk_lower(rows_i)
    rows_j = panel[bj.panel_start:bj.panel_start + bj.length, :w]
    return dk.gemm_nt(rows_j, rows_i)


def commit_block_pair(symb, storage, bi, bj, u):
    """Commit half: subtract a computed pair update ``u`` from the owning
    ancestor's panel (one contiguous generalized relative index, the pair's
    row of the pattern's :func:`~repro.symbolic.blocks.pair_index`)."""
    p, r0, r1, c0, c1 = pair_index(symb).target(bi, bj)
    storage.panels[p][r0:r1, c0:c1] -= u


def _batched_product(rect, cuts, syrk, gemm):
    """The lower triangle of ``G`` holds every pair update of a batched
    source: off the diagonal blocks ONE ``?gemm(rect, rectᵀ)``, on them each
    block's own ``?syrk`` (the only block's is the whole product)."""
    if len(cuts) == 1:
        return syrk(1.0, rect, lower=1, trans=0)
    G = gemm(1.0, rect, rect, trans_b=1)
    if rect.shape[1] > 1:
        for a, e in cuts:
            G[a:e, a:e] = syrk(1.0, rect[a:e], lower=1, trans=0)
    return G


def _pair_slices(G, cuts):
    """The pair updates of the blocks ``cuts`` out of a batched product, in
    serial order, each diagonal pair cut to its lower triangle."""
    for i, (a, e) in enumerate(cuts):
        yield np.tril(G[a:e, a:e])
        for c, d in cuts[i + 1 :]:
            yield G[c:d, a:e]


def pair_updates(storage, index, s, rect, routines, plan=None, leave=None):
    """Every block-pair update of source supernode ``s``, computed from its
    factorized below-diagonal rectangle ``rect`` and subtracted from the
    ancestors' panels (see the module docstring for the two forms).

    ``routines`` is the dtype's :func:`~repro.dense.kernels.pair_routines`.
    With a fine :class:`~repro.numeric.executor.DagPlan`, only the pairs of
    the leading ``plan.stay[s]`` upper blocks — the ones owned inside
    ``s``'s task range — are committed; the others are handed over, in
    serial order, as ``leave(slot, updates)``: ``updates[t]`` is the update
    of the leaving pair in slot ``slot + t`` (:attr:`DagPlan.pair_ids
    <repro.numeric.executor.DagPlan.pair_ids>`).
    """
    syrk, gemm = routines
    cuts, flat = index.sources[s]
    nb = len(cuts)
    nstay = nb if plan is None else plan.stay[s]
    if flat is not None:
        G = _batched_product(rect, cuts, syrk, gemm)
        stop = None
        if nstay < nb:
            leave(plan.pair_ids[s][0], _pair_slices(G, cuts[nstay:]))
            if not nstay:
                return
            # the staying blocks are the runs whose owner lies in the range
            ranges = plan.ranges
            hi = ranges.bounds[ranges.range_of[s] + 1]
            stop = bisect.bisect_left(index.assembly.targets[s], hi)
        _assemble(storage, index.assembly, s, G, stop)
        return
    # each block F-contiguous once (a block of a one-column supernode already is)
    blocks = [np.asfortranarray(rect[a:e]) for a, e in cuts]
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
    pattern's :func:`~repro.numeric.result.cpu_cost`, priced on first
    read; RLB's cost profile differs from RL's by many smaller BLAS calls
    and the absence of the assembly pass.
    ``dtype`` selects the factor precision (``None`` keeps the values').
    """
    return _factorize_rlb_in(FactorStorage.from_matrix(symb, A, dtype=dtype), machine=machine)


def _factorize_rlb_in(storage, *, machine=None):
    """:func:`factorize_rlb_cpu` on a storage that already holds the
    permuted matrix's values, as :func:`~repro.numeric.rl._factorize_rl_in`:
    the compiled loop when it could be built, else :func:`run_pair_range`
    over every supernode — the same bits either way."""
    index = pair_index(storage.symb)
    loops = rl_loop()
    if loops is None:
        run_pair_range(storage, index, 0, storage.symb.nsup)
    else:
        _compiled_body(storage, loops[storage.arena.dtype], _pair_operands(index))
    return serial_result("rlb", storage, machine, block_pairs=index.npairs)


def _pair_operands(index):
    """What the compiled loop reads of the pair index: per source its form
    code (``_rl_loop.c``'s ``BATCHED`` = 1 when the source commits through
    the flat form, else ``PAIRS`` = 2), then the index's own arrays."""
    form = np.array([2 if flat is None else 1 for _, flat in index.sources], dtype=np.int8)
    return (form, index.blk_ptr, index.blk_start, index.blk_len, index.pair_ptr, index.upper,
            index.lower, index.row_off, index.col_off, index.blk_owner)  # fmt: skip
