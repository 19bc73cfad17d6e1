"""Consecutive-row blocks of supernode panels — the unit of work of RLB.

RLB decomposes a supernode's below-diagonal rows into *blocks*: maximal runs
of consecutive row indices, further split so that every block lies within a
single ancestor supernode's column range.  Each (block, block') pair then
becomes one DSYRK or DGEMM call, and — because a run of consecutive global
rows is necessarily contiguous inside any ancestor panel that contains it —
each block needs only a *single* offset into the target panel (the paper's
"one generalized relative index per block").

The number of blocks directly controls RLB's BLAS-call count, which is why
the partition-refinement reordering exists.

The pair index
--------------
:func:`pair_index` computes every block and every block pair of a pattern in
ONE array-at-a-time pass and memoises it on the symbolic factor — what
:func:`~repro.symbolic.relind.assembly_index` is to RL.  All below rows of
all supernodes are cut into blocks by three ``diff`` comparisons (row not
consecutive, owner changes, source changes); the pairs of every supernode
are laid out in the serial engines' order (upper block ascending, then the
lower block from the upper one down) by ``repeat``/``cumsum`` arithmetic;
and every pair's row offset inside its owner's panel comes from a single
:func:`~repro.symbolic.relind.locate_rows` — one global ``searchsorted``
instead of one per off-diagonal pair.

Per source it also names the commit the RLB body takes (:attr:`PairIndex.sources`):

* **per pair** — ``(owner, r0, r1, c0, c1)``: the update of the pair lands
  at ``panel(owner)[r0:r1, c0:c1]``; :meth:`PairIndex.targets` materialises
  a source's pairs from the arrays on demand, as :meth:`PairIndex.blocks`
  does its :class:`Block` tuples.
* **batched** — for a source whose pair updates are all slices of ONE
  ``?gemm(rect, rectᵀ)`` with the same bits (:data:`BATCHED_GEMM_MADDS`), the
  flat form of the pattern's :func:`~repro.symbolic.relind.assembly_index`:
  the pair updates of a source tile the lower triangle of its RL update
  matrix, so the product commits as RL's does, ONE ``arena[dst] -= G[src]``.
  Its columns ascend by owner, so the pairs of the leading upper blocks —
  the ones whose owner lies inside the source's task range — are a prefix
  of its runs.

Pairs of one source write pairwise-disjoint regions, so either form (and any
mix) subtracts exactly the same values from exactly the same entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import relind
from .relind import _ranges, locate_rows

__all__ = ["Block", "PairIndex", "pair_index", "snode_blocks", "all_blocks", "count_blocks"]

#: A source is *batched* — all its pair updates slices of ONE
#: ``?gemm(rect, rectᵀ)``, with the bits of one call per pair — when ``b²``
#: and ``w²`` are at most :data:`~repro.symbolic.relind.FLAT_UPDATE_ENTRIES`
#: and the product's ``b² w`` multiply-adds at most this (``64³``: OpenBLAS
#: runs such a GEMM on one thread).  A GEMM entry not depending on where its
#: rows sit in the operand is a property of the BLAS, not a law, pinned by
#: ``tests/test_pair_program.py`` inside this bound; outside it, it was seen to fail.
BATCHED_GEMM_MADDS = 1 << 18


@dataclass(frozen=True)
class Block:
    """One consecutive-row block of a supernode panel.

    Attributes
    ----------
    panel_start:
        Offset of the block's first row inside the owning supernode's row
        list (diagonal block included, so the below part starts at
        ``ncols``).
    length:
        Number of rows.
    first_row:
        Global index of the first row (rows are ``first_row ..
        first_row+length-1``).
    owner:
        Supernode whose *columns* contain these row indices (the update
        target when this block is the upper block of a pair).
    snode / index:
        The supernode the block belongs to and its position among that
        supernode's blocks — what locates a pair of blocks in the
        :class:`PairIndex`.
    """

    panel_start: int
    length: int
    first_row: int
    owner: int
    snode: int
    index: int


class PairIndex:
    """Every block and block pair of a pattern (see the module docstring);
    build with :func:`pair_index`.

    Blocks are numbered globally, source supernode by source supernode, in
    row order; pairs likewise, in the serial engines' order.  Array
    attributes are ``int64`` — what the compiled RLB loop reads
    (:func:`repro.numeric.rlb._pair_operands`).

    Attributes
    ----------
    nblocks / npairs:
        Totals over the pattern.
    blk_ptr / pair_ptr:
        Supernode ``s`` owns blocks ``blk_ptr[s]:blk_ptr[s + 1]`` and pairs
        ``pair_ptr[s]:pair_ptr[s + 1]``.
    blk_source / blk_start / blk_len / blk_first / blk_owner:
        Per block: its supernode, the offset of its first row among that
        supernode's *below* rows, its length, its first global row and the
        supernode owning its rows.
    upper / lower / row_off / col_off:
        Per pair: its two blocks (``upper <= lower``; equal for the diagonal
        pair, a DSYRK) and where its update lands in the panel of
        ``blk_owner[upper]``.
    sources:
        Per supernode ``(cuts, flat)`` — what the RLB body reads: ``cuts``
        the ``(start, stop)`` of each block among the below rows, ``flat``
        the source's entry of the assembly index's flat form when the source
        is batched (:data:`BATCHED_GEMM_MADDS`), else ``None``.
    assembly:
        The pattern's :func:`~repro.symbolic.relind.assembly_index`, which a
        batched source commits through.
    """

    __slots__ = (
        "nblocks", "npairs", "blk_ptr", "pair_ptr",
        "blk_source", "blk_start", "blk_len", "blk_first", "blk_owner",
        "upper", "lower", "row_off", "col_off", "sources", "assembly",
        "_widths", "_blocks", "_targets",
    )  # fmt: skip

    def __init__(self, symb):
        nsup = symb.nsup
        w = np.diff(symb.snptr)
        b = np.diff(symb.rowptr) - w
        # every below-diagonal row of every supernode, grouped by source
        _, source, k = _ranges(b)
        below = symb.rows[(symb.rowptr[:-1] + w)[source] + k]
        owner = symb.col2sn[below]
        first = np.ones(below.size, dtype=bool)
        first[1:] = (np.diff(below) != 1) | (np.diff(owner) != 0) | (np.diff(source) != 0)
        at = np.flatnonzero(first)
        self.nblocks = nblocks = at.size
        self.blk_source = blk_source = source[at]
        self.blk_start = k[at]
        self.blk_len = blk_len = np.diff(np.append(at, below.size))
        self.blk_first = below[at]
        self.blk_owner = blk_owner = owner[at]
        per_source = np.bincount(blk_source, minlength=nsup)
        blk_ptr = np.concatenate(([0], np.cumsum(per_source)))
        # pairs: upper block i of a source with nb blocks pairs with i..nb-1
        position = np.arange(nblocks, dtype=np.int64) - blk_ptr[blk_source]
        first_pair, upper, down = _ranges(per_source[blk_source] - position)
        self.npairs = upper.size
        self.upper = upper
        self.lower = lower = upper + down
        self.row_off = locate_rows(symb, blk_owner[upper], self.blk_first[lower])
        self.col_off = (self.blk_first - symb.snptr[blk_owner])[upper]
        self.blk_ptr = blk_ptr
        self.pair_ptr = first_pair[blk_ptr]
        self.assembly = assembly = relind.assembly_index(symb)
        batched = (w * w <= relind.FLAT_UPDATE_ENTRIES) & (b * b * w <= BATCHED_GEMM_MADDS)
        cuts = list(zip(self.blk_start.tolist(), (self.blk_start + blk_len).tolist()))
        ptr = blk_ptr.tolist()
        self.sources = tuple(
            (cuts[b0:b1], flat if ok else None)
            for b0, b1, flat, ok in zip(ptr[:-1], ptr[1:], assembly.flat, batched.tolist())
        )
        self._widths = w
        self._blocks = [None] * nsup
        self._targets = [None] * nsup
        for s, (cuts, flat) in enumerate(self.sources):
            if cuts and flat is None:  # what the RLB body reads, so threads only read
                self.targets(s)

    def blocks(self, s):
        """The :class:`Block` tuple of supernode ``s`` — see
        :func:`snode_blocks`."""
        blocks = self._blocks[s]
        if blocks is None:
            b0, b1 = self.blk_ptr[s], self.blk_ptr[s + 1]
            w = int(self._widths[s])
            blocks = self._blocks[s] = tuple(
                Block(w + start, length, first_row, owner, s, i)
                for i, (start, length, first_row, owner) in enumerate(
                    zip(
                        self.blk_start[b0:b1].tolist(),
                        self.blk_len[b0:b1].tolist(),
                        self.blk_first[b0:b1].tolist(),
                        self.blk_owner[b0:b1].tolist(),
                    )
                )
            )
        return blocks

    def targets_of(self, pairs):
        """Per pair of ``pairs`` (a slice or an index array), ``(owner, r0,
        r1, c0, c1)`` as plain ints: the pair's update is subtracted from
        ``panel(owner)[r0:r1, c0:c1]``."""
        upper, lower = self.upper[pairs], self.lower[pairs]
        r0, c0 = self.row_off[pairs], self.col_off[pairs]
        return tuple(
            zip(
                self.blk_owner[upper].tolist(),
                r0.tolist(),
                (r0 + self.blk_len[lower]).tolist(),
                c0.tolist(),
                (c0 + self.blk_len[upper]).tolist(),
            )
        )

    def targets(self, s):
        """:meth:`targets_of` the pairs of supernode ``s``, in serial order
        (built with the index when ``s`` is not batched, else on first use)."""
        targets = self._targets[s]
        if targets is None:
            pairs = slice(self.pair_ptr[s], self.pair_ptr[s + 1])
            targets = self._targets[s] = self.targets_of(pairs)
        return targets

    def target(self, bi, bj):
        """:meth:`targets` entry of the pair of blocks ``(bi, bj)`` of one
        supernode, ``bj`` at or below ``bi``."""
        s, i = bi.snode, bi.index
        nb = self.blk_ptr[s + 1] - self.blk_ptr[s]
        return self.targets(s)[i * (2 * nb - i + 1) // 2 + bj.index - i]

    def nbytes(self):
        """Bytes of the index's own arrays (the flat form it commits through
        is the assembly index's)."""
        arrays = (self.blk_source, self.blk_start, self.blk_len, self.blk_first, self.blk_owner,
                  self.upper, self.lower, self.row_off, self.col_off)  # fmt: skip
        return sum(a.nbytes for a in arrays)


def pair_index(symb):
    """The pattern's :class:`PairIndex`, built on first use and memoised on
    the symbolic factor (``dag_plan(symb, "fine")`` and a serving session
    warm it on the submitting thread, so worker threads only ever read
    it)."""
    cache = symb.cache()
    index = cache.get("pair_index")
    if index is None:
        index = cache["pair_index"] = PairIndex(symb)
    return index


def snode_blocks(symb, s):
    """Blocks of supernode ``s``'s below-diagonal rows.

    Returns a tuple of :class:`Block` in increasing row order.  Splits occur
    where row indices stop being consecutive and where the owning supernode
    changes.  The blocks are rows of the pattern's :func:`pair_index`; the
    tuple is materialised on first request and kept, so the same ``Block``
    objects come back every time.
    """
    return pair_index(symb).blocks(s)


def all_blocks(symb):
    """``snode_blocks`` for every supernode (list of tuples)."""
    return [snode_blocks(symb, s) for s in range(symb.nsup)]


def count_blocks(symb):
    """Total number of blocks across all supernodes — RLB's BLAS-call-count
    driver and the quantity partition refinement minimises."""
    return pair_index(symb).nblocks
