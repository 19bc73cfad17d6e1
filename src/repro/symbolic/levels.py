"""Elimination-tree level schedule for the supernodal triangular solves.

The forward sweep ``L y = b`` has exactly the elimination tree's dependency
structure: supernode ``J`` may solve its diagonal block only after every
*descendant* whose below-diagonal rows reach into ``J``'s columns has
subtracted its contribution, and ``J``'s own GEMV then updates segments of
``y`` owned by ``J``'s ancestors.  Grouping supernodes by tree depth from
the leaves yields the classical *level schedule*: every supernode in level
``ℓ`` depends only on supernodes in levels ``< ℓ``, so whole levels are
independent solve tasks (the backward sweep runs the same schedule in
reverse).  The number of levels is the height of the supernodal elimination
tree; the width of each level bounds the exploitable task parallelism.

:func:`solve_schedule` computes everything the parallel sweeps need —
levels, per-supernode update *runs* (which ancestor owns which slice of the
below rows; all supernodes in one array pass) and, over a partition of the
supernodes into task ranges (:mod:`repro.symbolic.ranges`; one task per
range, not per supernode), which runs leave their range, which reach each
task from outside (what it pulls) and both dependency directions between the
ranges (:class:`SweepEdges`) — once per pattern, memoised like the
factorization task-DAG plans, so repeated solves do no structural work.
:func:`leaf_block` is the other pattern-static half of a solve: the narrow
leaves of the tree as one sparse block (:class:`LeafBlock`), which every
sweep, serial or scheduled, solves array-at-a-time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import get_index_dtype

from .ranges import TaskRanges, task_ranges
from .relind import _ranges

__all__ = ["LEAF_BLOCK_COLS", "LeafBlock", "SolveSchedule", "SweepEdges", "leaf_block",
           "solve_schedule", "solve_levels", "solve_shapes"]  # fmt: skip

#: Widest childless supernode the leaf block takes (:func:`leaf_block`).  A
#: supernode costs the per-supernode sweeps about 3 µs whatever its flops; the
#: block costs one array-at-a-time stage per column of its widest member, paid
#: by every solve.  Set by the sweep over {0, 4, 8, 16} in ``docs/solve.md``.
LEAF_BLOCK_COLS = 8


def solve_levels(symb):
    """Level of every supernode in the supernodal elimination tree.

    ``level[s] = 0`` for leaves, otherwise ``1 + max(level of children)`` —
    the earliest forward-solve round in which ``s`` can run.  One ascending
    pass suffices because the analyzed system is postordered (children
    precede parents).
    """
    level = [0] * symb.nsup
    for s, p in enumerate(symb.sn_parent.tolist()):
        if p >= 0 and level[p] <= level[s]:
            level[p] = level[s] + 1
    return np.array(level, dtype=np.int64)


class SweepEdges(NamedTuple):
    """The task graph of one sweep, in the shape of the factorization's
    :class:`~repro.numeric.executor.DagPlan`: a finished task delivers one
    part to each of its ``children``, a task is ready once ``indeg`` parts
    arrived, ``roots`` wait for nothing.  ``incoming`` is per task what it
    applies itself before it runs — the forward sweep's ``(source supernode,
    lo, hi)`` update runs, ascending by source; empty for backward tasks."""

    roots: tuple
    children: tuple
    indeg: tuple
    incoming: tuple


@dataclass(frozen=True)
class SolveSchedule:
    """Pattern-only schedule of the level-scheduled triangular solves over
    one partition of the supernodes into task ranges
    (:mod:`repro.symbolic.ranges`).

    Task ``t`` of a sweep runs the serial body over the supernodes of range
    ``t`` — ascending in the forward sweep, descending in the backward one.
    A below-diagonal row owned by a supernode of the same range is updated
    (forward) or read (backward) by the task itself; the rows that *leave*
    the range belong to single-supernode ranges above the cut, whose own
    tasks subtract the parked updates (forward) or are waited for (backward).

    Attributes
    ----------
    level:
        Forward level per supernode (leaves = 0); the backward sweep uses
        the same levels in descending order.
    level_ptr / level_nodes:
        CSR grouping of supernodes by level: level ``ℓ`` holds
        ``level_nodes[level_ptr[ℓ]:level_ptr[ℓ+1]]`` (ascending supernode
        ids, the serial sweep order within a level).
    runs:
        Per supernode ``s``, a tuple of ``(owner, lo, hi)`` triples: slice
        ``lo:hi`` of ``s``'s below-diagonal row list is owned by ancestor
        supernode ``owner`` (rows are sorted, so owners form contiguous
        runs).
    ranges:
        The :class:`~repro.symbolic.ranges.TaskRanges` scheduled.
    leaving:
        Per supernode ``s``, ``None`` when every below row stays inside
        ``s``'s range, else ``(stay, runs)``: the first ``stay`` below rows
        stay, and ``runs`` are the ``(owner task, lo, hi)`` runs that leave —
        the updates the forward task parks for their owners and the backward
        task's read dependencies.
    rest:
        Per task, the supernodes its loop runs: its range without the members
        of the pattern's :class:`LeafBlock` — no ``incoming`` names a member.
    fwd / bwd / fused:
        The :class:`SweepEdges` of the forward sweep (a range feeds the
        tasks owning its leaving rows), of the backward sweep (the same
        edges reversed) and of the *combined* full solve.  A leaf block's
        halves are task ``R`` of each sweep: a *source* every forward root
        waits for, a *sink* behind every backward task.  ``fused`` keeps the
        forward ids and puts backward task ``t`` under ``len(fwd.children) +
        t``, also fed by its own forward task — one graph runs both sweeps on
        one pool, overlapping the backward leaves with the forward root.
    """

    level: np.ndarray
    level_ptr: np.ndarray
    level_nodes: np.ndarray
    runs: tuple
    ranges: TaskRanges
    leaving: tuple
    rest: tuple
    fwd: SweepEdges
    bwd: SweepEdges
    fused: SweepEdges

    @property
    def nlevels(self):
        """Height of the schedule (number of solve rounds per sweep)."""
        return int(self.level_ptr.size - 1)

    def level_supernodes(self, lev):
        """Supernodes of level ``lev`` (ascending ids)."""
        return self.level_nodes[self.level_ptr[lev]:self.level_ptr[lev + 1]]

    def level_widths(self):
        """Supernodes per level — the task-parallelism profile."""
        return np.diff(self.level_ptr)

    @property
    def max_width(self):
        """Widest level: the peak number of independent solve tasks."""
        return int(self.level_widths().max())

    @property
    def avg_width(self):
        """Mean level width — the average exploitable parallelism."""
        return float(self.level.size / self.nlevels)


def _below_runs(symb):
    """Per supernode, the contiguous same-owner runs ``(owner, lo, hi)`` of
    its below rows, from ONE pass over all below rows (the pass
    :func:`~repro.symbolic.blocks.pair_index` makes): a run starts where the
    owner or the source changes."""
    w = np.diff(symb.snptr)
    _, source, k = _ranges(np.diff(symb.rowptr) - w)
    owner = symb.col2sn[symb.rows[(symb.rowptr[:-1] + w)[source] + k]]
    first = np.ones(owner.size, dtype=bool)
    first[1:] = (source[1:] != source[:-1]) | (owner[1:] != owner[:-1])
    at = np.flatnonzero(first)
    hi = k[at] + np.diff(np.append(at, owner.size))
    runs = list(zip(owner[at].tolist(), k[at].tolist(), hi.tolist()))
    ptr = np.searchsorted(source[at], np.arange(symb.nsup + 1)).tolist()
    return tuple(tuple(runs[a:b]) for a, b in zip(ptr[:-1], ptr[1:]))


class LeafBlock:
    """The narrow leaves of the elimination tree as ONE sparse block
    (pattern-only; build with :func:`leaf_block`).  With ``C`` the columns of
    the *members* — the childless supernodes at most :data:`LEAF_BLOCK_COLS`
    wide — nothing updates ``C``, so ``L = [[L_CC, 0], [L_RC, L_RR]]`` with
    ``L_CC`` block-diagonal tiny triangles and ``L_RC`` sparse.  Block columns
    are laid out stage by stage (stage ``j`` = the ``j``-th column of every
    member that has one), so a stage is a slice.  Built array-at-a-time: no
    per-supernode Python iteration.

    Attributes
    ----------
    members / rest:
        The member supernodes, widest first; all others, ascending (``int``
        list) — what the per-supernode loops still run.
    cols / stage_ptr:
        Global column per block column; stage ``j`` is block columns
        ``stage_ptr[j]:stage_ptr[j + 1]`` (``int`` list).
    fwd / bwd:
        ``(src, tgt, ptr)`` per ``L_CC`` sweep: once stage ``j`` divided its
        slice by the diagonal, entries ``ptr[j]:ptr[j + 1]`` subtract
        ``value * z[src]`` from ``z[tgt]`` (distinct within a stage) —
        forward the rows below column ``j``; backward (``L_CC^T``, stages
        descending) the columns left of row ``j``.
    colptr / rowidx:
        ``L_RC`` as CSC over the block columns, rows sorted per column; read
        as CSR the same arrays are ``L_RC^T``.
    pos / loose_pos / cuts:
        Where a sweep's values live — diagonal, ``fwd``, ``bwd`` and ``L_RC``
        entries back to back, split at ``cuts`` — in the arena, and in the
        member panels alone laid back to back (a loose-panel storage).
    """

    __slots__ = ("members", "rest", "cols", "stage_ptr", "fwd", "bwd",
                 "colptr", "rowidx", "pos", "loose_pos", "cuts")  # fmt: skip

    def __init__(self, symb):
        widths, parent = np.diff(symb.snptr), symb.sn_parent
        member = np.bincount(parent[parent >= 0], minlength=symb.nsup) == 0
        member &= widths <= LEAF_BLOCK_COLS
        members = np.flatnonzero(member)
        # widest first: the members that have a j-th column are then a prefix
        self.members = members = members[np.argsort(-widths[members], kind="stable")]
        self.rest = np.flatnonzero(~member).tolist()
        w, m, off = widths[members], np.diff(symb.rowptr)[members], symb.panel_offsets()[members]
        nstages = int(w[0]) if w.size else 0
        # block column c is column j[c] of member a[c]
        stage_ptr, j, a = _ranges(np.searchsorted(-w, -np.arange(nstages)))
        self.cols, self.stage_ptr = symb.snptr[members][a] + j, stage_ptr.tolist()
        corner = off[a] + j * m[a]  # arena position of panel entry (0, j)
        # forward: block column (a, j) reaches rows i = j+1 .. w-1 of its member
        fptr, fsrc, t = _ranges(w[a] - j - 1)
        i = j[fsrc] + 1 + t
        self.fwd = fsrc, stage_ptr[i] + a[fsrc], fptr[stage_ptr].tolist()
        # backward: block column (a, i) reaches columns jj = 0 .. i-1
        bptr, bsrc, jj = _ranges(j)
        self.bwd = bsrc, stage_ptr[jj] + a[bsrc], bptr[stage_ptr].tolist()
        # L_RC: block column (a, j) holds the below rows of its member
        colptr, c, k = _ranges((m - w)[a])
        index = get_index_dtype(maxval=max(symb.n, c.size))
        self.colptr = colptr.astype(index)
        self.rowidx = symb.rows[(symb.rowptr[members] + w)[a][c] + k].astype(index)
        pos = (corner + j, corner[fsrc] + i, (off[a] + j)[bsrc] + jj * m[a][bsrc],
               (corner + w[a])[c] + k)  # fmt: skip
        self.pos = np.concatenate(pos)
        self.cuts = tuple(np.cumsum([p.size for p in pos[:3]]).tolist())
        shift = off - (np.cumsum(m * w) - m * w)  # a panel's move when only members are kept
        self.loose_pos = self.pos - shift[np.concatenate((a, a[fsrc], a[bsrc], a[c]))]

    def nbytes(self):
        """Bytes of the block's index arrays."""
        arrays = (self.members, self.cols, *self.fwd[:2], *self.bwd[:2],
                  self.colptr, self.rowidx, self.pos, self.loose_pos)  # fmt: skip
        return sum(a.nbytes for a in arrays)


def leaf_block(symb):
    """The pattern's :class:`LeafBlock`, built on first use and memoised on
    the symbolic cache beside :func:`solve_shapes`."""
    cache = symb.cache()
    block = cache.get("leaf_block")
    if block is None:
        block = cache["leaf_block"] = LeafBlock(symb)
    return block


def solve_shapes(symb):
    """Per supernode ``(first, last, w, below)`` — column range and width as
    plain ints, below-diagonal row indices — memoised on the symbolic cache:
    the pattern-static half of
    :meth:`~repro.numeric.storage.FactorStorage.solve_program`."""
    cache = symb.cache()
    shapes = cache.get("solve_shapes")
    if shapes is None:
        snptr = symb.snptr.tolist()
        shapes = cache["solve_shapes"] = tuple(
            (snptr[s], snptr[s + 1], snptr[s + 1] - snptr[s],
             symb.snode_below_rows(s))
            for s in range(symb.nsup)
        )
    return shapes


def _solve_structure(symb):
    """``(level, level_ptr, level_nodes, runs)`` — the part of a
    :class:`SolveSchedule` that no partition changes, memoised on ``symb``."""
    cache = symb.cache()
    got = cache.get("solve_structure")
    if got is None:
        level = solve_levels(symb)
        level_ptr = np.concatenate(([0], np.cumsum(np.bincount(level))))
        # stable ascending-id order within each level (the serial sweep order)
        level_nodes = np.argsort(level, kind="stable").astype(np.int64)
        got = cache["solve_structure"] = (level, level_ptr, level_nodes, _below_runs(symb))
    return got


def solve_schedule(symb, ranges=None):
    """The :class:`SolveSchedule` of ``symb`` over ``ranges`` (default: the
    pattern's :func:`~repro.symbolic.ranges.task_ranges`), memoised on the
    partition."""
    if ranges is None:
        ranges = task_ranges(symb)
    sched = ranges.memo.get("solve")
    if sched is not None:
        return sched
    level, level_ptr, level_nodes, runs = _solve_structure(symb)
    block = leaf_block(symb)
    nranges = len(ranges)
    bounds, range_of = ranges.bounds, ranges.range_of
    rest_ptr = np.searchsorted(block.rest, bounds).tolist()
    members = set(block.members.tolist())  # their updates are the block's: never parked
    leaving = []
    incoming = [[] for _ in range(nranges)]
    owners = [[] for _ in range(nranges)]  # task -> the tasks owning its leaving rows
    sources = [[] for _ in range(nranges)]  # task -> the tasks whose rows leave into it
    for s, srun in enumerate(runs):
        t = range_of[s]
        out = tuple((range_of[p], a, b) for p, a, b in srun if p >= bounds[t + 1])
        leaving.append((out[0][1], out) if out else None)
        for p, a, b in out:
            if s not in members:
                incoming[p].append((s, a, b))
            # sources ascend, so a range's runs into ``p`` are consecutive
            if not sources[p] or sources[p][-1] != t:
                owners[t].append(p)
                sources[p].append(t)

    def edges(children, feeders, incoming):
        indeg = tuple(len(f) for f in feeders)
        roots = tuple(t for t, n in enumerate(indeg) if not n)
        return SweepEdges(roots, tuple(map(tuple, children)), indeg, tuple(map(tuple, incoming)))

    if block.cols.size:
        # the block's halves as task ``nranges``: ahead of every root, behind every task
        roots = [t for t, f in enumerate(sources) if not f]
        fwd = edges(owners + [roots], [f or [nranges] for f in sources] + [[]], incoming + [[]])
        behind = [kids + [nranges] for kids in sources] + [[]]
        bwd = edges(behind, owners + [range(nranges)], [()] * (nranges + 1))
    else:
        fwd = edges(owners, sources, incoming)
        bwd = edges(sources, owners, [()] * nranges)
    ntasks = len(fwd.children)
    sched = ranges.memo["solve"] = SolveSchedule(
        level=level,
        level_ptr=level_ptr,
        level_nodes=level_nodes,
        runs=runs,
        ranges=ranges,
        leaving=tuple(leaving),
        rest=tuple(tuple(block.rest[a:b]) for a, b in zip(rest_ptr[:-1], rest_ptr[1:])),
        fwd=fwd,
        bwd=bwd,
        fused=SweepEdges(
            fwd.roots,
            tuple(kids + (ntasks + t,) for t, kids in enumerate(fwd.children[:nranges]))
            + fwd.children[nranges:]
            + tuple(tuple(ntasks + d for d in kids) for kids in bwd.children),
            fwd.indeg + tuple(n + 1 for n in bwd.indeg[:nranges]) + bwd.indeg[nranges:],
            fwd.incoming,
        ),
    )
    return sched
