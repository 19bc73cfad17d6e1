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
below rows) and, over a partition of the supernodes into task ranges
(:mod:`repro.symbolic.ranges`; one task per range, not per supernode), which
runs leave their range, which reach each task from outside (what it pulls)
and both dependency directions between the ranges (:class:`SweepEdges`) —
once per pattern, memoised like the factorization task-DAG plans, so
repeated solves (many right-hand sides, streaming serving) do no structural
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ranges import TaskRanges, task_ranges

__all__ = ["SolveSchedule", "SweepEdges", "solve_schedule", "solve_levels", "solve_shapes"]


def solve_levels(symb):
    """Level of every supernode in the supernodal elimination tree.

    ``level[s] = 0`` for leaves, otherwise ``1 + max(level of children)`` —
    the earliest forward-solve round in which ``s`` can run.  One ascending
    pass suffices because the analyzed system is postordered (children
    precede parents).
    """
    level = np.zeros(symb.nsup, dtype=np.int64)
    parent = symb.sn_parent
    for s in range(symb.nsup):
        p = parent[s]
        if p >= 0:
            level[p] = max(level[p], level[s] + 1)
    return level


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
    fwd / bwd / fused:
        The :class:`SweepEdges` of the forward sweep (a range feeds the
        tasks owning its leaving rows), of the backward sweep (the same
        edges reversed) and of the *combined* full solve — forward tasks
        ``0..R-1``, backward task ``t`` under the id ``R + t`` and also fed
        by its own forward task, so one graph runs both sweeps on one pool,
        overlapping the backward leaves with the forward root.
    """

    level: np.ndarray
    level_ptr: np.ndarray
    level_nodes: np.ndarray
    runs: tuple
    ranges: TaskRanges
    leaving: tuple
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


def _below_runs(symb, s):
    """Contiguous same-owner runs of ``s``'s below-diagonal rows."""
    below = symb.snode_below_rows(s)
    if not below.size:
        return ()
    owners = symb.col2sn[below]
    cuts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [owners.size]))
    return tuple(
        (int(owners[bounds[i]]), int(bounds[i]), int(bounds[i + 1]))
        for i in range(bounds.size - 1)
    )


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
        nlevels = int(level.max()) + 1 if symb.nsup else 0
        level_ptr = np.zeros(nlevels + 1, dtype=np.int64)
        np.add.at(level_ptr, level + 1, 1)
        np.cumsum(level_ptr, out=level_ptr)
        # stable ascending-id order within each level (the serial sweep order)
        level_nodes = np.argsort(level, kind="stable").astype(np.int64)
        runs = tuple(_below_runs(symb, s) for s in range(symb.nsup))
        got = cache["solve_structure"] = (level, level_ptr, level_nodes, runs)
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
    nranges = len(ranges)
    bounds, range_of = ranges.bounds, ranges.range_of
    leaving = []
    incoming = [[] for _ in range(nranges)]
    owners = [[] for _ in range(nranges)]  # task -> the tasks owning its leaving rows
    sources = [[] for _ in range(nranges)]  # task -> the tasks whose rows leave into it
    for s, srun in enumerate(runs):
        t = range_of[s]
        out = tuple((range_of[p], a, b) for p, a, b in srun if p >= bounds[t + 1])
        leaving.append((out[0][1], out) if out else None)
        for p, a, b in out:
            incoming[p].append((s, a, b))
            # sources ascend, so a range's runs into ``p`` are consecutive
            if not sources[p] or sources[p][-1] != t:
                owners[t].append(p)
                sources[p].append(t)

    def edges(children, feeders, incoming):
        indeg = tuple(len(f) for f in feeders)
        roots = tuple(t for t, n in enumerate(indeg) if not n)
        return SweepEdges(roots, tuple(map(tuple, children)), indeg, tuple(map(tuple, incoming)))

    fwd = edges(owners, sources, incoming)
    bwd = edges(sources, owners, [()] * nranges)
    sched = ranges.memo["solve"] = SolveSchedule(
        level=level,
        level_ptr=level_ptr,
        level_nodes=level_nodes,
        runs=runs,
        ranges=ranges,
        leaving=tuple(leaving),
        fwd=fwd,
        bwd=bwd,
        fused=SweepEdges(
            fwd.roots,
            tuple(kids + (nranges + t,) for t, kids in enumerate(fwd.children))
            + tuple(tuple(nranges + d for d in kids) for kids in bwd.children),
            fwd.indeg + tuple(n + 1 for n in bwd.indeg),
            fwd.incoming,
        ),
    )
    return sched
