"""Elimination-tree schedule of the supernodal triangular solves.

The forward sweep ``L y = b`` has exactly the elimination tree's dependency
structure: supernode ``J`` may solve its diagonal block only after every
*descendant* whose below-diagonal rows reach into ``J``'s columns has
subtracted its contribution, and ``J``'s own GEMV then updates segments of
``y`` owned by ``J``'s ancestors.  Grouping supernodes by tree depth from
the leaves yields the classical *level schedule*: every supernode in level
``ℓ`` depends only on supernodes in levels ``< ℓ``, so whole levels are
independent solve tasks (the backward sweep runs the same schedule in
reverse).  The number of levels (:func:`solve_levels`) is the height of the
supernodal elimination tree.

:func:`solve_schedule` computes everything the fused parallel solve needs —
per-supernode update *runs* (which ancestor owns which slice of the below
rows; all supernodes in one array pass) and, over a partition of the
supernodes into task ranges (:mod:`repro.symbolic.ranges`; one task per
range, not per supernode), which runs leave their range, which reach each
task from outside (what it pulls) and both dependency directions between the
ranges (:class:`SweepEdges`) — once per pattern, memoised like the
factorization task-DAG plans, so repeated solves do no structural work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ranges import TaskRanges, task_ranges
from .relind import _ranges

__all__ = ["SolveSchedule", "SweepEdges", "path_tables", "solve_schedule", "solve_levels",
           "solve_shapes"]  # fmt: skip


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
    """Pattern-only schedule of the parallel triangular solves over one
    partition of the supernodes into task ranges
    (:mod:`repro.symbolic.ranges`).

    Task ``t`` of a sweep runs the serial body over the supernodes of range
    ``t`` — ascending in the forward sweep, descending in the backward one.
    A below-diagonal row owned by a supernode of the same range is updated
    (forward) or read (backward) by the task itself; the rows that *leave*
    the range belong to single-supernode ranges above the cut, whose own
    tasks subtract the parked updates (forward) or are waited for (backward).

    Attributes
    ----------
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
        edges reversed) and of the *combined* full solve, the one graph
        that runs.  ``fused`` keeps the forward ids and puts backward task
        ``t`` under ``len(fwd.children) + t``, also fed by its own forward
        task — one graph runs both sweeps on one pool, overlapping the
        backward leaves with the forward root.
    """

    runs: tuple
    ranges: TaskRanges
    leaving: tuple
    fwd: SweepEdges
    bwd: SweepEdges
    fused: SweepEdges


def _below_runs(symb):
    """Per supernode, the contiguous same-owner runs ``(owner, lo, hi)`` of
    its below rows, from ONE pass over all below rows (the pass
    :func:`~repro.symbolic.blocks.pair_index` makes): a run starts where the
    owner or the source changes.  No partition changes them: memoised on
    ``symb``."""
    cache = symb.cache()
    if "solve_structure" in cache:
        return cache["solve_structure"]
    w = np.diff(symb.snptr)
    _, source, k = _ranges(np.diff(symb.rowptr) - w)
    owner = symb.col2sn[symb.rows[(symb.rowptr[:-1] + w)[source] + k]]
    first = np.ones(owner.size, dtype=bool)
    first[1:] = (source[1:] != source[:-1]) | (owner[1:] != owner[:-1])
    at = np.flatnonzero(first)
    hi = k[at] + np.diff(np.append(at, owner.size))
    runs = list(zip(owner[at].tolist(), k[at].tolist(), hi.tolist()))
    ptr = np.searchsorted(source[at], np.arange(symb.nsup + 1)).tolist()
    got = cache["solve_structure"] = tuple(tuple(runs[a:b]) for a, b in zip(ptr[:-1], ptr[1:]))
    return got


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


def path_tables(symb):
    """``(snptr, rowptr, sn_parent, exit)`` as plain-int lists, memoised on
    the symbolic cache: what an elimination-tree path walk reads.
    ``exit[s]`` is ``s``'s first below-diagonal row, through which a path
    leaves ``s`` for ``sn_parent[s]``, or ``-1`` at a root."""
    cache = symb.cache()
    tables = cache.get("path_tables")
    if tables is None:
        top = symb.rowptr[:-1] + np.diff(symb.snptr)
        exit_ = np.where(top < symb.rowptr[1:], symb.rows[np.minimum(top, symb.rows.size - 1)], -1)
        tables = cache["path_tables"] = (symb.snptr.tolist(), symb.rowptr.tolist(),
                                         symb.sn_parent.tolist(), exit_.tolist())
    return tables


def solve_schedule(symb, ranges=None):
    """The :class:`SolveSchedule` of ``symb`` over ``ranges`` (default: the
    pattern's :func:`~repro.symbolic.ranges.task_ranges`), memoised on the
    partition."""
    if ranges is None:
        ranges = task_ranges(symb)
    sched = ranges.memo.get("solve")
    if sched is not None:
        return sched
    runs = _below_runs(symb)
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
