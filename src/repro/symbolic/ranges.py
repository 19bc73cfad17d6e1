"""Task ranges: the partition of the supernodes that the runtimes schedule.

Scheduling every supernode as its own task costs more than running it: a
task's dispatch, its countdown traffic and its closures are tens of
microseconds, and under nested dissection most supernodes are a few columns
wide.  The standard remedy is subtree-to-worker mapping (Geist & Ng 1989):
hand each worker whole elimination subtrees and schedule individually only
the supernodes at the top of the tree.

:func:`task_ranges` cuts ``0..nsup`` into consecutive postorder ranges such
that every range is either a **single supernode** or **closed under
descendants** — a union of adjacent complete subtrees.  A closed range runs
the serial bodies over its supernodes in elimination order: every source
that updates one of its supernodes is itself in the range (an update always
goes from a descendant to an ancestor), so inside the range the accumulation
order is the serial one and nothing needs a lock.  An update that *leaves* a
range lands on a proper ancestor of one of its subtree roots; a closed range
containing that ancestor would contain the subtree too, so the target is
always a single-supernode range.  Parked updates are therefore pulled only
by the single supernodes above the cut, and because ranges are disjoint
intervals the scheduler counts one part per (range, target): ascending range
is ascending source.

The partition depends on the pattern only — same ranges at every worker
count, dtype and backend — and is memoised on the symbolic factor.
:func:`trivial_ranges` is the partition into single supernodes, which the
simulated-device substrates schedule (placement and modeled time are per
supernode).  Everything built for one partition (DAG plans, solve schedules,
scratch layouts) is memoised on the :class:`TaskRanges` object itself.

The cut rule and the measurements behind :data:`SNODE_WORK` and
:data:`RANGE_WORK` are in ``docs/executor.md`` ("Task ranges").
"""

from __future__ import annotations

import numpy as np

__all__ = ["TaskRanges", "task_ranges", "trivial_ranges", "SNODE_WORK", "RANGE_WORK", "RANGE_SHARE"]

#: Fixed cost of one supernode in the work estimate, in the flop-like units
#: of its ``w³/3 + b·w² + b²·w`` kernel term: the Python around the kernels
#: costs about what 2·10⁴ flops do, which is all a one-column supernode is.
SNODE_WORK = 2.0e4
#: A subtree whose summed work is at most this is never split: below it a
#: task body is shorter than the ~20 µs it costs to schedule a few of them.
RANGE_WORK = 3.0e6
#: ... and neither is one below this share of the whole pattern's work, so
#: a large pattern is cut into about eight leaf ranges (twice the worker
#: cap of :func:`~repro.numeric.executor.default_workers`) rather than into
#: hundreds of :data:`RANGE_WORK`-sized ones.
RANGE_SHARE = 1.0 / 8.0


class TaskRanges:
    """A partition of ``0..nsup`` into consecutive ranges.

    Attributes
    ----------
    bounds:
        ``len(self) + 1`` plain ints, strictly increasing from 0 to ``nsup``;
        range ``t`` is the supernodes ``bounds[t] .. bounds[t + 1] - 1``.
    range_of:
        Per supernode, the index of its range.
    memo:
        Whatever was derived from this partition (DAG plans, the solve
        schedule, the process pool's scratch layouts), by name.
    """

    __slots__ = ("bounds", "range_of", "memo")

    def __init__(self, bounds):
        bounds = np.asarray(bounds, dtype=np.int64)
        self.bounds = tuple(bounds.tolist())
        self.range_of = np.repeat(np.arange(bounds.size - 1), np.diff(bounds)).tolist()
        self.memo = {}

    def __len__(self):
        return len(self.bounds) - 1

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"TaskRanges({len(self)} ranges over {self.bounds[-1]} supernodes)"


def trivial_ranges(symb):
    """Every supernode its own range (memoised on ``symb``)."""
    cache = symb.cache()
    ranges = cache.get("trivial_ranges")
    if ranges is None:
        ranges = cache["trivial_ranges"] = TaskRanges(np.arange(symb.nsup + 1))
    return ranges


def _subtree_work(symb):
    """The work estimate of every supernode summed over its subtree."""
    w = np.diff(symb.snptr).astype(np.float64)
    b = np.diff(symb.rowptr) - w
    work = (w * w * w / 3.0 + b * w * w + b * b * w + SNODE_WORK).tolist()
    for s, p in enumerate(symb.sn_parent.tolist()):
        if p >= 0:  # children precede parents: work[s] is already complete
            work[p] += work[s]
    return work


def _cut(symb):
    """The bounds of :func:`task_ranges`.

    A *piece* is a maximal subtree whose work fits the budget; pieces that
    touch in the postorder are packed left to right while their sum still
    fits (a bushy tree — KKT, random sparse — has hundreds of tiny sibling
    subtrees under one fat root); every supernode outside a piece is alone.
    A supernode is in a piece exactly when its own subtree fits, so a piece
    starts where the previous range ended and only its root closes it.
    """
    work = _subtree_work(symb)
    parent = symb.sn_parent.tolist()
    total = sum(x for x, p in zip(work, parent) if p < 0)
    budget = max(RANGE_WORK, total * RANGE_SHARE)
    bounds = [0]
    packed = None  # work of the last range while more pieces may join it
    for s, p in enumerate(parent):
        if work[s] > budget:  # above the cut: alone
            bounds.append(s + 1)
            packed = None
        elif p < 0 or work[p] > budget:  # the root of a piece
            if packed is not None and packed + work[s] <= budget:
                bounds[-1] = s + 1
                packed += work[s]
            else:
                bounds.append(s + 1)
                packed = work[s]
    return bounds


def task_ranges(symb):
    """The scheduled partition of ``symb`` (see the module docstring),
    memoised on it; :func:`trivial_ranges` itself when the cut leaves every
    supernode alone."""
    cache = symb.cache()
    ranges = cache.get("task_ranges")
    if ranges is None:
        bounds = _cut(symb)
        ranges = trivial_ranges(symb) if len(bounds) == symb.nsup + 1 else TaskRanges(bounds)
        cache["task_ranges"] = ranges
    return ranges
