"""Threaded task-DAG execution of the *real* numeric kernels.

This module executes the coarse (RL-style) and fine (RLB-style) task DAGs:
a shared-ready-queue worker pool (the MA87-style DAG runtime of the
paper's ref [9]) runs the task bodies of
:mod:`repro.numeric.rl` / :mod:`repro.numeric.rlb` on ``workers`` Python
threads.  The dense kernels release the GIL inside BLAS, so tasks overlap
on real cores.

**Subtrees, not supernodes.**  What is scheduled is a *task range*
(:mod:`repro.symbolic.ranges`): a run of consecutive supernodes closed
under descendants — whole elimination subtrees — executes the serial
bodies in elimination order as ONE task (:func:`run_coarse_range` /
:func:`~repro.numeric.rlb.run_pair_range`).  Only the supernodes at the top
of the tree are tasks of their own, one task each at either granularity.

**The target pulls.**  The right-looking step's one cross-task write — a
factorized supernode's update assembled into an ancestor of another range —
follows one rule on every substrate (:func:`range_tasks`): the source
*parks* the update, and the target's own task subtracts what was parked
for it, in the order :attr:`DagPlan.incoming` lists (ascending source: the
serial engines' accumulation order), before it factorizes.

* **Safety** — a panel has one writer, its own range's task, which starts
  once a :class:`Countdown` over :attr:`DagPlan.indeg` has seen every task
  that parks for it finish: no per-panel lock, no second writer.
* **Determinism** — floating-point accumulation is not associative, and the
  order a panel accumulates in is a list in the plan, not a property of
  the schedule: any topological order of the graph gives the serial
  engines' bits at any worker count (``tests/test_pull_order.py``).

**One plan, one drain.**  :func:`dag_plan` is the single static description
of a task DAG per granularity and partition (task ids, incoming updates,
roots, edges), memoised on the partition with the index beneath
it (RL's assembly index, RLB's pair index) on
:meth:`SymbolicFactor.cache`, so repeated same-pattern refactorization
(``SymbolicPlan.factorize``) re-executes only the numeric kernels; the
thread and process substrates read it at the pattern's
:func:`~repro.symbolic.ranges.task_ranges`.  One graph runs on one
substrate, threads or processes, never a mix.  :func:`run_task_graph` is the
threaded drain: any static ``(ntasks, roots, run_task)`` triple, one graph
per call, on ``min(workers, ntasks)`` threads over one ready queue — a
one-task graph on the calling thread — re-raising its first exception; it
runs :func:`factorize_executor` and the fused triangular solve graph of
:mod:`repro.solve.triangular`.  Requests are not graphs:
:class:`repro.api.ServingSession` and :class:`repro.serving.Gateway` submit
each one as ONE task to a :class:`concurrent.futures.ThreadPoolExecutor`
(a threads row runs its serial twin there, the solve right after it), and a
closed batch (:meth:`repro.api.SymbolicPlan.factorize_batch`) is a loop of
factorizations.

Passing a :class:`~repro.gpu.trace.Tracer` to :func:`factorize_executor`
records every task's measured start/stop interval on a per-worker-thread
lane, so real thread occupancy can be laid next to the *modeled* Gantt
charts of the offload engines (CLI: ``factorize --workers N --trace
out.json``).
"""

from __future__ import annotations

import bisect
import operator
import os
import threading
import time
from collections import deque
from typing import NamedTuple

import numpy as np

from ..dense.kernels import factor_routines
from ..symbolic.blocks import pair_index
from ..symbolic.ranges import TaskRanges, task_ranges
from ..symbolic.relind import assembly_index
from .result import FactorizeResult
from .rl import _assemble, apply_run, factor_update, park_runs
from .rlb import run_pair_range
from .storage import FactorStorage

__all__ = [
    "factorize_executor",
    "run_task_graph",
    "Countdown",
    "dag_plan",
    "GRANULARITIES",
    "default_workers",
]

GRANULARITIES = ("coarse", "fine")

#: Task granularity -> the serial engine family whose bodies the DAG runs.
_FAMILY = {"coarse": "rl", "fine": "rlb"}


def default_workers():
    """Default worker count: the machine's cores, capped at 4 (the paper's
    CPU baselines sweep small MKL thread counts; beyond that the Python
    dispatch layer, not BLAS, becomes the bottleneck)."""
    return max(1, min(4, os.cpu_count() or 1))


def _resolve_workers(workers):
    # operator.index: 2.5 workers is a TypeError, not two workers
    workers = default_workers() if workers is None else operator.index(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


class Countdown:
    """The readiness counter of one task graph in flight, over a copy of the
    plan's ``indeg``: :meth:`deliver` hands one part to each task of
    ``targets`` and returns the ones that just received their last — each
    task exactly once, whichever thread delivers it.  It orders nothing: what
    a target applies, and in which order, is the plan's ``incoming`` list."""

    __slots__ = ("_left", "_lock")

    def __init__(self, indeg):
        self._left = list(indeg)
        self._lock = threading.Lock()

    def deliver(self, targets):
        left = self._left
        ready = []
        with self._lock:
            for t in targets:
                left[t] -= 1
                if not left[t]:
                    ready.append(t)
        return ready

    def task(self, run, children):
        """The ``run_task`` of a graph counted here: ``run(tid)``, then one
        part to each of ``children[tid]``; returns the tasks that released."""

        def run_task(tid):
            run(tid)
            return self.deliver(children[tid])

        return run_task


def run_task_graph(ntasks, roots, run_task, workers):
    """Execute one static task graph on ``min(workers, ntasks)`` threads.

    ``run_task(tid)`` performs task ``tid`` and returns the task ids it
    released; ``roots`` are the initially ready tasks.  ``repro-exec-{i}``
    threads drain one shared ready queue until every task ran; the first task
    exception stops the drain (tasks already running finish, no new one
    starts) and is re-raised here.  A graph of one task runs on the calling
    thread (starting and joining a thread costs more than the whole
    factorization of a small matrix).  This is the generic runtime behind
    :func:`factorize_executor` and the fused triangular solve graph of
    :mod:`repro.solve.triangular`.
    """
    workers = _resolve_workers(workers)
    ready = deque(roots)
    if ntasks and not ready:
        # no task could ever start, and the drain would wait forever
        raise ValueError("ntasks > 0 needs at least one root")
    if ntasks <= 1:
        if ntasks:
            run_task(ready[0])
        return
    cv = threading.Condition()
    left = ntasks  # tasks not yet finished
    errors = []

    def drain():
        nonlocal left
        while True:
            with cv:
                while not ready and left and not errors:
                    cv.wait()
                if errors or not ready:
                    return  # failed, or every task ran
                tid = ready.popleft()
            try:
                newly = run_task(tid)
            except BaseException as exc:  # re-raised on the calling thread
                with cv:
                    errors.append(exc)
                    cv.notify_all()
                return
            with cv:
                left -= 1
                if newly:
                    ready.extend(newly)
                    cv.notify(len(newly))
                if not left:
                    cv.notify_all()

    threads = [
        threading.Thread(target=drain, name=f"repro-exec-{i}", daemon=True)
        for i in range(min(workers, ntasks))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _traced_run(run_task, label_of, tracer, t0):
    """Wrap ``run_task`` so every execution records a measured
    ``(worker-thread lane, task label, start, stop)`` interval (seconds
    since ``t0``) into ``tracer`` — the real-occupancy counterpart of the
    modeled schedules."""

    def run(tid):
        start = time.perf_counter() - t0
        try:
            return run_task(tid)
        finally:
            tracer.record(
                threading.current_thread().name,
                label_of(tid),
                start,
                time.perf_counter() - t0,
            )

    return run


def _task_label_fn(plan):
    """Human-readable task labels for trace events: a range of several
    supernodes is ``snodes:lo-hi`` (its first and last supernode), a single
    supernode ``snode:12``."""
    bounds = plan.ranges.bounds

    def label(tid):
        lo, hi = bounds[tid], bounds[tid + 1]
        return f"snode:{lo}" if hi - lo == 1 else f"snodes:{lo}-{hi - 1}"

    return label


# NOTE: dag_plan and range_tasks below are the shared substrate of both DAG
# backends — repro.numeric.procpool runs the same task body and schedules
# from the plan's edges.  Renaming them is a cross-module change.
class DagPlan(NamedTuple):
    """Static task DAG of one granularity over one partition of the
    supernodes (see :func:`dag_plan`).

    Task ``t`` is range ``t``: it runs the serial bodies over the range's
    supernodes, one supernode or several, so ``ntasks == len(ranges)``.
    """

    granularity: str
    ranges: TaskRanges
    ntasks: int
    #: per supernode, how many of its leading assembly runs (coarse) or
    #: blocks (fine) are owned by a supernode of its own range — their
    #: updates are applied by the range's task itself; the rest *leave*
    stay: tuple
    #: fine only (empty for coarse): per block pair that leaves its source's
    #: range, under its slot ``0..`` (the leaving pairs in serial order),
    #: where it lands — ``(owner, r0, r1, c0, c1)``,
    #: :meth:`~repro.symbolic.blocks.PairIndex.targets` — and per supernode
    #: the (consecutive) slots of its leaving pairs
    targets: tuple
    pair_ids: tuple
    #: tasks that wait for nothing (initially ready)
    roots: tuple
    #: tasks each task feeds / how many parts each task waits for (counted by
    #: a :class:`Countdown` or the process pool's parent): a finished range
    #: delivers one part to every task it parked an update for
    children: tuple
    indeg: tuple
    #: per range task, the updates that reach it from outside its range, in
    #: the serial engines' accumulation order — coarse: ``(source, run)``,
    #: ``run`` the position among the source's assembly runs (what
    #: :func:`~repro.numeric.rl.apply_run` takes), ascending by source; fine:
    #: pair slots, ascending source, then the serial pair enumeration order
    incoming: tuple


def dag_plan(symb, granularity, ranges=None):
    """The static :class:`DagPlan` of ``granularity`` over ``ranges``
    (default: the pattern's :func:`~repro.symbolic.ranges.task_ranges`),
    memoised on the partition — the one description of the task DAG that the
    thread and process substrates both schedule from.

    Building it builds the index beneath it (the pattern's
    :func:`~repro.symbolic.relind.assembly_index` for coarse, its
    :func:`~repro.symbolic.blocks.pair_index` for fine), so call it once on
    the submitting thread and later reads from worker threads or streaming
    callbacks never mutate the symbolic cache concurrently.  Idempotent and
    cheap after the first call.
    """
    if ranges is None:
        ranges = task_ranges(symb)
    key = "executor_" + granularity
    plan = ranges.memo.get(key)
    if plan is not None:
        return plan
    build = _coarse_edges if granularity == "coarse" else _fine_edges
    stay, incoming, indeg, children, targets, pair_ids = build(symb, ranges)
    plan = ranges.memo[key] = DagPlan(
        granularity=granularity,
        ranges=ranges,
        ntasks=len(ranges),
        stay=tuple(stay),
        targets=targets,
        pair_ids=tuple(pair_ids),
        roots=tuple(p for p, n in enumerate(indeg) if not n),
        children=tuple(tuple(kids) for kids in children),
        indeg=tuple(indeg),
        incoming=tuple(tuple(x) for x in incoming),
    )
    return plan


def _coarse_edges(symb, ranges):
    """The coarse half of :func:`dag_plan`: per supernode the assembly runs
    that stay, per range task the runs reaching it from outside, and the
    scheduler's edges: one part per (source range, target)."""
    nranges = len(ranges)
    bounds, range_of = ranges.bounds, ranges.range_of
    stay = []
    incoming = [[] for _ in range(nranges)]
    indeg = [0] * nranges
    children = [[] for _ in range(nranges)]
    index = assembly_index(symb)
    for s, targets in enumerate(index.targets):
        t = range_of[s]
        # runs ascend by target, so the ones inside the range come first
        stay.append(bisect.bisect_left(targets, bounds[t + 1]))
        for r in range(stay[s], len(targets)):
            p = range_of[targets[r]]
            # sources ascend, so a range's runs into ``p`` are consecutive
            if not incoming[p] or range_of[incoming[p][-1][0]] != t:
                indeg[p] += 1
                children[t].append(p)
            incoming[p].append((s, r))
    return stay, incoming, indeg, children, (), ()


def _fine_edges(symb, ranges):
    """The fine half of :func:`dag_plan`, array-at-a-time from the pattern's
    :func:`~repro.symbolic.blocks.pair_index`: a block stays when its owner
    lies inside its source's range (owners ascend, so the staying blocks of
    a source lead), a pair leaves with its upper block and is parked under
    its slot, its position among the leaving pairs in serial order."""
    index = pair_index(symb)
    nsup, nranges = symb.nsup, len(ranges)
    bounds = np.asarray(ranges.bounds)
    range_of = np.asarray(ranges.range_of, dtype=np.int64)  # an empty list is float64
    blk_range = range_of[index.blk_source]
    inside = index.blk_owner < bounds[blk_range + 1]
    stay = np.bincount(index.blk_source[inside], minlength=nsup).tolist()
    gone = np.flatnonzero(~inside[index.upper])  # the leaving pairs, serial order
    source = index.blk_source[index.upper[gone]]
    src, dst = range_of[source], range_of[index.blk_owner[index.upper[gone]]]
    count = np.bincount(source, minlength=nsup)
    first = np.cumsum(count) - count  # each source's first slot
    pair_ids = [range(a, a + n) for a, n in zip(first.tolist(), count.tolist())]
    # per target, ascending source then serial order — the order of ``gone``
    by_target = np.argsort(dst, kind="stable")
    cut = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=nranges)))).tolist()
    reaching = by_target.tolist()
    incoming = [reaching[a:b] for a, b in zip(cut[:-1], cut[1:])]
    # one part per (source range, target)
    edge_dst, edge_src = np.divmod(np.unique(dst * nranges + src), nranges)
    indeg = np.bincount(edge_dst, minlength=nranges).tolist()
    children = [[] for _ in range(nranges)]
    for p, t in zip(edge_dst.tolist(), edge_src.tolist()):
        children[t].append(p)
    return stay, incoming, indeg, children, index.targets_of(gone), pair_ids


def run_coarse_range(storage, index, plan, program, routines, lo, hi, leave):
    """The serial RL bodies over the supernodes ``lo..hi-1`` of one range:
    factorize, form the update matrix, subtract the runs that stay inside the
    range (:attr:`DagPlan.stay`) straight from it.  ``leave(s, U)`` gets every
    source that also has runs leaving the range, to park ``U`` for their
    targets."""
    targets = index.targets
    stay = plan.stay
    for s in range(lo, hi):
        U = factor_update(program[s], routines)
        if U is None:
            continue
        if stay[s] == len(targets[s]):
            _assemble(storage, index, s, U)
            continue
        if stay[s]:
            _assemble(storage, index, s, U, stay[s])
        leave(s, U)


def range_tasks(symb, storage, plan, parked):
    """``run(tid)`` — the task body of ``plan``'s graph over ``storage``, the
    same on a pool thread and in a worker process.

    A range task first *pulls*: it subtracts from its panels the updates that
    reach it from outside its range, :attr:`DagPlan.incoming` in the order
    listed, read from ``parked``, each entry dropped after its last reader.
    Then it runs the serial bodies over the range (:func:`run_coarse_range` /
    ``run_pair_range``), parking what leaves.  ``parked`` maps a coarse
    source supernode to what :func:`~repro.numeric.rl.park_runs` keeps of its
    update matrix and a fine pair's slot to its product: a plain dict
    in-process, the shared scratch views across processes.
    """
    bounds = plan.ranges.bounds
    incoming = plan.incoming
    program = storage.factor_program()  # built here, on the submitting thread
    if plan.granularity == "coarse":
        index = assembly_index(symb)
        routines = factor_routines(storage.dtype)
        runs, stay = index.targets, plan.stay

        def pull(tid):
            for s, r in incoming[tid]:
                apply_run(storage, index, s, r, parked[s], stay[s])
                # the targets of a source lie on one path of the elimination
                # tree, so the task reading its last run reads last
                if r + 1 == len(runs[s]):
                    del parked[s]

        def leave(s, U):
            parked[s] = park_runs(storage, index, s, U, stay[s])

        def run(tid):
            pull(tid)
            lo, hi = bounds[tid], bounds[tid + 1]
            run_coarse_range(storage, index, plan, program, routines, lo, hi, leave)

        return run

    index = pair_index(symb)
    panels, targets = storage.panels, plan.targets

    def leave(first, updates):
        for slot, u in enumerate(updates, first):
            parked[slot] = u

    def run(tid):
        for slot in incoming[tid]:
            p, r0, r1, c0, c1 = targets[slot]
            panels[p][r0:r1, c0:c1] -= parked[slot]
            del parked[slot]
        run_pair_range(storage, index, bounds[tid], bounds[tid + 1], plan, leave)

    return run


def factorize_executor(
    symb,
    A,
    *,
    workers=None,
    granularity="coarse",
    tracer=None,
    dtype=None,
):
    """Factorize with the task-DAG runtime on worker threads.

    A measured row: the result's model fields are ``None`` and ``extra``
    holds ``workers``, ``backend``, ``granularity``, ``tasks`` and the
    measured ``wall_seconds`` (the serial twin, ``rl`` / ``rlb``, carries
    the paper's modeled CPU baseline).

    Parameters
    ----------
    workers:
        Thread count (``None``: :func:`default_workers`).  Results are
        bit-identical for every value — see :func:`range_tasks`.
    granularity:
        ``"coarse"`` — the RL bodies (POTRF + TRSM + SYRK + ordered
        assembly), ``"fine"`` — the RLB bodies; one task per task range
        either way.
    tracer:
        Optional :class:`~repro.gpu.trace.Tracer`; when given, every task's
        measured start/stop is recorded on its worker thread's lane
        (real occupancy next to the modeled Gantt charts).
    dtype:
        Factor precision (``None`` keeps the values' dtype; float32 is the
        mixed-precision lane).  Bit-identity across worker counts holds in
        every precision — the order a panel accumulates in is dtype-independent.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}; choose from {GRANULARITIES}")
    workers = _resolve_workers(workers)
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    plan = dag_plan(symb, granularity)
    run_task = Countdown(plan.indeg).task(range_tasks(symb, storage, plan, {}), plan.children)
    t0 = time.perf_counter()
    if tracer is not None:
        run_task = _traced_run(run_task, _task_label_fn(plan), tracer, t0)
    run_task_graph(plan.ntasks, plan.roots, run_task, workers)
    extra = {
        "workers": workers,
        "backend": "threads",
        "granularity": granularity,
        "wall_seconds": time.perf_counter() - t0,
        "tasks": plan.ntasks,
    }
    return FactorizeResult(_FAMILY[granularity] + "_par", storage, symb.nsup, extra=extra)
