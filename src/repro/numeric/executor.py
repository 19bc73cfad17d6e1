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
of the tree are tasks of their own (coarse: POTRF + TRSM + SYRK per
supernode; fine: one factor task plus one task per block pair).

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

**One plan, one pool.**  :func:`dag_plan` is the single static description
of a task DAG per granularity and partition (task ids, incoming updates,
roots, edges), memoised on the partition with the index beneath
it (RL's assembly index, RLB's pair index) on
:meth:`SymbolicFactor.cache`, so repeated same-pattern refactorization
(``SymbolicPlan.factorize``) re-executes only the numeric kernels; the
thread and process substrates read it at the pattern's
:func:`~repro.symbolic.ranges.task_ranges`.  One graph runs on one
substrate, threads or processes, never a mix.  :class:`StreamPool` is the single
threaded dispatch loop: a shared ready queue of ``(graph, task)`` entries
drained by ``workers`` threads, any number of graphs in flight, a failing
graph (a non-SPD matrix) failing only its own ``on_error`` callback, never
the pool.

* :func:`run_task_graph` runs any static ``(ntasks, roots, run_task)``
  triple as one graph on a transient pool — a one-task graph on the calling
  thread — and re-raises its first exception: the runtime behind
  :func:`factorize_executor` and the level-scheduled triangular solves of
  :mod:`repro.solve.triangular`;
* :class:`repro.api.ServingSession` and :class:`repro.serving.Gateway`
  keep one *persistent* pool alive and submit graphs (one
  :func:`stream_factorize_job` per matrix) as requests arrive — the only
  place several graphs share a pool, because only there do requests
  overlap.  A closed batch (:meth:`repro.api.SymbolicPlan.factorize_batch`)
  is a loop of factorizations, one graph after another.

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
from .rl import _assemble, apply_run, factor_snode, factor_update, park_runs
from .rlb import compute_block_pair, run_pair_range
from .storage import FactorStorage

__all__ = [
    "factorize_executor",
    "run_task_graph",
    "Countdown",
    "StreamPool",
    "stream_factorize_job",
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


class _StreamJob:
    """One task graph in flight on a :class:`StreamPool`."""

    __slots__ = ("run_task", "outstanding", "failed", "on_complete", "on_error")

    def __init__(self, run_task, ntasks, on_complete, on_error):
        self.run_task = run_task
        self.outstanding = ntasks
        self.failed = False
        self.on_complete = on_complete
        self.on_error = on_error


class StreamPool:
    """The shared-ready-queue worker pool: the one threaded dispatch loop.

    A ``StreamPool`` keeps ``workers`` threads alive across any number of
    :meth:`submit_graph` calls — task graphs arrive whenever the caller has
    them and all drain through one shared ready queue, so the pool stays
    saturated across graph boundaries.  Streaming serving keeps one pool
    for the session's life; :func:`run_task_graph` opens one for its one
    graph.

    Failure isolation: the first exception inside a graph marks *that*
    graph failed — its ``on_error`` callback fires once, its not-yet-run
    tasks are dropped from the queue — while every other graph and the pool
    itself keep running.  This is what lets a streaming serving session
    surface a non-SPD matrix on its own future instead of killing the pool.

    :meth:`close` drains every in-flight graph, then stops and joins the
    workers; the pool is a context manager (``with StreamPool(4) as pool:``).
    Submission is single-producer: callbacks run on worker threads, but
    ``submit_graph`` itself is expected from one controlling thread.
    """

    def __init__(self, workers=None, *, name="repro-stream"):
        self.workers = workers = _resolve_workers(workers)
        self._cv = threading.Condition()
        self._ready = deque()  # (job, tid)
        self._active = 0  # submitted graphs not yet completed/failed
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    def submit_graph(self, ntasks, roots, run_task, *, on_complete, on_error):
        """Enqueue one static task graph; returns immediately.

        ``on_complete()`` fires (on a worker thread) when every task ran;
        ``on_error(exc)`` fires instead on the graph's first task
        exception.  ``on_complete`` may itself submit a follow-up graph —
        the pool counts the current graph as active until the callback
        returns, so a chained submission can never race ``close`` into a
        premature shutdown.  A non-empty graph without a root could never
        start (and would wedge :meth:`close`), so it is refused here.
        """
        roots = list(roots)
        if ntasks and not roots:
            raise ValueError("ntasks > 0 needs at least one root")
        job = _StreamJob(run_task, ntasks, on_complete, on_error)
        with self._cv:
            # a closed pool still accepts submissions while graphs are in
            # flight (the drain): chained follow-up graphs from completion
            # callbacks keep `active` > 0, so the workers are provably
            # still alive.  Only a closed AND drained pool (threads gone)
            # must refuse.
            if self._closed and self._active == 0:
                raise RuntimeError("pool is closed")
            self._active += 1
            if ntasks:
                self._ready.extend((job, t) for t in roots)
                self._cv.notify(len(roots))
        if not ntasks:
            self._finish(job)
        return job

    @property
    def active(self):
        """Number of submitted graphs not yet completed or failed.

        The pool-sharing seam: a front door multiplexing many serving
        sessions over ONE pool (:class:`repro.serving.Gateway`) samples
        this for queue-depth metrics and back-pressure decisions without
        reaching into the pool's internals."""
        with self._cv:
            return self._active

    def close(self):
        """Drain all in-flight graphs, then stop and join the workers."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        for t in self._threads:
            t.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    def _finish(self, job):
        """Run a graph's completion callback, then retire it.  The active
        count drops only after ``on_complete`` returns, so a follow-up
        ``submit_graph`` from the callback keeps the pool awake.  A
        raising ``on_complete`` is rerouted to ``on_error`` — a broken
        callback must never kill a worker thread or strand the pool."""
        try:
            job.on_complete()
        except BaseException as exc:
            self._report(job, exc)
        finally:
            with self._cv:
                self._active -= 1
                self._cv.notify_all()

    def _fail(self, job, exc):
        try:
            self._report(job, exc)
        finally:
            with self._cv:
                self._active -= 1
                self._cv.notify_all()

    @staticmethod
    def _report(job, exc):
        """Deliver ``exc`` to the job's error callback; a failure inside
        ``on_error`` itself is unreportable and must not take the worker
        thread down with it."""
        try:
            job.on_error(exc)
        except BaseException:  # pragma: no cover - defensive
            pass

    def _worker(self):
        while True:
            with self._cv:
                while not self._ready and not (self._closed and self._active == 0):
                    self._cv.wait()
                if not self._ready:
                    return  # closed and fully drained
                job, tid = self._ready.popleft()
                if job.failed:
                    continue  # job already reported; drop its leftovers
            try:
                newly = job.run_task(tid)
            except BaseException as exc:
                with self._cv:
                    first = not job.failed
                    job.failed = True
                if first:
                    self._fail(job, exc)
                continue
            with self._cv:
                if job.failed:
                    continue
                job.outstanding -= 1
                finished = job.outstanding == 0
                if newly:
                    self._ready.extend((job, t) for t in newly)
                    self._cv.notify(len(newly))
            if finished:
                self._finish(job)


def _noop():
    return None


def _run_on_pool(ntasks, roots, run_task, workers, name):
    """One graph on a transient :class:`StreamPool` named ``name``, sized
    ``min(workers, ntasks)`` (more threads than tasks can never help) and
    torn down when the graph drains; the first task exception is
    re-raised.  A graph of one task needs no pool: it runs right here, on
    the calling thread (starting and joining a thread costs more than the
    whole factorization of a small matrix)."""
    roots = tuple(roots)
    if ntasks == 1 and roots:
        run_task(roots[0])
        return
    errors = []
    with StreamPool(max(1, min(workers, ntasks)), name=name) as pool:
        pool.submit_graph(ntasks, roots, run_task, on_complete=_noop, on_error=errors.append)
    if errors:
        raise errors[0]


def run_task_graph(ntasks, roots, run_task, workers):
    """Execute one static task graph on a transient worker pool.

    ``run_task(tid)`` performs task ``tid`` and returns the task ids it
    released; ``roots`` are the initially ready tasks.  The graph is one
    :meth:`StreamPool.submit_graph` on a pool of ``min(workers, ntasks)``
    ``repro-exec-*`` threads; the first task exception drops the graph's
    remaining tasks and is re-raised.  This is the generic runtime behind
    :func:`factorize_executor` and the parallel triangular sweeps of
    :mod:`repro.solve.triangular`.
    """
    _run_on_pool(ntasks, roots, run_task, _resolve_workers(workers), "repro-exec")


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
    supernodes is ``snodes:lo-hi`` (its first and last supernode); a single
    supernode is ``snode:12`` (coarse) or ``factor:3`` with its pair tasks
    ``pair:3`` (fine — pairs named by their source supernode)."""
    bounds = plan.ranges.bounds
    nranges = len(plan.ranges)
    single = "snode" if plan.granularity == "coarse" else "factor"

    def label(tid):
        if tid >= nranges:
            return f"pair:{plan.pairs.source[tid - nranges]}"
        lo, hi = bounds[tid], bounds[tid + 1]
        if hi - lo == 1:
            return f"{single}:{lo}"
        return f"snodes:{lo}-{hi - 1}"

    return label


class LeavingPairs:
    """The block pairs of :attr:`DagPlan.pairs` as a sequence of ``(s, bi,
    bj)`` — source supernode, upper and lower
    :class:`~repro.symbolic.blocks.Block` — read off the pattern's
    :func:`~repro.symbolic.blocks.pair_index` when asked for; ``source`` is
    the plain list of the pairs' source supernodes."""

    __slots__ = ("source", "_index", "_upper", "_lower")

    def __init__(self, index, pairs):
        upper, lower = index.upper[pairs], index.lower[pairs]
        source = index.blk_source[upper]
        first = np.asarray(index.blk_ptr)[source]
        self.source = source.tolist()
        self._index = index
        self._upper, self._lower = upper - first, lower - first  # positions among s's blocks

    def __len__(self):
        return len(self.source)

    def __getitem__(self, i):
        s = self.source[i]
        blocks = self._index.blocks(s)
        return s, blocks[self._upper[i]], blocks[self._lower[i]]


# NOTE: dag_plan and range_tasks below are the shared substrate of both DAG
# backends — repro.numeric.procpool runs the same task body and schedules
# from the plan's edges.  Renaming them is a cross-module change.
class DagPlan(NamedTuple):
    """Static task DAG of one granularity over one partition of the
    supernodes (see :func:`dag_plan`).

    Task ids ``0..len(ranges)-1`` are the range tasks: a range of several
    supernodes runs the serial bodies over all of them, a single-supernode
    range is that supernode's task (coarse: the whole RL supernode; fine:
    its factor task).  Fine plans continue with one task per block pair of
    every single-supernode range.
    """

    granularity: str
    ranges: TaskRanges
    ntasks: int
    #: per supernode, how many of its leading assembly runs (coarse) or
    #: blocks (fine) are owned by a supernode of its own range — their
    #: updates are applied by the range's task itself; the rest *leave*
    stay: tuple
    #: fine only (empty for coarse): ``(s, bi, bj)`` of every pair that leaves
    #: its source's range (a :class:`LeavingPairs`), pair ``i`` under the id
    #: ``len(ranges) + i``; where each lands — ``(owner, r0, r1, c0, c1)``,
    #: :meth:`~repro.symbolic.blocks.PairIndex.targets` — and per supernode
    #: the (consecutive) ids of its leaving pairs, in serial order.  The
    #: pairs of single-supernode ranges come first and are the pair tasks; an
    #: id from ``ntasks`` up only names a leaving pair of a multi-supernode
    #: range (its slot in the process pool's scratch arena)
    pairs: object
    targets: tuple
    pair_ids: tuple
    #: tasks that wait for nothing (initially ready)
    roots: tuple
    #: tasks each task feeds / how many parts each task waits for (counted by
    #: a :class:`Countdown` or the process pool's parent): a finished range
    #: delivers one part to every task it parked an update for, a factor task
    #: to its pair tasks, a pair task to its target
    children: tuple
    indeg: tuple
    #: per range task, the updates that reach it from outside its range, in
    #: the serial engines' accumulation order — coarse: ``(source, run)``,
    #: ``run`` the position among the source's assembly runs (what
    #: :func:`~repro.numeric.rl.apply_run` takes), ascending by source; fine:
    #: pair ids, ascending source, then the serial pair enumeration order
    incoming: tuple


def dag_plan(symb, granularity, ranges=None):
    """The static :class:`DagPlan` of ``granularity`` over ``ranges``
    (default: the pattern's :func:`~repro.symbolic.ranges.task_ranges`),
    memoised on the partition — the one description of the task DAG that the
    thread and process substrates both schedule from.

    Building it builds the index beneath it (the pattern's
    :func:`~repro.symbolic.relind.assembly_index` for coarse, its
    :func:`~repro.symbolic.blocks.pair_index` and the ``Block`` tuples of
    the pair tasks for fine), so call it once on the submitting thread and
    later reads from worker threads or streaming callbacks never mutate the
    symbolic cache concurrently.  Idempotent and cheap after the first
    call.
    """
    if ranges is None:
        ranges = task_ranges(symb)
    key = "executor_" + granularity
    plan = ranges.memo.get(key)
    if plan is not None:
        return plan
    build = _coarse_edges if granularity == "coarse" else _fine_edges
    stay, incoming, indeg, children, pairs, targets, pair_ids = build(symb, ranges)
    nranges = len(ranges)
    ntasks = len(children)
    plan = ranges.memo[key] = DagPlan(
        granularity=granularity,
        ranges=ranges,
        ntasks=ntasks,
        stay=tuple(stay),
        pairs=pairs,
        targets=targets,
        pair_ids=tuple(pair_ids),
        roots=tuple(p for p, n in enumerate(indeg) if not n),
        children=tuple(tuple(kids) for kids in children),
        indeg=tuple(indeg) + (1,) * (ntasks - nranges),
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
        if index.flat[s] is None:
            index.pieces(s)  # what the tasks read, built here
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
    return stay, incoming, indeg, children, (), (), ()


def _fine_edges(symb, ranges):
    """The fine half of :func:`dag_plan`, array-at-a-time from the pattern's
    :func:`~repro.symbolic.blocks.pair_index`: a block stays when its owner
    lies inside its source's range (owners ascend, so the staying blocks of
    a source lead), a pair leaves with its upper block."""
    index = pair_index(symb)
    nsup, nranges = symb.nsup, len(ranges)
    bounds = np.asarray(ranges.bounds)
    range_of = np.asarray(ranges.range_of, dtype=np.int64)  # an empty list is float64
    single = np.diff(bounds) == 1
    blk_range = range_of[index.blk_source]
    inside = index.blk_owner < bounds[blk_range + 1]
    stay = np.bincount(index.blk_source[inside], minlength=nsup).tolist()
    gone = np.flatnonzero(~inside[index.upper])  # the leaving pairs, serial order
    source = index.blk_source[index.upper[gone]]
    src, dst = range_of[source], range_of[index.blk_owner[index.upper[gone]]]
    # the pair tasks take the first ids: single-supernode ranges before the
    # rest, serial order kept within each
    order = np.argsort(~single[src], kind="stable")
    pid = np.empty(gone.size, dtype=np.int64)
    pid[order] = np.arange(nranges, nranges + gone.size)
    ntasks = nranges + int(np.count_nonzero(single[src]))
    count = np.bincount(source, minlength=nsup)
    first = np.append(pid, 0)[np.cumsum(count) - count]  # of each source's leaving pairs
    pair_ids = [range(a, a + n) for a, n in zip(first.tolist(), count.tolist())]
    # per target, ascending source then serial order — the order of ``gone``
    by_target = np.argsort(dst, kind="stable")
    cut = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=nranges)))).tolist()
    reaching = pid[by_target].tolist()
    incoming = [reaching[a:b] for a, b in zip(cut[:-1], cut[1:])]
    # one part per (range, target), but one per pair task of a single source
    edges, parts = np.unique(dst * nranges + src, return_counts=True)
    edge_dst, edge_src = np.divmod(edges, nranges)
    indeg = [0] * nranges
    children = [[] for _ in range(nranges)]
    for p, t, n, alone in zip(
        edge_dst.tolist(), edge_src.tolist(), parts.tolist(), single[edge_src].tolist()
    ):
        indeg[p] += n if alone else 1
        if not alone:
            children[t].append(p)
    for t in np.flatnonzero(single).tolist():
        children[t] = pair_ids[bounds[t]]
    children += [(p,) for p in dst[order][: ntasks - nranges].tolist()]
    pairs = LeavingPairs(index, gone[order])
    for s in set(pairs.source[: ntasks - nranges]):  # what the pair tasks read
        index.blocks(s)
        index.targets(s)
    return stay, incoming, indeg, children, pairs, index.targets_of(gone[order]), pair_ids


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
    ``run_pair_range``; a single supernode of a fine plan only factorizes,
    its pairs are tasks that park one product each), parking what leaves.  ``parked`` maps a coarse source supernode to
    what :func:`~repro.numeric.rl.park_runs` keeps of its update matrix and a
    fine pair's slot (id minus ``len(plan.ranges)``) to its product: a plain
    dict in-process, the shared scratch views across processes.
    """
    nranges = len(plan.ranges)
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
    panels, pairs, targets = storage.panels, plan.pairs, plan.targets

    def pull(tid):
        for pid in incoming[tid]:
            p, r0, r1, c0, c1 = targets[pid - nranges]
            panels[p][r0:r1, c0:c1] -= parked[pid - nranges]
            del parked[pid - nranges]

    def leave(pid, updates):
        for slot, u in enumerate(updates, pid - nranges):
            parked[slot] = u

    def run(tid):
        if tid >= nranges:
            s, bi, bj = pairs[tid - nranges]
            parked[tid - nranges] = compute_block_pair(
                storage.panel(s), symb.snode_ncols(s), bi, bj
            )
            return
        pull(tid)
        lo, hi = bounds[tid], bounds[tid + 1]
        if hi - lo == 1:
            factor_snode(symb, storage, lo)
        else:
            run_pair_range(storage, index, lo, hi, plan, leave)

    return run


def _check_granularity(granularity):
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity {granularity!r}; choose from {GRANULARITIES}",
        )


def stream_factorize_job(symb, M, granularity, extra=None, dtype=None):
    """One streaming factorize job: ``(storage, ntasks, roots, run_task,
    finish)`` for a single same-pattern matrix ``M``.

    The per-matrix seam of :func:`factorize_executor`,
    :class:`repro.api.ServingSession` and, through the session,
    :class:`repro.serving.Gateway`: the caller submits ``(ntasks, roots,
    run_task)`` to a :class:`StreamPool` and, once the graph drains, calls
    ``finish(wall_seconds)`` for the measured
    :class:`~repro.numeric.result.FactorizeResult` — ``extra`` plus the
    wall clock and the task count; no model field.
    """
    storage = FactorStorage.from_matrix(symb, M, dtype=dtype)
    # the static plan is shared (memoised on ``symb``); the parked store,
    # the countdown and the task closures are per-matrix state, so any
    # number of same-pattern instances can run concurrently on one pool
    plan = dag_plan(symb, granularity)
    run = range_tasks(symb, storage, plan, {})
    run_task = Countdown(plan.indeg).task(run, plan.children)
    method = _FAMILY[granularity] + "_par"

    def finish(wall_seconds):
        report = dict(extra or (), wall_seconds=wall_seconds, tasks=plan.ntasks)
        return FactorizeResult(method, storage, symb.nsup, extra=report)

    return storage, plan.ntasks, plan.roots, run_task, finish


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
        assembly), one task per task range; ``"fine"`` — the RLB bodies,
        one task per range of several supernodes, one factor task plus one
        task per block pair for each single supernode above the cut.
    tracer:
        Optional :class:`~repro.gpu.trace.Tracer`; when given, every task's
        measured start/stop is recorded on its worker thread's lane
        (real occupancy next to the modeled Gantt charts).
    dtype:
        Factor precision (``None`` keeps the values' dtype; float32 is the
        mixed-precision lane).  Bit-identity across worker counts holds in
        every precision — the order a panel accumulates in is dtype-independent.
    """
    _check_granularity(granularity)
    workers = _resolve_workers(workers)
    extra = {"workers": workers, "backend": "threads", "granularity": granularity}
    _, ntasks, roots, run_task, finish = stream_factorize_job(
        symb, A, granularity, extra=extra, dtype=dtype
    )
    t0 = time.perf_counter()
    if tracer is not None:
        label_of = _task_label_fn(dag_plan(symb, granularity))
        run_task = _traced_run(run_task, label_of, tracer, t0)
    run_task_graph(ntasks, roots, run_task, workers)
    return finish(time.perf_counter() - t0)
