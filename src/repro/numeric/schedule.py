"""Task-DAG analysis: the coarse-vs-fine granularity trade-off, quantified.

The paper argues (§III, §V) that RL "has the advantage of easier
parallelization of one coarse grain task": its per-supernode update is a
single large SYRK, while RLB splits the same flops across many small
SYRK/GEMM block-pair calls.  DAG-scheduled factorization codes (MA87, the
paper's ref [9]) make this trade-off concrete: finer tasks expose more
parallelism but pay per-task scheduling overhead.

This module reads both task DAGs of a symbolic factorization off the
executor's own plan (:func:`~repro.numeric.executor.dag_plan` at one task
per supernode — what runs is what is analysed) —

* **coarse** (RL-style): one task per supernode (its POTRF + TRSM + SYRK +
  assembly), with an edge from every descendant that updates it;
* **fine** (RLB-style): one task per supernode factorization (POTRF + TRSM)
  plus one task per block *pair* (a SYRK or GEMM), with edges
  ``factor(J) → pair(J, ·, ·) → factor(owner)``;

— and provides critical-path analysis and classic list scheduling onto ``p``
identical workers, so the granularity trade-off can be swept (see
``benchmarks/bench_schedule.py``).  All durations come from the machine
model at a configurable per-worker thread count, plus a per-task dispatch
overhead that is exactly what penalizes the fine-grain DAG.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..gpu.costmodel import MachineModel, kernel_flops
from ..symbolic.ranges import trivial_ranges
from .executor import _FAMILY, dag_plan
from .result import kernel_stream

__all__ = [
    "Task",
    "TaskGraph",
    "build_coarse_graph",
    "build_fine_graph",
    "critical_path",
    "list_schedule",
    "ScheduleResult",
]


@dataclass
class Task:
    """One schedulable unit.

    ``kind`` is ``"snode"`` (coarse), ``"factor"`` or ``"pair"`` (fine);
    ``duration`` is modeled seconds excluding dispatch overhead.
    """

    name: str
    kind: str
    duration: float
    snode: int


@dataclass
class TaskGraph:
    """Immutable task DAG: ``preds[t]``/``succs[t]`` index into ``tasks``."""

    tasks: list
    preds: list
    succs: list

    @property
    def ntasks(self):
        return len(self.tasks)

    def total_work(self):
        """Sum of task durations (seconds)."""
        return float(sum(t.duration for t in self.tasks))

    def validate(self):
        """Sanity-check the DAG (acyclic via topological count)."""
        indeg = [len(p) for p in self.preds]
        ready = [i for i, d in enumerate(indeg) if d == 0]
        seen = 0
        while ready:
            t = ready.pop()
            seen += 1
            for s in self.succs[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if seen != self.ntasks:
            raise ValueError("task graph contains a cycle")
        return self


def _graph(symb, granularity, machine, threads):
    """The executor's per-supernode task DAG as a :class:`TaskGraph`.

    Edges are :attr:`~repro.numeric.executor.DagPlan.children` of
    ``dag_plan(symb, granularity, trivial_ranges(symb))`` — task ``s`` is
    supernode ``s``, the fine plan's pair tasks follow in the serial pair
    order — and durations come from the family's
    :func:`~repro.numeric.result.kernel_stream`: POTRF and TRSM (coarse:
    and the SYRK) are charged to the supernode's task, each fine SYRK/GEMM
    to its pair's.  Durations are modeled seconds at *raw* (undilated)
    dimensions: scheduling compares two decompositions of the *same*
    flops, and the graded dilation of
    :class:`~repro.gpu.costmodel.MachineModel` would make the split
    kernels artificially cheap (smaller kernels dilate less).
    """
    cpu = (machine or MachineModel()).cpu
    plan = dag_plan(symb, granularity, trivial_ranges(symb))
    nsup = symb.nsup
    fine = granularity == "fine"
    duration = [0.0] * plan.ntasks
    pair = nsup
    for s, kind, m, n, k in kernel_stream(symb, _FAMILY[granularity]):
        if kind == "assembly":
            continue
        seconds = cpu.kernel_time(kernel_flops(kind, m, n, k), threads)
        if fine and kind not in ("potrf", "trsm"):
            duration[pair] = seconds
            pair += 1
        else:
            duration[s] += seconds
    single = "factor" if fine else "snode"
    tasks = [Task(f"{single}{s}", single, duration[s], s) for s in range(nsup)]
    for i, (s, upper, lower) in enumerate(plan.pairs):
        tasks.append(Task(f"pair{s}:{upper.first_row}:{lower.first_row}",
                          "pair", duration[nsup + i], s))
    preds = [[] for _ in tasks]
    for t, children in enumerate(plan.children):
        for c in children:
            preds[c].append(t)
    return TaskGraph(tasks, preds, [list(c) for c in plan.children]).validate()


def build_coarse_graph(symb, *, machine=None, threads=1):
    """RL-style DAG: one task per supernode; edges descendant → ancestor.

    ``threads`` is the BLAS thread count *inside* one task (coarse tasks
    parallelize internally — the paper's point).
    """
    return _graph(symb, "coarse", machine, threads)


def build_fine_graph(symb, *, machine=None, threads=1):
    """RLB-style DAG: factor tasks plus one task per block pair.

    Edges: ``factor(J) → pair(J, bi, bj) → factor(owner(bi))`` — an update
    into an ancestor panel must land before that ancestor factorizes.
    """
    return _graph(symb, "fine", machine, threads)


def critical_path(graph):
    """``(length_seconds, task_indices)`` of the DAG's longest path."""
    n = graph.ntasks
    dist = [0.0] * n
    back = [-1] * n
    indeg = [len(p) for p in graph.preds]
    ready = [i for i, d in enumerate(indeg) if d == 0]
    for i in ready:
        dist[i] = graph.tasks[i].duration
    order = []
    ready = list(ready)
    while ready:
        t = ready.pop()
        order.append(t)
        for s in graph.succs[t]:
            cand = dist[t] + graph.tasks[s].duration
            if cand > dist[s]:
                dist[s] = cand
                back[s] = t
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if not order:
        return 0.0, []
    end = int(np.argmax(dist))
    path = []
    t = end
    while t != -1:
        path.append(t)
        t = back[t]
    return float(dist[end]), path[::-1]


@dataclass
class ScheduleResult:
    """Outcome of list-scheduling a :class:`TaskGraph`.

    ``makespan`` includes the per-task ``dispatch_overhead``;
    ``bounds`` holds the two classic lower bounds (critical path, work/p).
    """

    workers: int
    makespan: float
    total_work: float
    critical_path: float
    dispatch_overhead: float
    ntasks: int
    worker_busy: list = field(default_factory=list)

    @property
    def speedup_vs_serial(self):
        serial = self.total_work + self.ntasks * self.dispatch_overhead
        return serial / self.makespan if self.makespan else 1.0

    @property
    def parallelism(self):
        """Inherent DAG parallelism: total work / critical path."""
        return (self.total_work / self.critical_path
                if self.critical_path else 1.0)


def list_schedule(graph, workers, *, dispatch_overhead=0.0):
    """Greedy list scheduling with bottom-level priority onto ``workers``
    identical workers; each task pays ``dispatch_overhead`` extra seconds.

    Returns a :class:`ScheduleResult`.  Bottom level (longest path to a
    sink) is the standard HEFT-style priority for this problem.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = graph.ntasks
    if n == 0:
        return ScheduleResult(workers, 0.0, 0.0, 0.0, dispatch_overhead, 0,
                              [0.0] * workers)
    # bottom levels via reverse topological pass
    bottom = [0.0] * n
    outdeg = [len(s) for s in graph.succs]
    stack = [i for i, d in enumerate(outdeg) if d == 0]
    for i in stack:
        bottom[i] = graph.tasks[i].duration
    stack = list(stack)
    while stack:
        t = stack.pop()
        for p in graph.preds[t]:
            cand = bottom[t] + graph.tasks[p].duration
            if cand > bottom[p]:
                bottom[p] = cand
            outdeg[p] -= 1
            if outdeg[p] == 0:
                stack.append(p)
    # event-driven greedy dispatch
    indeg = [len(p) for p in graph.preds]
    task_ready_at = [0.0] * n
    ready = [(-bottom[i], i) for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    worker_free = [(0.0, wk) for wk in range(workers)]
    heapq.heapify(worker_free)
    busy = [0.0] * workers
    pending = []  # (finish_time, task) min-heap of running tasks
    done = 0
    makespan = 0.0
    while done < n:
        while not ready:
            # advance time to the next completion
            ft, t = heapq.heappop(pending)
            for s in graph.succs[t]:
                task_ready_at[s] = max(task_ready_at[s], ft)
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, (-bottom[s], s))
        _, t = heapq.heappop(ready)
        free_at, wk = heapq.heappop(worker_free)
        start = max(free_at, task_ready_at[t])
        dur = graph.tasks[t].duration + dispatch_overhead
        finish = start + dur
        busy[wk] += dur
        heapq.heappush(worker_free, (finish, wk))
        heapq.heappush(pending, (finish, t))
        makespan = max(makespan, finish)
        done += 1
        # completions that occurred at/before this start release successors
        while pending and pending[0][0] <= start:
            ft, tt = heapq.heappop(pending)
            for s in graph.succs[tt]:
                task_ready_at[s] = max(task_ready_at[s], ft)
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, (-bottom[s], s))
    cp, _ = critical_path(graph)
    return ScheduleResult(
        workers=workers,
        makespan=makespan,
        total_work=graph.total_work(),
        critical_path=cp,
        dispatch_overhead=dispatch_overhead,
        ntasks=n,
        worker_busy=busy,
    )
