"""The GPU offload engines: task DAGs on the stream backend.

The paper's two offload pipelines — RL's per-supernode H2D → POTRF/TRSM →
async D2H → SYRK → D2H → assembly and RLB version 2's double-buffered
per-block-pair transfers (§III) — exist once, as the task bodies of
:mod:`repro.numeric.rl_gpu` and :mod:`repro.numeric.rlb_gpu`.  This module
is their one scheduler: the *task-DAG runtime* — the same coarse and fine
DAG plans, ordered committers and release bookkeeping the threaded engines
of :mod:`repro.numeric.executor` use — on a
:class:`~repro.numeric.executor.GpuStreamBackend`:

* ``rl_gpu`` (also spelled ``rl_gpu_dag``) — the coarse DAG, one task per
  supernode, RL's three-transfer pipeline per offloaded task (Table I);
* ``rlb_gpu_v2`` (``rlb_gpu_dag``) — the fine DAG, one factor task per
  supernode and one task per block pair (Table II).

**One device is the paper's schedule.**  The stream backend pops ready
tasks in a deterministic priority order that is the elimination-order
schedule (factor task ``s``, then ``s``'s pair tasks, then ``s+1``).  At
``devices=1`` the device timeline is host-coupled, so the host issues every
operation exactly as a serial loop over the supernodes would: factors are
bit-identical to the serial CPU engines, and the modeled seconds, transfer
counts and the allocation at which
:class:`~repro.gpu.device.DeviceOutOfMemory` fires are pinned by
``tests/test_gpu_golden.py`` against the hand-rolled loops this scheduler
replaced.

**Multi-device scaling.**  At ``devices=N`` the backend switches the
device timelines to the dispatcher-issue model (shared host clock, device
pipelines gated by engine availability and per-task modeled *ready times*
maintained here at assembly-commit time), and tasks go to the least-loaded
device.  The honest story of the extension: host-serialized assembly
bounds the speedup by the elimination tree's branch independence.

**Heterogeneous CPU+GPU.**  :func:`factorize_hybrid` runs the *same* task
DAG on a :class:`~repro.numeric.executor.HybridBackend` with per-task
placement: supernodes below the :func:`~repro.numeric.threshold
.gpu_snode_mask` cutoff execute the threaded engines' real-BLAS task
bodies on measured worker lanes, supernodes above it execute the GPU
kernel pipelines here on the modeled stream lanes, and all updates reduce
through one :class:`~repro.numeric.executor.OrderedCommitter` — the
paper's CPU/GPU split as one schedule instead of two engines.  The graph
builders are shared: the per-task bodies below are emitted CPU-or-GPU per
task, for both the pure stream graphs and the hybrid graphs.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..gpu.costmodel import CPU_THREAD_CHOICES, MachineModel
from ..symbolic.relind import assembly_plan
from .executor import (
    _FAMILY,
    GRANULARITIES,
    GpuStreamBackend,
    HybridBackend,
    _assembly_closure,
    _build_committer,
    _coarse_plan,
    _fine_plan,
    _pair_closure,
    _run_coarse,
    _run_fine,
    _task_label_fn,
)
from .result import (
    FactorizeResult,
    GpuCostAccumulator,
    HybridResult,
    cpu_cost,
)
from .rl import update_workspace_entries
from .rl_gpu import cpu_factor_snode, rl_cpu_snode, rl_gpu_snode
from .rlb_gpu import (
    factorize_rlb_gpu_v1,
    rlb_cpu_pair,
    rlb_drain_pair,
    rlb_gpu_factor,
    rlb_gpu_pair,
)
from .storage import FactorStorage
from .threshold import (
    DEFAULT_DEVICE_MEMORY,
    DEFAULT_RL_THRESHOLD,
    DEFAULT_RLB_THRESHOLD,
    gpu_snode_mask,
)

__all__ = ["factorize_gpu_dag", "factorize_rl_gpu", "factorize_rlb_gpu",
           "factorize_hybrid"]


def _aggregate_stats(gpus):
    """One :class:`~repro.gpu.device.GpuStats` over every device (counts
    and bytes summed; ``peak_memory`` is the worst single device)."""
    from ..gpu.device import GpuStats

    agg = GpuStats()
    for g in gpus:
        agg.kernels += g.stats.kernels
        agg.kernel_seconds += g.stats.kernel_seconds
        agg.h2d_bytes += g.stats.h2d_bytes
        agg.d2h_bytes += g.stats.d2h_bytes
        agg.transfers += g.stats.transfers
        agg.peak_memory = max(agg.peak_memory, g.stats.peak_memory)
    return agg


def _coarse_scatter(symb, storage, backend, committer, ready, acc):
    """Ordered-committer scatter of one source supernode's update matrix,
    charged as ONE host assembly pass on the modeled host clock (as the
    serial engine charges it); bumps each target's modeled ready time.
    Shared by the stream and hybrid coarse graphs — commit closures from
    either substrate reduce through the same committer."""
    machine = backend.machine
    host = backend.host
    cpu_t = machine.gpu_run_cpu_threads
    itemsize = storage.itemsize

    def scatter(s, U):
        # deterministic per-source order means every run lands exactly as
        # assemble_update's pass; out-of-order sources are buffered by the
        # committer
        moved = 0
        newly = []
        targets = set()
        for p, k0, k1, relrows, colpos, nbytes in assembly_plan(symb, s):
            moved += nbytes
            targets.add(p)
            fn = _assembly_closure(storage.panel(p), relrows, colpos, U,
                                   k0, k1)
            newly.extend(committer.submit(p, s, fn))
        host.advance_cpu(
            machine.assembly_seconds(moved * itemsize / 8.0,
                                     threads=cpu_t, itemsize=itemsize),
            label="assembly")
        acc.assembly(moved)
        t = host.cpu
        for p in targets:
            if ready.get(p, 0.0) < t:
                ready[p] = t
        return newly

    return scatter


def _coarse_gpu_body(symb, storage, backend, scatter, ready, counters, acc,
                     async_panel_d2h):
    """GPU-placed coarse task body: least-loaded device placement followed
    by RL's three-transfer per-supernode pipeline."""

    def run_gpu(s):
        counters["on_gpu"] += 1
        _, gpu = backend.place()
        return rl_gpu_snode(symb, storage, s, gpu, scatter, acc,
                            async_panel_d2h=async_panel_d2h,
                            ready=ready.get(s, 0.0))

    return run_gpu


def _coarse_graph(symb, storage, backend, offload, acc, async_panel_d2h):
    """Coarse (RL) task graph on the stream backend: ``(ntasks, roots,
    run_task, priority, counters)``."""
    machine = backend.machine
    host = backend.host
    cpu_t = machine.gpu_run_cpu_threads
    expected, roots = _coarse_plan(symb)
    committer = _build_committer(expected)
    bmax = int(np.sqrt(update_workspace_entries(symb))) if symb.nsup else 0
    W = (np.zeros((bmax, bmax), dtype=storage.dtype, order="F")
         if bmax else None)
    ready = {}  # supernode -> modeled time its inbound updates assembled
    counters = {"on_gpu": 0}
    scatter = _coarse_scatter(symb, storage, backend, committer, ready, acc)
    run_gpu = _coarse_gpu_body(symb, storage, backend, scatter, ready,
                               counters, acc, async_panel_d2h)

    def run_task(s):
        if not offload[s]:
            host.wait_cpu_until(ready.get(s, 0.0), label="dag_wait")
            return rl_cpu_snode(symb, storage, s, machine, host, cpu_t, W,
                                scatter, acc)
        return run_gpu(s)

    return symb.nsup, roots, run_task, None, counters


def _fine_priority(nsup, pairs):
    """The fine DAG's deterministic schedule key: every supernode's factor
    task before its pair tasks, both before the next supernode — the
    serial elimination-order schedule.  Also the dispatch
    order of the hybrid backend's GPU lane, where it guarantees progress:
    every dependency of a task has a strictly lower key."""

    def priority(tid):
        if tid < nsup:
            return (tid, 0, 0)
        return (pairs[tid - nsup][0], 1, tid)

    return priority


def _fine_gpu_bodies(symb, storage, backend, committer, pairs, pair_ids,
                     ready, state, counters, acc, inflight, bump):
    """GPU-placed fine task bodies ``(run_factor, run_pair)``: RLB v2's
    double-buffered per-pair pipeline, threaded through ``state`` (the
    per-supernode in-flight pipeline) and committing through the shared
    ordered committer.  Shared by the stream and hybrid fine graphs; on
    the hybrid backend only the dispatcher thread calls these, keeping
    every modeled clock deterministic."""
    machine = backend.machine
    cpu_t = machine.gpu_run_cpu_threads
    nsup = symb.nsup

    def run_factor(s):
        counters["on_gpu"] += 1
        _, gpu = backend.place()
        panel, w, dbuf, panel_back = rlb_gpu_factor(
            symb, storage, s, gpu, acc, ready=ready.get(s, 0.0))
        if not pair_ids[s]:
            gpu.wait(panel_back)
            gpu.free(dbuf)
            return ()
        state[s] = {"gpu": gpu, "panel": panel, "w": w, "dbuf": dbuf,
                    "panel_back": panel_back, "left": len(pair_ids[s]),
                    "inflight": []}
        return pair_ids[s]

    def run_pair(tid):
        s, bi, bj = pairs[tid - nsup]
        st = state[s]
        gpu = st["gpu"]
        fl = st["inflight"]
        newly = []

        def commit(cbi, cbj, u):
            return committer.submit(
                cbi.owner, s, _pair_closure(symb, storage, cbi, cbj, u))

        def drain_one():
            item = fl.pop(0)
            newly.extend(rlb_drain_pair(gpu, machine, cpu_t, acc,
                                        item, commit))
            bump(item[2].owner)

        if len(fl) >= inflight:
            drain_one()
        ubuf = rlb_gpu_pair(gpu, st["dbuf"], st["panel"], st["w"],
                            bi, bj, acc)
        fl.append((gpu.d2h_async(ubuf), ubuf, bi, bj))
        st["left"] -= 1
        if st["left"] == 0:
            while fl:
                drain_one()
            gpu.wait(st["panel_back"])
            gpu.free(st["dbuf"])
            del state[s]
        return newly

    return run_factor, run_pair


def _fine_graph(symb, storage, backend, offload, acc, inflight):
    """Fine (RLB v2) task graph on the stream backend: ``(ntasks, roots,
    run_task, priority, counters)``.

    The priority key (:func:`_fine_priority`) is the serial
    elimination-order schedule, which is what makes ``devices=1`` the
    paper's RLB version 2.
    """
    machine = backend.machine
    host = backend.host
    cpu_t = machine.gpu_run_cpu_threads
    nsup = symb.nsup
    pairs, pair_ids, expected, roots = _fine_plan(symb)
    committer = _build_committer(expected)
    ready = {}
    state = {}  # supernode -> in-flight pipeline state
    counters = {"on_gpu": 0}
    priority = _fine_priority(nsup, pairs)

    def bump(p):
        t = host.cpu
        if ready.get(p, 0.0) < t:
            ready[p] = t

    gpu_factor, gpu_pair = _fine_gpu_bodies(
        symb, storage, backend, committer, pairs, pair_ids, ready, state,
        counters, acc, inflight, bump)

    def run_factor(s):
        if not offload[s]:
            host.wait_cpu_until(ready.get(s, 0.0), label="dag_wait")
            panel, w, _ = cpu_factor_snode(symb, storage, s, machine, host,
                                           cpu_t, acc)
            if pair_ids[s]:
                state[s] = {"gpu": None, "panel": panel, "w": w,
                            "left": len(pair_ids[s])}
            return pair_ids[s]
        return gpu_factor(s)

    def run_pair(tid):
        s, bi, bj = pairs[tid - nsup]
        st = state[s]
        if st["gpu"] is not None:
            return gpu_pair(tid)
        # small supernode: host kernel, direct ordered commit
        u = rlb_cpu_pair(st["panel"], st["w"], bi, bj, machine, host,
                         cpu_t, acc)
        newly = list(committer.submit(
            bi.owner, s, _pair_closure(symb, storage, bi, bj, u)))
        bump(bi.owner)
        st["left"] -= 1
        if st["left"] == 0:
            del state[s]
        return newly

    def run_task(tid):
        if tid < nsup:
            return run_factor(tid)
        return run_pair(tid)

    return nsup + len(pairs), roots, run_task, priority, counters


def factorize_gpu_dag(symb, A, *, granularity="coarse", devices=1,
                      machine=None, threshold=None,
                      device_memory=DEFAULT_DEVICE_MEMORY, backend=None,
                      tracer=None, async_panel_d2h=True, inflight=2,
                      dtype=None):
    """Factorize on the GPU stream backend, scheduled by the task DAG.

    Parameters
    ----------
    granularity:
        ``"coarse"`` — RL's per-supernode pipeline (engine ``rl_gpu``,
        :func:`factorize_rl_gpu`); ``"fine"`` — RLB version 2's
        per-block-pair pipeline (``rlb_gpu_v2``,
        :func:`factorize_rlb_gpu`).
    devices:
        Simulated GPUs.  ``1`` is the paper's host-driven single-device
        schedule; ``N > 1`` places tasks least-loaded across N devices.
    threshold:
        Dilated panel entries below which a supernode stays on the CPU
        (directly comparable to the paper's 600,000 / 750,000); ``0`` is
        the paper's "GPU only" variant.  Defaults to the granularity's
        own (:data:`~repro.numeric.threshold.DEFAULT_RL_THRESHOLD` /
        :data:`~repro.numeric.threshold.DEFAULT_RLB_THRESHOLD`).
    device_memory:
        Per-device capacity in dilated bytes.  A panel or update matrix
        exceeding free device memory raises
        :class:`~repro.gpu.device.DeviceOutOfMemory` — the paper's
        nlpkkt120 failure mode; extra devices never rescue a single
        oversized working set.
    backend:
        An existing :class:`~repro.numeric.executor.GpuStreamBackend` to
        run on (overrides ``devices`` / ``machine`` / ``device_memory`` /
        ``tracer``).
    async_panel_d2h / inflight:
        The pipeline ablation switches (coarse / fine respectively):
        ``async_panel_d2h=False`` makes the factored-panel transfer a
        host-blocking copy issued at the same point of the schedule,
        removing the overlap with the SYRK that the paper's step 3 ("this
        second transfer is asynchronous") buys; ``inflight`` is the number
        of pair-update buffers in flight (2 = double buffering).
    """
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity {granularity!r}; choose from {GRANULARITIES}",
        )
    if backend is None:
        backend = GpuStreamBackend(devices=devices,
                                   machine=machine or MachineModel(),
                                   device_memory=device_memory,
                                   tracer=tracer)
    if threshold is None:
        threshold = (DEFAULT_RL_THRESHOLD if granularity == "coarse"
                     else DEFAULT_RLB_THRESHOLD)
    machine = backend.machine
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    offload = gpu_snode_mask(symb, threshold, machine=machine)
    acc = GpuCostAccumulator(machine, itemsize=storage.itemsize)
    if granularity == "coarse":
        ntasks, roots, run_task, priority, counters = _coarse_graph(
            symb, storage, backend, offload, acc, async_panel_d2h)
        method = "rl_gpu"
    else:
        ntasks, roots, run_task, priority, counters = _fine_graph(
            symb, storage, backend, offload, acc, inflight)
        method = "rlb_gpu_v2"
    backend.run_graph(ntasks, roots, run_task, priority=priority)
    return FactorizeResult(
        method=method,
        storage=storage,
        modeled_seconds=backend.elapsed(),
        total_snodes=symb.nsup,
        snodes_on_gpu=counters["on_gpu"],
        gpu_stats=_aggregate_stats(backend.gpus),
        flops=acc.flops,
        kernel_count=acc.kernel_count,
        assembly_bytes=acc.assembly_bytes,
        extra={
            "threshold": threshold,
            "device_memory": backend.gpus[0].capacity,
            "devices": backend.devices,
            "backend": backend.name,
            "granularity": granularity,
            "tasks": ntasks,
            "device_task_counts": list(backend.task_counts),
            "device_busy_seconds": backend.device_busy_seconds(),
        },
    )


def factorize_rl_gpu(symb, A, **options):
    """RL with large supernodes offloaded to the (simulated) GPU — Table
    I's method: :func:`factorize_gpu_dag` at coarse granularity."""
    return factorize_gpu_dag(symb, A, granularity="coarse", **options)


def factorize_rlb_gpu(symb, A, *, version=2, **options):
    """RLB with large supernodes offloaded to the (simulated) GPU.

    ``version=2`` (per-block transfers; Table II's method) is
    :func:`factorize_gpu_dag` at fine granularity; ``version=1`` (one
    batched update transfer per supernode, §III's negative result) is
    :func:`~repro.numeric.rlb_gpu.factorize_rlb_gpu_v1`.
    """
    if version == 2:
        return factorize_gpu_dag(symb, A, granularity="fine", **options)
    if version == 1:
        return factorize_rlb_gpu_v1(symb, A, **options)
    raise ValueError("version must be 1 or 2")


def _coarse_hybrid_graph(symb, storage, backend, offload, acc,
                         async_panel_d2h):
    """Coarse task graph with per-task placement: ``(ntasks, roots,
    run_task, priority, placement, counters)``.

    CPU-placed supernodes run the threaded executor's real-BLAS coarse
    body (:func:`~repro.numeric.executor._run_coarse` — fresh per-task
    workspaces, thread-safe); GPU-placed supernodes
    run the RL offload pipeline on the modeled streams.  Both commit
    through one ordered committer, so the factor is bit-identical to the
    serial twin.  Only GPU-side scatters advance the modeled clocks — CPU
    tasks are measured, not modeled, so they impose no modeled delay on
    downstream GPU tasks.
    """
    expected, roots = _coarse_plan(symb)
    committer = _build_committer(expected)
    ready = {}
    counters = {"on_gpu": 0}
    scatter = _coarse_scatter(symb, storage, backend, committer, ready, acc)
    run_gpu = _coarse_gpu_body(symb, storage, backend, scatter, ready,
                               counters, acc, async_panel_d2h)
    run_cpu = _run_coarse(symb, storage, committer)

    def placement(s):
        return bool(offload[s])

    def run_task(s):
        if offload[s]:
            return run_gpu(s)
        return run_cpu(s)

    return symb.nsup, roots, run_task, None, placement, counters


def _fine_hybrid_graph(symb, storage, backend, offload, acc, inflight):
    """Fine task graph with per-task placement: ``(ntasks, roots,
    run_task, priority, placement, counters)``.

    A supernode's factor task and all of its pair tasks share its
    placement, so the per-supernode in-flight GPU pipeline state is only
    ever touched by the hybrid backend's single dispatcher thread.
    CPU-placed tasks run the threaded executor's fine bodies
    (:func:`~repro.numeric.executor._run_fine`) on the worker lanes.
    """
    host = backend.host
    nsup = symb.nsup
    pairs, pair_ids, expected, roots = _fine_plan(symb)
    committer = _build_committer(expected)
    ready = {}
    state = {}
    counters = {"on_gpu": 0}
    priority = _fine_priority(nsup, pairs)

    def bump(p):
        t = host.cpu
        if ready.get(p, 0.0) < t:
            ready[p] = t

    gpu_factor, gpu_pair = _fine_gpu_bodies(
        symb, storage, backend, committer, pairs, pair_ids, ready, state,
        counters, acc, inflight, bump)
    run_cpu = _run_fine(symb, storage, committer, pairs, pair_ids)

    def placement(tid):
        s = tid if tid < nsup else pairs[tid - nsup][0]
        return bool(offload[s])

    def run_task(tid):
        if not placement(tid):
            return run_cpu(tid)
        if tid < nsup:
            return gpu_factor(tid)
        return gpu_pair(tid)

    return nsup + len(pairs), roots, run_task, priority, placement, counters


def factorize_hybrid(symb, A, *, granularity="coarse", workers=None,
                     devices=1, machine=None, threshold=None,
                     device_memory=DEFAULT_DEVICE_MEMORY, backend=None,
                     tracer=None, async_panel_d2h=True, inflight=2,
                     thread_choices=CPU_THREAD_CHOICES, dtype=None):
    """Factorize heterogeneously: one task DAG across CPU workers and GPU
    streams (engine names ``rl_hybrid`` / ``rlb_hybrid``).

    The paper's CPU+GPU split as a single schedule: supernodes whose
    dilated panel entries fall below ``threshold`` execute real BLAS on
    ``workers`` threads (measured wall-clock lanes), the rest dispatch
    their kernel pipelines onto ``devices`` simulated GPUs (modeled
    stream/copy lanes), with cross-placement dependencies honored through
    the shared ready queue and every update reduced through one ordered
    committer — factors are bit-identical to the serial twin at any
    ``(workers, devices)``.

    Degenerate thresholds select the pure substrates: ``float("inf")``
    keeps every supernode on the worker lanes (factors equal the threaded
    executor's), ``0`` offloads every supernode (factors equal the stream
    engines').

    Returns a :class:`~repro.numeric.result.HybridResult`, whose combined
    time keeps the two clock disciplines honest:
    ``measured_cpu_seconds`` (summed wall-clock of the CPU-placed tasks),
    ``modeled_gpu_seconds`` (the stream lanes' modeled elapsed) and
    ``combined_seconds = max(measured/workers, modeled)``.  Passing a
    ``tracer`` records both lane families on one clock origin: measured
    task intervals on the ``repro-hybrid-*`` worker lanes next to the
    modeled ``gpu0``/``copy_in0``/``copy_out0`` device lanes.

    ``backend`` accepts an existing
    :class:`~repro.numeric.executor.HybridBackend` (overrides ``workers``
    / ``devices`` / ``machine`` / ``device_memory`` / ``tracer``;
    mutually exclusive with ``workers``).
    """
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity {granularity!r}; choose from {GRANULARITIES}",
        )
    if backend is None:
        backend = HybridBackend(workers=workers, devices=devices,
                                machine=machine or MachineModel(),
                                device_memory=device_memory, tracer=tracer)
    elif workers is not None:
        raise ValueError("pass either workers= or backend=, not both")
    if threshold is None:
        threshold = (DEFAULT_RL_THRESHOLD if granularity == "coarse"
                     else DEFAULT_RLB_THRESHOLD)
    machine = backend.machine
    tracer = backend.tracer
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    offload = gpu_snode_mask(symb, threshold, machine=machine)
    acc = GpuCostAccumulator(machine, itemsize=storage.itemsize)
    if granularity == "coarse":
        ntasks, roots, run_task, priority, placement, counters = \
            _coarse_hybrid_graph(symb, storage, backend, offload, acc,
                                 async_panel_d2h)
    else:
        ntasks, roots, run_task, priority, placement, counters = \
            _fine_hybrid_graph(symb, storage, backend, offload, acc,
                               inflight)

    durations = np.zeros(ntasks)
    label_of = _task_label_fn(symb, granularity)
    base_run = run_task
    t0 = time.perf_counter()

    def run_timed(tid):
        # GPU-placed tasks live on the modeled clocks; only CPU-placed
        # tasks get measured wall-clock intervals (and trace events on
        # their worker-thread lane, sharing the modeled lanes' origin)
        if placement(tid):
            return base_run(tid)
        start = time.perf_counter()
        try:
            return base_run(tid)
        finally:
            stop = time.perf_counter()
            durations[tid] = stop - start
            if tracer is not None:
                tracer.record(threading.current_thread().name,
                              label_of(tid), start - t0, stop - t0)

    backend.run_graph(ntasks, roots, run_timed, priority=priority,
                      placement=placement)
    wall = time.perf_counter() - t0

    # the CPU lanes' modeled cost is the pattern's, restricted to the
    # CPU-placed supernodes (all of them: the memoised whole-pattern price)
    family = _FAMILY[granularity]
    cpu = cpu_cost(symb, family, machine, thread_choices, storage.itemsize,
                   snodes=np.flatnonzero(~offload) if offload.any() else None)
    measured_cpu = float(durations.sum())
    modeled_gpu = backend.elapsed()
    combined = max(measured_cpu / backend.workers, modeled_gpu)
    on_gpu = counters["on_gpu"]
    return HybridResult(
        method=family + "_hybrid",
        storage=storage,
        modeled_seconds=combined,
        total_snodes=symb.nsup,
        cpu_times_by_threads=dict(cpu.times),
        best_threads=cpu.best_threads,
        snodes_on_gpu=on_gpu,
        gpu_stats=_aggregate_stats(backend.gpus),
        flops=acc.flops + cpu.flops,
        kernel_count=acc.kernel_count + cpu.kernel_count,
        assembly_bytes=acc.assembly_bytes + cpu.assembly_bytes,
        measured_cpu_seconds=measured_cpu,
        modeled_gpu_seconds=modeled_gpu,
        combined_seconds=combined,
        snodes_on_cpu=symb.nsup - on_gpu,
        extra={
            "threshold": threshold,
            "device_memory": backend.gpus[0].capacity,
            "devices": backend.devices,
            "workers": backend.workers,
            "backend": backend.name,
            "granularity": granularity,
            "tasks": ntasks,
            "wall_seconds": wall,
            "modeled_cpu_seconds": cpu.seconds,
            "device_task_counts": list(backend.task_counts),
            "device_busy_seconds": backend.device_busy_seconds(),
        },
    )
