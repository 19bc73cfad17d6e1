"""The GPU offload engines: task DAGs on the stream backend.

The paper's two offload pipelines — RL's per-supernode H2D → POTRF/TRSM →
async D2H → SYRK → D2H → assembly and RLB version 2's double-buffered
per-block-pair transfers (§III) — exist once, as the task bodies of
:mod:`repro.numeric.rl_gpu` and :mod:`repro.numeric.rlb_gpu`.  This module
is their one scheduler: the *task-DAG runtime* — the same coarse and fine
DAG plans, pull rule (:func:`~repro.numeric.executor.range_tasks`) and
countdown the threaded engines of :mod:`repro.numeric.executor` use — on a
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
maintained here when an update is parked), and tasks go to the least-loaded
device.  The honest story of the extension: host-serialized assembly
bounds the speedup by the elimination tree's branch independence.

**Heterogeneous CPU+GPU.**  :func:`factorize_hybrid` runs the *same* task
DAG on a :class:`~repro.numeric.executor.HybridBackend`: supernodes below
the :func:`~repro.numeric.threshold.gpu_snode_mask` cutoff execute the
threaded engines' real-BLAS task bodies on measured worker lanes,
supernodes above it execute the GPU kernel pipelines here on the modeled
stream lanes, and every update, from either side, is parked in one store
and pulled by its target's task before that task dispatches to its CPU or
device body — the paper's CPU/GPU split as one schedule instead of two
engines.

**One builder per granularity, one driver prelude.**  :func:`_coarse_graph`
and :func:`_fine_graph` emit each task's body CPU-or-GPU from the offload
mask; the only thing the stream and hybrid engines disagree on is the
CPU-side body — *modeled* (``rl_cpu_snode`` / ``rlb_cpu_pair`` charging the
host clock, the paper's schedule) or *measured* (the threaded executor's
task, ``range_tasks``' ``run``) — so that is the builders' one parameter.
The device substrates schedule the *trivial* partition
(:func:`~repro.symbolic.ranges.trivial_ranges`, one task per supernode):
placement, the offload mask and every modeled second are per supernode.
With measured CPU bodies the builder also chains the GPU-placed tasks in
priority order (:meth:`~repro.numeric.executor.HybridBackend.chain_gpu`),
so they run one at a time, in a fixed order, on the shared worker pool.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..gpu.costmodel import MachineModel
from ..symbolic.ranges import trivial_ranges
from ..symbolic.relind import assembly_index
from .executor import (
    _FAMILY,
    GpuStreamBackend,
    Countdown,
    HybridBackend,
    _check_granularity,
    _task_label_fn,
    dag_plan,
    range_tasks,
)
from .result import (
    FactorizeResult,
    GpuCostAccumulator,
    HybridResult,
    cpu_cost,
)
from .rl import park_runs
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


def _fine_priority(plan):
    """The fine DAG's deterministic schedule key: every supernode's factor
    task before its pair tasks, both before the next supernode — the
    serial elimination-order schedule.  Also the order the hybrid graph
    chains its GPU-placed tasks in, where it guarantees progress: every
    dependency of a task has a strictly lower key."""
    return lambda tid: (plan.snode_of(tid), tid)


def _coarse_graph(symb, storage, backend, offload, acc, async_panel_d2h,
                  stopwatch):
    """Coarse (RL) task graph: ``(plan, run_task, priority)``.

    Every task first pulls the parked updates of its supernode
    (:func:`~repro.numeric.executor.range_tasks`), then dispatches.
    GPU-placed supernodes run the RL offload pipeline on the modeled
    streams (least-loaded device placement, then the three-transfer
    pipeline).  CPU-placed supernodes run the *modeled* host body
    (:func:`~repro.numeric.rl_gpu.rl_cpu_snode` behind a ``dag_wait`` on
    the supernode's modeled ready time — the stream engines) or, given a
    ``stopwatch``, the threaded executor's *measured* real-BLAS task wrapped
    by it.  All park into one store and count down on one counter.  Only
    modeled bodies and GPU-side scatters advance the modeled clocks —
    measured CPU tasks impose no modeled delay on downstream GPU tasks.
    """
    machine = backend.machine
    host = backend.host
    cpu_t = machine.gpu_run_cpu_threads
    plan = dag_plan(symb, "coarse", trivial_ranges(symb))
    parked = {}
    countdown = Countdown(plan.indeg)
    pull, run = range_tasks(symb, storage, plan, parked)
    ready = {}  # supernode -> modeled time its inbound updates assembled
    itemsize = storage.itemsize
    index = assembly_index(symb)

    def scatter(s, U):
        """Source ``s``'s update matrix lands: parked for its targets to
        pull, charged as ONE host assembly pass on the modeled host clock (as
        the serial engine charges it); each target's modeled ready time moves
        up to now and gets one part delivered."""
        moved = index.moved[s]
        parked[s] = park_runs(storage, index, s, U)
        host.advance_cpu(
            machine.assembly_seconds(moved * itemsize / 8.0,
                                     threads=cpu_t, itemsize=itemsize),
            label="assembly")
        acc.assembly(moved)
        t = host.cpu
        for p in index.targets[s]:
            if ready.get(p, 0.0) < t:
                ready[p] = t
        return countdown.deliver(index.targets[s])

    def run_gpu(s):
        pull(s)
        _, gpu = backend.place()
        return rl_gpu_snode(symb, storage, s, gpu, scatter, acc,
                            async_panel_d2h=async_panel_d2h,
                            ready=ready.get(s, 0.0))

    if stopwatch is not None:
        run_cpu = stopwatch(countdown.task(run, plan.children))
    else:
        def run_cpu(s):
            pull(s)
            host.wait_cpu_until(ready.get(s, 0.0), label="dag_wait")
            return rl_cpu_snode(symb, storage, s, machine, host, cpu_t,
                                scatter, acc)

    def run_task(s):
        return run_gpu(s) if offload[s] else run_cpu(s)

    return plan, run_task, None


def _fine_graph(symb, storage, backend, offload, acc, inflight, stopwatch):
    """Fine (RLB v2) task graph: ``(plan, run_task, priority)``.

    The priority key (:func:`_fine_priority`) is the serial
    elimination-order schedule, which is what makes ``devices=1`` on the
    stream backend the paper's RLB version 2.  A supernode's factor task
    and all of its pair tasks share its placement; a factor task first
    pulls the parked pair products of its supernode.  GPU-placed ones run
    RLB v2's double-buffered per-pair pipeline, threaded through ``state``
    (the per-supernode in-flight pipeline) — only ever touched by one
    task at a time (the stream backend's single host thread, or the
    hybrid graph's chain); a product is parked, and its target delivered
    to, when its transfer drains.  CPU-placed ones run the modeled host
    bodies (:func:`~repro.numeric.rl_gpu.cpu_factor_snode` /
    :func:`~repro.numeric.rlb_gpu.rlb_cpu_pair`) or, given a ``stopwatch``,
    the threaded executor's measured fine task wrapped by it.
    """
    machine = backend.machine
    host = backend.host
    cpu_t = machine.gpu_run_cpu_threads
    nsup = symb.nsup
    plan = dag_plan(symb, "fine", trivial_ranges(symb))
    pairs, pair_ids = plan.pairs, plan.pair_ids
    parked = {}
    countdown = Countdown(plan.indeg)
    pull, run = range_tasks(symb, storage, plan, parked)
    ready = {}
    state = {}  # GPU-placed supernode -> in-flight pipeline state

    def park(tid, u):
        """Pair task ``tid``'s product lands: parked, one part delivered to
        its target, whose modeled ready time moves up to now."""
        parked[tid - nsup] = u
        owner = plan.targets[tid - nsup][0]
        t = host.cpu
        if ready.get(owner, 0.0) < t:
            ready[owner] = t
        return countdown.deliver((owner,))

    def gpu_factor(s):
        pull(s)
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

    def gpu_pair(tid):
        s, bi, bj = pairs[tid - nsup]
        st = state[s]
        gpu = st["gpu"]
        fl = st["inflight"]
        newly = []

        def drain_one():
            drained, item = fl.pop(0)
            newly.extend(park(drained, rlb_drain_pair(gpu, machine, cpu_t, acc, item)))

        if len(fl) >= inflight:
            drain_one()
        ubuf = rlb_gpu_pair(gpu, st["dbuf"], st["panel"], st["w"],
                            bi, bj, acc)
        fl.append((tid, (gpu.d2h_async(ubuf), ubuf, bi, bj)))
        st["left"] -= 1
        if st["left"] == 0:
            while fl:
                drain_one()
            gpu.wait(st["panel_back"])
            gpu.free(st["dbuf"])
            del state[s]
        return newly

    if stopwatch is not None:
        run_cpu = stopwatch(countdown.task(run, plan.children))
    else:

        def run_cpu(tid):
            if tid < nsup:
                pull(tid)
                host.wait_cpu_until(ready.get(tid, 0.0), label="dag_wait")
                cpu_factor_snode(symb, storage, tid, machine, host, cpu_t,
                                 acc)
                return pair_ids[tid]
            # small supernode: host kernel, product parked for its target
            s, bi, bj = pairs[tid - nsup]
            u = rlb_cpu_pair(storage.panel(s), symb.snode_ncols(s), bi, bj,
                             machine, host, cpu_t, acc)
            return park(tid, u)

    def run_task(tid):
        if not offload[plan.snode_of(tid)]:
            return run_cpu(tid)
        return gpu_factor(tid) if tid < nsup else gpu_pair(tid)

    return plan, run_task, _fine_priority(plan)


def _run_dag(symb, A, granularity, backend, threshold, dtype,
             async_panel_d2h, inflight, stopwatch=None):
    """The one driver of both DAG engines: resolve the granularity's
    default threshold, scatter ``A``, cut the offload mask, build the task
    graph and run it on ``backend``.  ``stopwatch`` selects the measured
    CPU bodies (the hybrid engine); the GPU-placed tasks are then chained
    in priority order on the backend's pool.  Returns ``(threshold,
    storage, offload, acc, ntasks)``; every supernode of ``offload`` ran
    on a device."""
    if threshold is None:
        threshold = (DEFAULT_RL_THRESHOLD if granularity == "coarse"
                     else DEFAULT_RLB_THRESHOLD)
    machine = backend.machine
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    offload = gpu_snode_mask(symb, threshold, machine=machine)
    acc = GpuCostAccumulator(machine, itemsize=storage.itemsize)
    if granularity == "coarse":
        graph = _coarse_graph(symb, storage, backend, offload, acc,
                              async_panel_d2h, stopwatch)
    else:
        graph = _fine_graph(symb, storage, backend, offload, acc, inflight,
                            stopwatch)
    plan, run_task, priority = graph
    roots = plan.roots
    if stopwatch is not None:
        order = sorted((t for t in range(plan.ntasks)
                        if offload[plan.snode_of(t)]), key=priority)
        roots, run_task = backend.chain_gpu(order, roots, run_task)
    backend.run_graph(plan.ntasks, roots, run_task, priority=priority)
    return threshold, storage, offload, acc, plan.ntasks


def _device_extra(backend, threshold, granularity, ntasks):
    """The ``extra`` entries every DAG engine on simulated devices
    reports."""
    return {
        "threshold": threshold,
        "device_memory": backend.gpus[0].capacity,
        "devices": backend.devices,
        "backend": backend.name,
        "granularity": granularity,
        "tasks": ntasks,
        "device_task_counts": list(backend.task_counts),
        "device_busy_seconds": backend.device_busy_seconds(),
    }


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
    _check_granularity(granularity)
    if backend is None:
        backend = GpuStreamBackend(devices=devices,
                                   machine=machine or MachineModel(),
                                   device_memory=device_memory,
                                   tracer=tracer)
    threshold, storage, offload, acc, ntasks = _run_dag(
        symb, A, granularity, backend, threshold, dtype, async_panel_d2h,
        inflight)
    return FactorizeResult(
        method="rl_gpu" if granularity == "coarse" else "rlb_gpu_v2",
        storage=storage,
        modeled_seconds=backend.elapsed(),
        total_snodes=symb.nsup,
        snodes_on_gpu=int(np.count_nonzero(offload)),
        gpu_stats=_aggregate_stats(backend.gpus),
        flops=acc.flops,
        kernel_count=acc.kernel_count,
        assembly_bytes=acc.assembly_bytes,
        extra=_device_extra(backend, threshold, granularity, ntasks),
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


def factorize_hybrid(symb, A, *, granularity="coarse", workers=None,
                     devices=1, machine=None, threshold=None,
                     device_memory=DEFAULT_DEVICE_MEMORY, backend=None,
                     tracer=None, async_panel_d2h=True, inflight=2,
                     dtype=None):
    """Factorize heterogeneously: one task DAG across CPU workers and GPU
    streams (engine names ``rl_hybrid`` / ``rlb_hybrid``).

    The paper's CPU+GPU split as a single schedule: supernodes whose
    dilated panel entries fall below ``threshold`` execute real BLAS on
    ``workers`` threads (measured wall-clock lanes), the rest dispatch
    their kernel pipelines onto ``devices`` simulated GPUs (modeled
    stream/copy lanes), with cross-placement dependencies honored through
    the shared ready queue and every update pulled by its target's own
    task — factors are bit-identical to the serial twin at any
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
    _check_granularity(granularity)
    if backend is None:
        backend = HybridBackend(workers=workers, devices=devices,
                                machine=machine or MachineModel(),
                                device_memory=device_memory, tracer=tracer)
    elif workers is not None:
        raise ValueError("pass either workers= or backend=, not both")
    machine = backend.machine
    tracer = backend.tracer
    durations = []  # list.append is atomic: one entry per CPU-placed task
    label_of = _task_label_fn(dag_plan(symb, granularity, trivial_ranges(symb)))
    t0 = time.perf_counter()

    def stopwatch(run_cpu):
        # GPU-placed tasks live on the modeled clocks; only CPU-placed
        # tasks get measured wall-clock intervals (and trace events on
        # their worker-thread lane, sharing the modeled lanes' origin)
        def run_timed(tid):
            start = time.perf_counter()
            try:
                return run_cpu(tid)
            finally:
                stop = time.perf_counter()
                durations.append(stop - start)
                if tracer is not None:
                    tracer.record(threading.current_thread().name,
                                  label_of(tid), start - t0, stop - t0)

        return run_timed

    threshold, storage, offload, acc, ntasks = _run_dag(
        symb, A, granularity, backend, threshold, dtype, async_panel_d2h,
        inflight, stopwatch)
    wall = time.perf_counter() - t0

    # the CPU lanes' modeled cost is the pattern's, restricted to the
    # CPU-placed supernodes (all of them: the memoised whole-pattern price)
    family = _FAMILY[granularity]
    cpu = cpu_cost(symb, family, machine, itemsize=storage.itemsize,
                   snodes=np.flatnonzero(~offload) if offload.any() else None)
    measured_cpu = sum(durations)
    modeled_gpu = backend.elapsed()
    combined = max(measured_cpu / backend.workers, modeled_gpu)
    on_gpu = int(np.count_nonzero(offload))
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
        extra=dict(
            _device_extra(backend, threshold, granularity, ntasks),
            workers=backend.workers,
            wall_seconds=wall,
            modeled_cpu_seconds=cpu.seconds,
        ),
    )
