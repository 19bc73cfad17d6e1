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
schedule (factor task ``s``, then ``s``'s pair tasks, then ``s+1``).  Its
one device shares the host's timeline, so the host issues every operation
exactly as a serial loop over the supernodes would: factors are
bit-identical to the serial CPU engines, and the modeled seconds, transfer
counts and the allocation at which
:class:`~repro.gpu.device.DeviceOutOfMemory` fires are pinned by
``tests/test_gpu_golden.py`` against the hand-rolled loops this scheduler
replaced.

**One builder per granularity.**  :func:`_coarse_graph` and
:func:`_fine_graph` emit each task's body CPU-or-GPU from the
:func:`~repro.numeric.threshold.gpu_snode_mask` offload mask — the paper's
per-supernode CPU/GPU split.  The CPU-side body is the *modeled* one
(``rl_cpu_snode`` / ``cpu_factor_snode`` / ``rlb_cpu_pair`` charging the
host clock), so every second an engine here reports is on one clock.  The
stream substrate schedules the *trivial* partition
(:func:`~repro.symbolic.ranges.trivial_ranges`, one task per supernode):
the offload mask and every modeled second are per supernode.
"""

from __future__ import annotations

import numpy as np

from ..gpu.costmodel import MachineModel
from ..symbolic.ranges import trivial_ranges
from ..symbolic.relind import assembly_index
from .executor import (
    GpuStreamBackend,
    Countdown,
    _check_granularity,
    dag_plan,
    range_tasks,
)
from .result import FactorizeResult, GpuCostAccumulator
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

__all__ = ["factorize_gpu_dag", "factorize_rl_gpu", "factorize_rlb_gpu"]


def _fine_priority(plan):
    """The fine DAG's deterministic schedule key: every supernode's factor
    task before its pair tasks, both before the next supernode — the
    serial elimination-order schedule."""
    return lambda tid: (plan.snode_of(tid), tid)


def _coarse_graph(symb, storage, backend, offload, acc, async_panel_d2h):
    """Coarse (RL) task graph: ``(plan, run_task, priority)``.

    Every task first pulls the parked updates of its supernode
    (:func:`~repro.numeric.executor.range_tasks`), then dispatches.
    GPU-placed supernodes run the RL offload pipeline (the three-transfer
    pipeline) on the modeled streams.  CPU-placed supernodes run the
    *modeled* host body (:func:`~repro.numeric.rl_gpu.rl_cpu_snode`).  All
    park into one store and count down on one counter.
    """
    machine = backend.machine
    host = backend.host
    cpu_t = machine.gpu_run_cpu_threads
    plan = dag_plan(symb, "coarse", trivial_ranges(symb))
    parked = {}
    countdown = Countdown(plan.indeg)
    pull, _ = range_tasks(symb, storage, plan, parked)
    itemsize = storage.itemsize
    index = assembly_index(symb)

    def scatter(s, U):
        """Source ``s``'s update matrix lands: parked for its targets to
        pull, charged as ONE host assembly pass on the modeled host clock (as
        the serial engine charges it); each target gets one part delivered."""
        moved = index.moved[s]
        parked[s] = park_runs(storage, index, s, U)
        host.advance_cpu(
            machine.assembly_seconds(moved * itemsize / 8.0,
                                     threads=cpu_t, itemsize=itemsize),
            label="assembly")
        acc.assembly(moved)
        return countdown.deliver(index.targets[s])

    def run_task(s):
        pull(s)
        if offload[s]:
            return rl_gpu_snode(symb, storage, s, backend.gpu, scatter, acc,
                                async_panel_d2h=async_panel_d2h)
        return rl_cpu_snode(symb, storage, s, machine, host, cpu_t,
                            scatter, acc)

    return plan, run_task, None


def _fine_graph(symb, storage, backend, offload, acc, inflight):
    """Fine (RLB v2) task graph: ``(plan, run_task, priority)``.

    The priority key (:func:`_fine_priority`) is the serial
    elimination-order schedule, which is what makes the stream backend the
    paper's RLB version 2.  A supernode's factor task and all of its pair
    tasks share its placement (CPU or GPU); a factor task first
    pulls the parked pair products of its supernode.  GPU-placed ones run
    RLB v2's double-buffered per-pair pipeline, threaded through ``state``
    (the per-supernode in-flight pipeline) — only ever touched by the
    stream backend's single host thread; a product is parked, and its
    target delivered to, when its transfer drains.  CPU-placed ones run the
    modeled host bodies (:func:`~repro.numeric.rl_gpu.cpu_factor_snode` /
    :func:`~repro.numeric.rlb_gpu.rlb_cpu_pair`).
    """
    machine = backend.machine
    host = backend.host
    cpu_t = machine.gpu_run_cpu_threads
    nsup = symb.nsup
    plan = dag_plan(symb, "fine", trivial_ranges(symb))
    pairs, pair_ids = plan.pairs, plan.pair_ids
    parked = {}
    countdown = Countdown(plan.indeg)
    pull, _ = range_tasks(symb, storage, plan, parked)
    gpu = backend.gpu
    state = {}  # GPU-placed supernode -> in-flight pipeline state

    def park(tid, u):
        """Pair task ``tid``'s product lands: parked, one part delivered to
        its target."""
        parked[tid - nsup] = u
        return countdown.deliver((plan.targets[tid - nsup][0],))

    def gpu_factor(s):
        pull(s)
        panel, w, dbuf, panel_back = rlb_gpu_factor(symb, storage, s, gpu, acc)
        if not pair_ids[s]:
            gpu.wait(panel_back)
            gpu.free(dbuf)
            return ()
        state[s] = {"panel": panel, "w": w, "dbuf": dbuf,
                    "panel_back": panel_back, "left": len(pair_ids[s]),
                    "inflight": []}
        return pair_ids[s]

    def gpu_pair(tid):
        s, bi, bj = pairs[tid - nsup]
        st = state[s]
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

    def run_cpu(tid):
        if tid < nsup:
            pull(tid)
            cpu_factor_snode(symb, storage, tid, machine, host, cpu_t, acc)
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


def factorize_gpu_dag(symb, A, *, granularity="coarse", machine=None,
                      threshold=None, device_memory=DEFAULT_DEVICE_MEMORY,
                      backend=None,
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
    threshold:
        Dilated panel entries below which a supernode stays on the CPU
        (directly comparable to the paper's 600,000 / 750,000); ``0`` is
        the paper's "GPU only" variant.  Defaults to the granularity's
        own (:data:`~repro.numeric.threshold.DEFAULT_RL_THRESHOLD` /
        :data:`~repro.numeric.threshold.DEFAULT_RLB_THRESHOLD`).
    device_memory:
        Device capacity in dilated bytes.  A panel or update matrix
        exceeding free device memory raises
        :class:`~repro.gpu.device.DeviceOutOfMemory` — the paper's
        nlpkkt120 failure mode.
    backend:
        An existing :class:`~repro.numeric.executor.GpuStreamBackend` to
        run on (overrides ``machine`` / ``device_memory`` / ``tracer``).
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
        backend = GpuStreamBackend(machine=machine or MachineModel(),
                                   device_memory=device_memory,
                                   tracer=tracer)
    if threshold is None:
        threshold = (DEFAULT_RL_THRESHOLD if granularity == "coarse"
                     else DEFAULT_RLB_THRESHOLD)
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    offload = gpu_snode_mask(symb, threshold, machine=backend.machine)
    acc = GpuCostAccumulator(backend.machine, itemsize=storage.itemsize)
    if granularity == "coarse":
        graph = _coarse_graph(symb, storage, backend, offload, acc,
                              async_panel_d2h)
    else:
        graph = _fine_graph(symb, storage, backend, offload, acc, inflight)
    plan, run_task, priority = graph
    backend.run_graph(plan.ntasks, plan.roots, run_task, priority=priority)
    return FactorizeResult(
        method="rl_gpu" if granularity == "coarse" else "rlb_gpu_v2",
        storage=storage,
        modeled_seconds=backend.elapsed(),
        total_snodes=symb.nsup,
        snodes_on_gpu=int(np.count_nonzero(offload)),
        gpu_stats=backend.gpu.stats,
        flops=acc.flops,
        kernel_count=acc.kernel_count,
        assembly_bytes=acc.assembly_bytes,
        extra={
            "threshold": threshold,
            "device_memory": backend.gpu.capacity,
            "backend": backend.name,
            "granularity": granularity,
            "tasks": plan.ntasks,
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

