"""GPU-accelerated RL (§III) and the offload schedule of every gpu row.

Per offloaded supernode ``J`` RL's schedule is exactly the paper's:

1. **H2D** transfer of the panel;
2. DPOTRF on the diagonal block, DTRSM on the rectangle — on the GPU;
3. **asynchronous D2H** of the factorized panel (the CPU "does not
   immediately require the data", so this overlaps the next step);
4. DSYRK on the GPU producing the full update matrix in device memory —
   this is the allocation that overflows the device for nlpkkt120;
5. blocking **D2H** of the update matrix;
6. assembly into ancestor panels on the CPU (OpenMP-parallel).

Supernodes with panels below the size threshold take the CPU-only RL path
(host BLAS + assembly at the configured host thread count).

The simulated device computes nothing, and a gpu row's factor is its serial
twin's, bit for bit.  So a row is two parts:

* **the clock** — :func:`gpu_schedule`, a walk over the pattern alone.  It
  reads every kernel shape and assembly volume off the serial call stream
  :func:`~repro.numeric.result.kernel_stream` (the one
  :func:`~repro.numeric.result.cpu_cost` prices) and issues the paper's
  host loop — RL's pipeline above, or RLB's
  (:mod:`repro.numeric.rlb_gpu`) — on one
  :class:`~repro.gpu.device.SimulatedGpu`.  Every device operation is
  issued by that one host loop, so the modeled seconds are the host clock
  (:meth:`~repro.gpu.device.Timeline.elapsed`): every pipeline ends in a
  host wait.  It runs before any numeric work, so
  :class:`~repro.gpu.device.DeviceOutOfMemory` is raised at the paper's
  failure point with nothing computed;
* **the factor** — the serial twin's in-place body on a fresh storage
  (:func:`~repro.numeric.rl._factorize_rl_in` for ``rl_gpu``, the compiled
  loop where it builds).
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from operator import itemgetter

import numpy as np

from ..gpu.costmodel import MachineModel
from ..gpu.device import SimulatedGpu, Timeline
from .result import FactorizeResult, GpuCostAccumulator, kernel_stream
from .rl import _factorize_rl_in
from .storage import FactorStorage
from .threshold import DEFAULT_DEVICE_MEMORY, DEFAULT_RL_THRESHOLD, \
    DEFAULT_RLB_THRESHOLD, gpu_snode_mask

__all__ = ["factorize_rl_gpu", "gpu_schedule"]

#: gpu row -> the serial family whose call stream it schedules
_FAMILY = {"rl_gpu": "rl", "rlb_gpu_v2": "rlb", "rlb_gpu_v1": "rlb"}


def gpu_schedule(symb, method, *, machine=None, threshold=None,
                 device_memory=DEFAULT_DEVICE_MEMORY, tracer=None, itemsize=8,
                 async_panel_d2h=True, inflight=2):
    """The modeled run of gpu row ``method`` (``"rl_gpu"``,
    ``"rlb_gpu_v2"`` or ``"rlb_gpu_v1"``) on the pattern ``symb``: a
    :class:`~repro.numeric.result.FactorizeResult` with no storage, whose
    ``modeled_seconds``, ``gpu_stats``, work totals and ``snodes_on_gpu``
    are the row's report.

    ``threshold=None`` is the row's default; ``itemsize`` is the factor's
    element size (8 for fp64, 4 for fp32).  ``async_panel_d2h`` applies to
    ``rl_gpu`` and ``inflight`` to ``rlb_gpu_v2`` (see the rows).  Raises
    :class:`~repro.gpu.device.DeviceOutOfMemory` at the first allocation
    that does not fit ``device_memory``; ``device_memory=float("inf")``
    gives the unbounded peak (``gpu_stats.peak_memory``).
    """
    if method not in _FAMILY:
        raise ValueError(f"unknown method {method!r}; one of {tuple(_FAMILY)}")
    if threshold is None:
        threshold = DEFAULT_RL_THRESHOLD if method == "rl_gpu" else DEFAULT_RLB_THRESHOLD
    machine = machine or MachineModel()
    gpu = SimulatedGpu(device_memory, machine=machine,
                       timeline=Timeline(tracer=tracer))
    host = gpu.timeline
    offload = gpu_snode_mask(symb, threshold, machine=machine)
    acc = GpuCostAccumulator(machine, itemsize=itemsize)
    cpu_t = machine.gpu_run_cpu_threads

    def assemble(moved):
        """Charge ONE host assembly pass of ``moved`` fp64-normalized
        bytes, as the serial engine charges it."""
        host.advance_cpu(
            machine.assembly_seconds(moved * itemsize / 8.0, threads=cpu_t,
                                     itemsize=itemsize),
            label="assembly")
        acc.assembly(moved)

    def pair(dbuf, kind, m, n, k):
        """Allocate one block pair's update buffer (may raise
        DeviceOutOfMemory) and run its DSYRK/DGEMM on the device."""
        rows = n if kind == "syrk" else m
        ubuf = gpu.alloc(rows * n * itemsize, itemsize)
        if kind == "syrk":
            gpu.syrk(dbuf, ubuf, n, k)
        else:
            gpu.gemm(dbuf, ubuf, m, n, k)
        acc.kernel(kind, m, n, k)
        return ubuf, rows * n

    def drain(handle, ubuf, entries):
        """Version 2: host waits for one pair's D2H, assembles it, frees."""
        gpu.wait(handle)
        host.advance_cpu(
            machine.assembly_seconds(2 * itemsize * entries, threads=cpu_t,
                                     itemsize=itemsize),
            label="assembly")
        acc.assembly(2 * 8 * entries)
        gpu.free(ubuf)

    for s, calls in groupby(kernel_stream(symb, _FAMILY[method]), itemgetter(0)):
        calls = [call[1:] for call in calls]
        if not offload[s]:
            for kind, m, n, k in calls:
                if kind == "assembly":
                    assemble(m)
                    continue
                host.advance_cpu(
                    machine.cpu_kernel_seconds(kind, m, n, k, threads=cpu_t,
                                               itemsize=itemsize),
                    label="cpu_blas")
                acc.kernel(kind, m, n, k)
            continue
        m, w = symb.panel_shape(s)
        b = m - w
        dbuf = gpu.h2d(m * w * itemsize, itemsize)
        gpu.potrf(dbuf, w)
        acc.kernel("potrf", n=w)
        if b:
            gpu.trsm(dbuf, b, w)
            acc.kernel("trsm", m=b, n=w)
        panel_back = gpu.d2h_async(dbuf)  # async: CPU does not need it yet
        if not async_panel_d2h:
            # ablation: host blocks on the copy now; device data stays
            # valid for the update below (snapshot semantics)
            gpu.wait(panel_back, keep_on_device=True)
        updates = calls[2:]
        if method == "rl_gpu" and b:
            # may raise DeviceOutOfMemory: the full update matrix
            ubuf = gpu.alloc(b * b * itemsize, itemsize)
            gpu.syrk(dbuf, ubuf, b, w)
            acc.kernel("syrk", n=b, k=w)
            gpu.d2h(ubuf)  # blocking: assembly needs the update matrix
            assemble(updates[1][1])
            gpu.free(ubuf)
        elif method == "rlb_gpu_v1" and updates:
            bufs = [pair(dbuf, *call) for call in updates]
            # one batched transfer of all update matrices (§III v1)
            raw_total = sum(entries * itemsize for _, entries in bufs)
            host.advance_cpu(gpu.launch_overhead_s)
            done = host.enqueue_copy(
                machine.transfer_seconds(raw_total, itemsize),
                ready=max(ubuf.ready for ubuf, _ in bufs),
            )
            gpu.stats.d2h_bytes += machine.scaled_bytes(raw_total, itemsize)
            gpu.stats.transfers += 1
            host.wait_cpu_until(done)
            for ubuf, entries in bufs:
                assemble(2 * 8 * entries)
                gpu.free(ubuf)
        elif method == "rlb_gpu_v2":
            window = deque()
            for call in updates:
                if len(window) >= inflight:
                    drain(*window.popleft())
                ubuf, entries = pair(dbuf, *call)
                window.append((gpu.d2h_async(ubuf), ubuf, entries))
            while window:
                drain(*window.popleft())
        gpu.wait(panel_back)
        gpu.free(dbuf)
    return FactorizeResult(
        method=method,
        storage=None,
        modeled_seconds=host.elapsed(),
        total_snodes=symb.nsup,
        snodes_on_gpu=int(np.count_nonzero(offload)),
        gpu_stats=gpu.stats,
        flops=acc.flops,
        kernel_count=acc.kernel_count,
        assembly_bytes=acc.assembly_bytes,
        extra={"threshold": threshold, "device_memory": gpu.capacity},
    )


def _offload_row(method, body, symb, A, dtype, **schedule):
    """A gpu row: the fresh storage of ``A``'s values, the row's
    :func:`gpu_schedule` (before any numeric work), then the serial twin's
    in-place ``body`` on the storage — the report of the first, the factor
    of the second."""
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    result = gpu_schedule(symb, method, itemsize=storage.itemsize, **schedule)
    body(storage)
    result.storage = storage
    return result


def factorize_rl_gpu(symb, A, *, machine=None, threshold=DEFAULT_RL_THRESHOLD,
                     device_memory=DEFAULT_DEVICE_MEMORY, tracer=None,
                     async_panel_d2h=True, dtype=None):
    """RL with large supernodes offloaded to the (simulated) GPU — Table
    I's method (engine ``rl_gpu``).

    Parameters
    ----------
    threshold:
        Dilated panel entries below which a supernode stays on the CPU
        (directly comparable to the paper's 600,000); ``0`` is the paper's
        "GPU only" variant.
    device_memory:
        Device capacity in dilated bytes.  A panel or update matrix
        exceeding free device memory raises
        :class:`~repro.gpu.device.DeviceOutOfMemory` — the paper's
        nlpkkt120 failure mode.
    tracer:
        A :class:`~repro.gpu.trace.Tracer` recording the timeline's
        ``cpu`` / ``gpu`` / ``copy_in`` / ``copy_out`` lanes.
    async_panel_d2h:
        The pipeline ablation switch: ``False`` makes the factored-panel
        transfer a host-blocking copy issued at the same point of the
        schedule, removing the overlap with the SYRK that the paper's step
        3 ("this second transfer is asynchronous") buys.
    """
    return _offload_row("rl_gpu", _factorize_rl_in, symb, A, dtype,
                        machine=machine, threshold=threshold,
                        device_memory=device_memory, tracer=tracer,
                        async_panel_d2h=async_panel_d2h)
