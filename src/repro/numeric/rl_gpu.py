"""GPU-accelerated RL (§III).

Per offloaded supernode ``J`` the schedule is exactly the paper's:

1. **H2D** transfer of the panel;
2. DPOTRF on the diagonal block, DTRSM on the rectangle — on the GPU;
3. **asynchronous D2H** of the factorized panel (the CPU "does not
   immediately require the data", so this overlaps the next step);
4. DSYRK on the GPU producing the full update matrix in device memory —
   this is the allocation that overflows the device for nlpkkt120;
5. blocking **D2H** of the update matrix;
6. assembly into ancestor panels on the CPU (OpenMP-parallel), driven by the
   relative indices cached on the symbolic factor
   (:func:`repro.symbolic.relind.assembly_index`: the flat form, or the
   block form's slice pieces, :meth:`~repro.symbolic.relind.AssemblyIndex.pieces`).

Supernodes with panels below the size threshold take the CPU-only RL path
(host BLAS + assembly at the configured host thread count).

The two halves of the per-supernode work are the bodies :func:`rl_cpu_snode`
and :func:`rl_gpu_snode`; :func:`factorize_rl_gpu` (engine ``rl_gpu``) is
the paper's host loop over the supernodes in elimination order, calling one
or the other per the size threshold.  The ``scatter(s, U)`` callback
assembles the update matrix straight into the ancestors and charges the one
host assembly pass.  Every device operation is issued by that one host
loop, so the modeled seconds are the host clock
(:meth:`~repro.gpu.device.Timeline.elapsed`): every pipeline ends in a host
wait.
"""

from __future__ import annotations

import numpy as np

from ..dense.kernels import factor_routines
from ..gpu.costmodel import MachineModel
from ..gpu.device import SimulatedGpu, Timeline
from ..symbolic.relind import assembly_index
from .result import FactorizeResult, GpuCostAccumulator
from .rl import _assemble, factor_snode, factor_update
from .storage import FactorStorage
from .threshold import DEFAULT_DEVICE_MEMORY, DEFAULT_RL_THRESHOLD, \
    gpu_snode_mask

__all__ = ["charge_cpu_kernel", "cpu_factor_snode", "factorize_rl_gpu",
           "rl_cpu_snode", "rl_gpu_snode"]


def charge_cpu_kernel(machine, timeline, cpu_t, acc, itemsize, kind,
                      m=0, n=0, k=0):
    """Charge one host BLAS call: its modeled seconds at ``cpu_t`` threads
    on ``timeline``'s host clock, its dilated work on ``acc``."""
    timeline.advance_cpu(
        machine.cpu_kernel_seconds(kind, m, n, k, threads=cpu_t,
                                   itemsize=itemsize),
        label="cpu_blas")
    acc.kernel(kind, m, n, k)


def cpu_factor_snode(symb, storage, s, machine, timeline, cpu_t, acc):
    """CPU-path factor body of one supernode (RL and RLB alike): the serial
    engines' :func:`~repro.numeric.rl.factor_snode` with its POTRF + TRSM
    charged on the host clock; returns ``(panel, w, b)``."""
    panel, w, b = factor_snode(symb, storage, s)
    charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                      "potrf", n=w)
    if b:
        charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                          "trsm", m=b, n=w)
    return panel, w, b


def rl_cpu_snode(symb, storage, s, machine, timeline, cpu_t, scatter, acc):
    """CPU-path task body of one RL supernode: the serial engine's fused
    :func:`~repro.numeric.rl.factor_update` with its POTRF, TRSM and SYRK
    charged on the host clock, then ``scatter(s, U)`` (which owns assembly
    *and its charging*) delivers the update matrix.
    """
    entry = storage.factor_program()[s]
    _, w, b, panel = entry[:4]
    U = factor_update(entry, factor_routines(panel.dtype))
    charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                      "potrf", n=w)
    if not b:
        return
    charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                      "trsm", m=b, n=w)
    charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                      "syrk", n=b, k=w)
    scatter(s, U)


def rl_gpu_snode(symb, storage, s, gpu, scatter, acc, *,
                 async_panel_d2h=True):
    """Offload task body of one RL supernode — the paper's three-transfer
    pipeline on ``gpu``: H2D → POTRF → TRSM → async panel D2H → SYRK →
    blocking update D2H → ``scatter(s, U)`` (host assembly, owned by the
    callback) → free.

    Raises :class:`~repro.gpu.device.DeviceOutOfMemory` when the panel or the
    update matrix exceeds free device memory — the paper's nlpkkt120
    failure mode.
    """
    panel = storage.panel(s)
    m, w = symb.panel_shape(s)
    b = m - w
    dbuf = gpu.h2d(panel)
    gpu.potrf(dbuf, panel[:w, :w])
    acc.kernel("potrf", n=w)
    if b:
        gpu.trsm(dbuf, panel[w:, :w], panel[:w, :w])
        acc.kernel("trsm", m=b, n=w)
    panel_back = gpu.d2h_async(dbuf)  # async: CPU does not need it yet
    if not async_panel_d2h:
        # ablation: host blocks on the copy now; device data stays
        # valid for the SYRK below (snapshot semantics)
        gpu.wait(panel_back, keep_on_device=True)
    if b:
        # may raise DeviceOutOfMemory
        ubuf = gpu.alloc_like((b, b), dtype=panel.dtype)
        gpu.syrk(dbuf, ubuf, panel[w:, :w], ubuf.array)
        acc.kernel("syrk", n=b, k=w)
        gpu.d2h(ubuf)  # blocking: assembly needs the update matrix
        scatter(s, ubuf.array)
        gpu.free(ubuf)
    gpu.wait(panel_back)
    gpu.free(dbuf)


def _offload_setup(symb, A, machine, threshold, device_memory, tracer, dtype):
    """What every offload loop starts from: ``(machine, gpu, storage,
    offload, acc)`` — one simulated device on a fresh host
    :class:`~repro.gpu.device.Timeline`, the factor storage, the
    per-supernode offload mask and the work accumulator."""
    machine = machine or MachineModel()
    gpu = SimulatedGpu(device_memory, machine=machine,
                       timeline=Timeline(tracer=tracer))
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    offload = gpu_snode_mask(symb, threshold, machine=machine)
    acc = GpuCostAccumulator(machine, itemsize=storage.itemsize)
    return machine, gpu, storage, offload, acc


def _offload_result(method, symb, gpu, storage, offload, acc, threshold):
    """The :class:`~repro.numeric.result.FactorizeResult` of an offload
    loop; modeled seconds are the host clock."""
    return FactorizeResult(
        method=method,
        storage=storage,
        modeled_seconds=gpu.timeline.elapsed(),
        total_snodes=symb.nsup,
        snodes_on_gpu=int(np.count_nonzero(offload)),
        gpu_stats=gpu.stats,
        flops=acc.flops,
        kernel_count=acc.kernel_count,
        assembly_bytes=acc.assembly_bytes,
        extra={"threshold": threshold, "device_memory": gpu.capacity},
    )


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
    machine, gpu, storage, offload, acc = _offload_setup(
        symb, A, machine, threshold, device_memory, tracer, dtype)
    host = gpu.timeline
    cpu_t = machine.gpu_run_cpu_threads
    itemsize = storage.itemsize
    index = assembly_index(symb)

    def scatter(s, U):
        """Assemble source ``s``'s update matrix into its ancestors, charged
        as ONE host assembly pass (as the serial engine charges it)."""
        _assemble(storage, index, s, U)
        moved = index.moved[s]
        host.advance_cpu(
            machine.assembly_seconds(moved * itemsize / 8.0,
                                     threads=cpu_t, itemsize=itemsize),
            label="assembly")
        acc.assembly(moved)

    for s in range(symb.nsup):
        if offload[s]:
            rl_gpu_snode(symb, storage, s, gpu, scatter, acc,
                         async_panel_d2h=async_panel_d2h)
        else:
            rl_cpu_snode(symb, storage, s, machine, host, cpu_t, scatter, acc)
    return _offload_result("rl_gpu", symb, gpu, storage, offload, acc,
                           threshold)
