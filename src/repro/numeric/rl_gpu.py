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

The two halves of the per-supernode work are the *task bodies*
:func:`rl_cpu_snode` and :func:`rl_gpu_snode`; the coarse task graph of
:mod:`repro.numeric.gpu_dag` schedules them (engine ``rl_gpu``), so the
kernel pipeline exists exactly once.  The ``scatter(s, U)`` callback seam
delivers the update matrix: the graph parks it for its targets' tasks to
pull, charges the one host assembly pass and returns the released task ids.
"""

from __future__ import annotations

from ..dense.kernels import factor_routines
from .rl import factor_snode, factor_update

__all__ = ["charge_cpu_kernel", "cpu_factor_snode", "rl_cpu_snode",
           "rl_gpu_snode"]


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
    charged on the host clock, then ``scatter(s, U)`` delivers the update
    matrix.

    ``scatter`` owns assembly *and its charging* and returns the task ids
    it released — forwarded to the caller.
    """
    entry = storage.factor_program()[s]
    _, w, b, panel = entry[:4]
    U = factor_update(entry, factor_routines(panel.dtype))
    charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                      "potrf", n=w)
    if not b:
        return ()
    charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                      "trsm", m=b, n=w)
    charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                      "syrk", n=b, k=w)
    return scatter(s, U)


def rl_gpu_snode(symb, storage, s, gpu, scatter, acc, *,
                 async_panel_d2h=True):
    """Offload task body of one RL supernode — the paper's three-transfer
    pipeline on ``gpu``: H2D → POTRF → TRSM → async panel D2H → SYRK →
    blocking update D2H → ``scatter(s, U)`` (host assembly, owned by the
    callback) → free.

    Raises :class:`~repro.gpu.device.DeviceOutOfMemory` when the panel or the
    update matrix exceeds free device memory — the paper's nlpkkt120
    failure mode.  Returns whatever ``scatter`` returned
    (released task ids; ``()`` without below rows).
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
    newly = ()
    if b:
        # may raise DeviceOutOfMemory
        ubuf = gpu.alloc_like((b, b), dtype=panel.dtype)
        gpu.syrk(dbuf, ubuf, panel[w:, :w], ubuf.array)
        acc.kernel("syrk", n=b, k=w)
        gpu.d2h(ubuf)  # blocking: assembly needs the update matrix
        newly = scatter(s, ubuf.array)
        gpu.free(ubuf)
    gpu.wait(panel_back)
    gpu.free(dbuf)
    return newly
