"""Multifrontal supernodal Cholesky (Ashcraft's method, the paper's ref [4]).

The multifrontal method reorganizes the factorization around dense *frontal
matrices*: supernode ``J`` with panel shape ``(m, w)`` gets an ``m × m``
lower-valid front ``F`` indexed by ``rows(J)``.  Processing ``J`` (in
postorder, so children come first):

1. **extend-add** — pop each child's update matrix from the update stack and
   scatter-add it into ``F`` via relative indices (child rows are a subset of
   ``rows(J)``), then add ``A``'s entries of columns ``J``;
2. **partial factorization** — DPOTRF on the leading ``w × w`` block, DTRSM
   on the ``(m-w) × w`` rectangle (the finished panel is copied to factor
   storage), one DSYRK forming the Schur complement
   ``F₂₂ -= L₂₁ L₂₁ᵀ``;
3. **push** — the trailing ``(m-w) × (m-w)`` Schur complement becomes ``J``'s
   update matrix, pushed for its parent.

Where RL scatters one update matrix into *many* ancestors immediately, the
multifrontal method passes contributions strictly parent-by-parent through
the stack — more regular data movement at the price of temporary stack
storage (tracked here as ``peak_stack_bytes``; RL's analogue is its single
largest update matrix).

The GPU variant offloads step 2 of large fronts exactly like RL-GPU offloads
its panel chain: H2D of the assembled front, device POTRF/TRSM/SYRK, D2H of
the whole front (panel + update matrix in one transfer), extend-add on the
host.  Its device working set is the *front* (``m²`` entries), compared with
RL's panel + update matrix (``mw + (m-w)²``) — slightly larger, so the
memory-limited matrix that defeats RL defeats the multifrontal method too.
"""

from __future__ import annotations

import numpy as np

from ..dense import kernels as dk
from ..gpu.costmodel import MachineModel
from ..gpu.device import SimulatedGpu, Timeline
from .result import CpuCostAccumulator, FactorizeResult
from .storage import FactorStorage
from .threshold import DEFAULT_DEVICE_MEMORY, DEFAULT_RL_THRESHOLD

__all__ = [
    "factorize_multifrontal",
    "factorize_multifrontal_gpu",
    "front_relative_indices",
    "peak_front_entries",
]


def front_relative_indices(symb, child, parent):
    """Positions of ``child``'s below-diagonal rows inside ``parent``'s row
    list — where the child's update matrix lands in the parent's front.

    Raises :class:`ValueError` if containment fails (a symbolic-structure
    bug; the supernodal recurrence guarantees it for valid partitions).
    """
    crows = symb.snode_below_rows(child)
    prows = symb.snode_rows(parent)
    pos = np.searchsorted(prows, crows)
    if pos.size and (pos[-1] >= prows.size
                     or not np.array_equal(prows[pos], crows)):
        raise ValueError(
            f"child {child} update rows not contained in parent {parent}"
        )
    return pos


def peak_front_entries(symb):
    """Entries of the largest frontal matrix, ``max_s m_s²`` — the GPU
    working set of the multifrontal variant."""
    m = np.diff(symb.rowptr)
    return int(np.max(m * m)) if m.size else 0


def _scatter_matrix_columns(symb, A, s, F):
    """Add ``A``'s entries of supernode ``s``'s columns into front ``F``."""
    first, last = symb.snode_cols(s)
    rows_s = symb.snode_rows(s)
    for j in range(first, last):
        arows, avals = A.column(j)
        pos = np.searchsorted(rows_s, arows)
        F[pos, j - first] += avals


def _extend_add(symb, updates, children, s, F):
    """Pop every child's update matrix into ``F``; returns raw bytes moved
    (read + write, for the assembly cost model)."""
    moved = 0
    for c in children:
        U = updates.pop(c)
        if U.size:
            rel = front_relative_indices(symb, c, s)
            F[np.ix_(rel, rel)] += U
            moved += 2 * U.nbytes
    return moved


class _UpdateStack:
    """Update-matrix stack bookkeeping: current and peak bytes."""

    def __init__(self):
        self.updates = {}
        self.bytes = 0
        self.peak_bytes = 0

    def push(self, s, U):
        self.updates[s] = U
        self.bytes += U.nbytes
        self.peak_bytes = max(self.peak_bytes, self.bytes)

    def pop(self, c):
        U = self.updates.pop(c)
        self.bytes -= U.nbytes
        return U

    def __len__(self):
        return len(self.updates)


def factorize_multifrontal(symb, A, *, machine=None):
    """CPU multifrontal factorization.

    Produces the same :class:`~repro.numeric.storage.FactorStorage` as every
    other engine; modeled time follows the best-over-threads protocol.
    ``extra`` reports ``peak_stack_bytes`` and ``peak_front_entries`` — the
    method's temporary-storage signature.
    """
    machine = machine or MachineModel()
    storage = FactorStorage.zeros(symb)
    acc = CpuCostAccumulator(machine)
    children = symb.children()
    stack = _UpdateStack()
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        b = m - w
        F = np.zeros((m, m), order="F")
        moved = _extend_add(symb, stack, children[s], s, F)
        _scatter_matrix_columns(symb, A, s, F)
        acc.assembly(moved)
        dk.potrf(F[:w, :w])
        acc.kernel("potrf", n=w)
        if b:
            dk.trsm_right(F[w:, :w], F[:w, :w])
            acc.kernel("trsm", m=b, n=w)
            F[w:, w:] -= dk.syrk_lower(F[w:, :w])
            acc.kernel("syrk", n=b, k=w)
        storage.panel(s)[:, :] = F[:, :w]
        if b:
            stack.push(s, np.asfortranarray(F[w:, w:]))
        del F
    if len(stack):
        raise AssertionError("update stack not empty after the last root")
    threads, seconds = acc.best()
    return FactorizeResult(
        method="multifrontal",
        storage=storage,
        modeled_seconds=seconds,
        total_snodes=symb.nsup,
        cpu_times_by_threads=dict(acc.times),
        best_threads=threads,
        flops=acc.flops,
        kernel_count=acc.kernel_count,
        assembly_bytes=acc.assembly_bytes,
        extra={
            "peak_stack_bytes": stack.peak_bytes,
            "peak_front_entries": peak_front_entries(symb),
        },
    )


def factorize_multifrontal_gpu(symb, A, *, machine=None,
                               threshold=DEFAULT_RL_THRESHOLD,
                               device_memory=DEFAULT_DEVICE_MEMORY,
                               device=None):
    """Multifrontal factorization with large fronts offloaded to the
    (simulated) GPU — our extension of the paper's offload recipe to its
    reference [4] method.

    Per offloaded front: H2D of the assembled ``m × m`` front, device
    POTRF + TRSM + SYRK (Schur update in place), one blocking D2H of the
    whole front, host extend-add for the parent.  Fronts below ``threshold``
    dilated *panel* entries (the same measure the paper thresholds on) stay
    on the CPU.  Raises :class:`~repro.gpu.device.DeviceOutOfMemory` when a
    front exceeds free device memory.
    """
    machine = machine or MachineModel()
    gpu = device or SimulatedGpu(device_memory, machine=machine,
                                 timeline=Timeline())
    timeline = gpu.timeline
    cpu_t = machine.gpu_run_cpu_threads
    storage = FactorStorage.zeros(symb)
    children = symb.children()
    stack = _UpdateStack()
    on_gpu = 0
    flops = 0.0
    kernel_count = 0
    assembly_bytes = 0.0
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        b = m - w
        F = np.zeros((m, m), order="F")
        moved = _extend_add(symb, stack, children[s], s, F)
        _scatter_matrix_columns(symb, A, s, F)
        timeline.advance_cpu(
            machine.assembly_seconds(moved, threads=cpu_t),
            label="assembly")
        assembly_bytes += machine.scaled_bytes(moved)
        if machine.scaled_panel_entries(m * w) < threshold:
            dk.potrf(F[:w, :w])
            timeline.advance_cpu(
                machine.cpu_kernel_seconds("potrf", n=w, threads=cpu_t), label="cpu_blas")
            kernel_count += 1
            flops += machine.scaled_kernel_flops("potrf", n=w)
            if b:
                dk.trsm_right(F[w:, :w], F[:w, :w])
                timeline.advance_cpu(
                    machine.cpu_kernel_seconds("trsm", m=b, n=w,
                                               threads=cpu_t), label="cpu_blas")
                F[w:, w:] -= dk.syrk_lower(F[w:, :w])
                timeline.advance_cpu(
                    machine.cpu_kernel_seconds("syrk", n=b, k=w,
                                               threads=cpu_t), label="cpu_blas")
                kernel_count += 2
                flops += machine.scaled_kernel_flops("trsm", m=b, n=w)
                flops += machine.scaled_kernel_flops("syrk", n=b, k=w)
        else:
            on_gpu += 1
            fbuf = gpu.h2d(F)  # may raise DeviceOutOfMemory
            gpu.potrf(fbuf, F[:w, :w])
            kernel_count += 1
            flops += machine.scaled_kernel_flops("potrf", n=w)
            if b:
                gpu.trsm(fbuf, F[w:, :w], F[:w, :w])
                gpu.syrk_sub(fbuf, F[w:, :w], F[w:, w:])
                kernel_count += 2
                flops += machine.scaled_kernel_flops("trsm", m=b, n=w)
                flops += machine.scaled_kernel_flops("syrk", n=b, k=w)
            gpu.d2h(fbuf)  # blocking: panel copy + parent extend-add need it
            gpu.free(fbuf)
        storage.panel(s)[:, :] = F[:, :w]
        if b:
            stack.push(s, np.asfortranarray(F[w:, w:]))
        del F
    return FactorizeResult(
        method="multifrontal_gpu",
        storage=storage,
        modeled_seconds=timeline.elapsed(),
        total_snodes=symb.nsup,
        snodes_on_gpu=on_gpu,
        gpu_stats=gpu.stats,
        flops=flops,
        kernel_count=kernel_count,
        assembly_bytes=assembly_bytes,
        extra={
            "threshold": threshold,
            "device_memory": gpu.capacity,
            "peak_stack_bytes": stack.peak_bytes,
            "peak_front_entries": peak_front_entries(symb),
        },
    )
