"""Result and accounting types shared by all factorization engines.

:func:`kernel_stream` is the BLAS/assembly call stream of a serial RL or RLB
factorization read off the pattern's index arrays
(:func:`~repro.symbolic.relind.assembly_index`,
:func:`~repro.symbolic.blocks.pair_index`); :func:`cpu_cost` prices it once
per pattern.  A stream repeats few distinct calls many times (8 038 block
pairs of 60-odd shapes on a 64² grid), so :class:`CpuCostAccumulator` prices
each distinct ``(kind, m, n, k)`` once and only *adds* per call — in stream
order, so the totals are the same floats a call-by-call pricing gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..gpu.costmodel import CPU_THREAD_CHOICES, MachineModel
from ..symbolic.blocks import pair_index
from ..symbolic.relind import assembly_index

__all__ = [
    "CpuCostAccumulator",
    "GpuCostAccumulator",
    "CpuCost",
    "kernel_stream",
    "cpu_cost",
    "FactorizeResult",
]


class CpuCostAccumulator:
    """Accumulates modeled CPU time simultaneously for every MKL thread
    count the paper sweeps, so one numeric run yields the whole
    best-over-threads baseline.

    ``assembly_threads`` selects how scatter-add assembly is charged:
    ``None`` (default) charges it OpenMP-parallel at each configuration's
    thread count (the paper parallelizes assembly loops with OpenMP); an
    integer pins a fixed thread count.

    ``itemsize`` is the factor's element size (8 for fp64, 4 for fp32):
    kernels are charged at the single-precision BLAS rate and assembly
    traffic at half the bytes when the factor is fp32.  Callers report
    assembly in *fp64-normalized* bytes (the symbolic plans' 8-bytes/entry
    convention); the accumulator rescales to actual bytes.
    """

    def __init__(
        self,
        machine: MachineModel,
        thread_choices=CPU_THREAD_CHOICES,
        *,
        assembly_threads=None,
        itemsize=8,
    ):
        self.machine = machine
        self.times = {t: 0.0 for t in thread_choices}
        self.assembly_threads = assembly_threads
        self.itemsize = int(itemsize)
        self.kernel_count = 0
        self.flops = 0.0
        self.assembly_bytes = 0

    def _kernel_price(self, kind, m, n, k):
        """``(dilated flops, modeled seconds per thread count)`` of one BLAS
        call."""
        f = self.machine.scaled_kernel_flops(kind, m, n, k)
        cpu = self.machine.cpu
        speedup = self.machine.cpu_fp_speedup(self.itemsize)
        return f, [cpu.kernel_time(f, t, speedup) for t in self.times]

    def _assembly_price(self, nbytes):
        """``(dilated bytes, modeled seconds per thread count)`` of one
        scatter-add pass."""
        actual = nbytes * self.itemsize / 8.0
        scaled = self.machine.scaled_bytes(actual, self.itemsize)
        cpu = self.machine.cpu
        return scaled, [cpu.assembly_time(scaled, self.assembly_threads or t) for t in self.times]

    def kernel(self, kind, m=0, n=0, k=0):
        """Charge one BLAS call (at dilated dimensions) to every thread
        configuration."""
        f, seconds = self._kernel_price(kind, m, n, k)
        self.flops += f
        self.kernel_count += 1
        for t, dt in zip(self.times, seconds):
            self.times[t] += dt

    def assembly(self, nbytes):
        """Charge a scatter-add moving ``nbytes`` (fp64-normalized raw
        bytes; rescaled to the factor's itemsize and dilated inside)."""
        scaled, seconds = self._assembly_price(nbytes)
        self.assembly_bytes += scaled
        for t, dt in zip(self.times, seconds):
            self.times[t] += dt

    def charge(self, stream):
        """Charge a whole :func:`kernel_stream` — the same totals, to the
        last bit, as one :meth:`kernel` / :meth:`assembly` per call, at a
        fraction of the cost: each distinct ``(kind, m, n, k)`` is priced
        once, and the additions still happen call by call, in stream order
        (``cumsum`` accumulates sequentially; a call adds an exact ``0.0``
        to the totals it does not touch)."""
        # a row: kernel calls, flops, assembly bytes, seconds per thread count
        rows = [(self.kernel_count, self.flops, self.assembly_bytes, *self.times.values())]
        row_of = {}
        calls = [0]
        for call in stream:
            call = call[1:]
            row = row_of.get(call)
            if row is None:
                row = row_of[call] = len(rows)
                if call[0] == "assembly":
                    scaled, seconds = self._assembly_price(call[1])
                    rows.append((0, 0.0, scaled, *seconds))
                else:
                    f, seconds = self._kernel_price(*call)
                    rows.append((1, f, 0.0, *seconds))
            calls.append(row)
        totals = np.cumsum(np.array(rows, dtype=np.float64)[calls], axis=0)[-1].tolist()
        count, self.flops, nbytes, *seconds = totals
        self.kernel_count = int(count)
        if any(call[0] == "assembly" for call in row_of):  # else it stays the int it was
            self.assembly_bytes = nbytes
        self.times = dict(zip(self.times, seconds))

    def best(self):
        """``(threads, seconds)`` of the fastest configuration."""
        return self.machine.cpu.best_threads(self.times)

    def at(self, threads):
        """Modeled seconds for a specific thread count."""
        return self.times[threads]


class GpuCostAccumulator:
    """Work accounting of the GPU-offload engines.

    The offload engines charge modeled *time* onto a
    :class:`~repro.gpu.device.Timeline`; what this accumulator tracks is
    the dilated work totals (``flops``, ``kernel_count``,
    ``assembly_bytes``) every engine reports on its
    :class:`FactorizeResult`.
    """

    __slots__ = ("machine", "flops", "kernel_count", "assembly_bytes", "itemsize")

    def __init__(self, machine: MachineModel, *, itemsize=8):
        self.machine = machine
        self.itemsize = int(itemsize)
        self.flops = 0.0
        self.kernel_count = 0
        self.assembly_bytes = 0.0

    def kernel(self, kind, m=0, n=0, k=0):
        """Count one BLAS call at dilated dimensions."""
        self.flops += self.machine.scaled_kernel_flops(kind, m, n, k)
        self.kernel_count += 1

    def assembly(self, nbytes):
        """Count a scatter-add of ``nbytes`` (fp64-normalized raw bytes;
        rescaled to the factor's itemsize and dilated inside)."""
        actual = nbytes * self.itemsize / 8.0
        self.assembly_bytes += self.machine.scaled_bytes(actual, self.itemsize)


@dataclass
class FactorizeResult:
    """Outcome of one numeric factorization.

    Attributes
    ----------
    method:
        ``"rl"`` / ``"rlb"`` / ``"rl_gpu"`` / ``"rlb_gpu_v1"`` /
        ``"rlb_gpu_v2"`` / ``"left_looking_gpu"``.
    storage:
        The numeric factor (:class:`~repro.numeric.storage.FactorStorage`).
    modeled_seconds:
        Modeled runtime — for CPU methods the *best-over-threads* time (the
        paper's baseline protocol); for GPU methods the timeline's final
        host-clock value.
    cpu_times_by_threads:
        For CPU methods: modeled seconds per MKL thread count.
    best_threads:
        Thread count achieving ``modeled_seconds`` (CPU methods).
    snodes_on_gpu / total_snodes:
        The table columns of Tables I and II.
    gpu_stats:
        :class:`~repro.gpu.device.GpuStats` for GPU methods.
    flops / kernel_count / assembly_bytes:
        Work statistics at the machine model's dilated scale (flops × σ³,
        bytes × σ²) — the scale the modeled seconds correspond to.
    extra:
        Engine-specific measurements.  The threaded and process executors
        record ``workers``, ``granularity``, ``tasks`` and this one
        factorization's measured ``wall_seconds``; a serving session adds
        ``stream_index``.
    """

    method: str
    storage: "object"
    modeled_seconds: float
    total_snodes: int
    cpu_times_by_threads: Optional[dict] = None
    best_threads: Optional[int] = None
    snodes_on_gpu: int = 0
    gpu_stats: Optional[object] = None
    flops: float = 0.0
    kernel_count: int = 0
    assembly_bytes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def wall_seconds(self):
        """Measured wall-clock seconds, when the engine records one (the
        threaded executor does; modeled-only engines return ``None``)."""
        return self.extra.get("wall_seconds")


@dataclass(frozen=True)
class CpuCost:
    """Modeled CPU cost of one RL/RLB factorization — the frozen totals of
    a :class:`CpuCostAccumulator` after :func:`cpu_cost`'s pattern walk.
    ``times`` is ``((threads, seconds), ...)`` over the swept MKL thread
    counts; ``best_threads`` / ``seconds`` the paper's best-over-threads
    baseline."""

    times: tuple
    best_threads: int
    seconds: float
    flops: float
    kernel_count: int
    assembly_bytes: float

    def result(self, method, storage, extra):
        """The :class:`FactorizeResult` of an engine run that produced
        ``storage`` on the priced pattern."""
        return FactorizeResult(
            method=method,
            storage=storage,
            modeled_seconds=self.seconds,
            total_snodes=storage.symb.nsup,
            cpu_times_by_threads=dict(self.times),
            best_threads=self.best_threads,
            flops=self.flops,
            kernel_count=self.kernel_count,
            assembly_bytes=self.assembly_bytes,
            extra=extra,
        )


def kernel_stream(symb, family):
    """The BLAS/assembly call stream of a serial ``"rl"`` or ``"rlb"``
    factorization, from the sparsity pattern alone.

    Yields ``(s, kind, m, n, k)`` per call in elimination order: DPOTRF
    and DTRSM of supernode ``s``, then RL's one DSYRK and one
    ``"assembly"`` pass (``m`` = fp64-normalized bytes moved), or RLB's
    DSYRK/DGEMM per block pair.
    """
    if family not in ("rl", "rlb"):
        raise ValueError(f"unknown family {family!r}; choose 'rl' or 'rlb'")
    if family == "rl":
        moved = assembly_index(symb).moved
    else:
        index = pair_index(symb)
        pair_ptr = index.pair_ptr
        diagonal = index.upper == index.lower
        kinds = np.where(diagonal, "syrk", "gemm").tolist()
        rows = np.where(diagonal, 0, index.blk_len[index.lower]).tolist()
        cols = index.blk_len[index.upper].tolist()
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        b = m - w
        yield s, "potrf", 0, w, 0
        if not b:
            continue
        yield s, "trsm", b, w, 0
        if family == "rl":
            yield s, "syrk", 0, b, w
            yield s, "assembly", moved[s], 0, 0
            continue
        for pair in range(pair_ptr[s], pair_ptr[s + 1]):
            yield s, kinds[pair], rows[pair], cols[pair], w


def cpu_cost(symb, family, machine, thread_choices=CPU_THREAD_CHOICES, itemsize=8):
    """Price the pattern: the :class:`CpuCost` of ``family``'s
    :func:`kernel_stream`, charged in the serial engines' order.

    The cost depends on the pattern only, so it is computed once per
    ``(family, machine, thread_choices, itemsize)`` and memoised on
    ``symb.cache()`` — every CPU-lane engine and backend reports this one
    object, and later same-pattern factorizations do no accounting.
    ``machine=None`` is the default :class:`MachineModel`.
    """
    machine = machine or MachineModel()
    choices = tuple(thread_choices)
    key = (family, machine, choices, int(itemsize))
    memo = symb.cache().setdefault("cpu_cost", {})
    if key in memo:
        return memo[key]
    acc = CpuCostAccumulator(machine, choices, itemsize=itemsize)
    acc.charge(kernel_stream(symb, family))
    threads, seconds = acc.best()
    times = tuple(acc.times.items())
    cost = CpuCost(times, threads, seconds, acc.flops, acc.kernel_count, acc.assembly_bytes)
    memo[key] = cost
    return cost
