"""Result and accounting types shared by all factorization engines.

:func:`kernel_stream` is the BLAS/assembly call stream of a serial RL or RLB
factorization read off the pattern's index arrays
(:func:`~repro.symbolic.relind.assembly_index`,
:func:`~repro.symbolic.blocks.pair_index`); :func:`cpu_cost` prices it once
per pattern for the serial engines.  A stream repeats few distinct calls many
times (8 038 block pairs of 60-odd shapes on a 64² grid), so :func:`cpu_cost`
prices each distinct ``(kind, m, n, k)`` once and only *adds* per call — in
stream order, so the totals are the same floats a call-by-call pricing gives.
A serial row's report prices on first read (:func:`serial_result`); the
threads and process rows measure instead and carry no model field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Optional

import numpy as np

from ..gpu.costmodel import CPU_THREAD_CHOICES, MachineModel
from ..symbolic.blocks import pair_index
from ..symbolic.relind import assembly_index

__all__ = [
    "GpuCostAccumulator",
    "CpuCost",
    "kernel_stream",
    "cpu_cost",
    "FactorizeResult",
    "serial_result",
]


class GpuCostAccumulator:
    """Work accounting of the GPU-offload engines.

    The offload schedule walk charges modeled *time* onto a
    :class:`~repro.gpu.device.Timeline`; what this accumulator tracks is
    the dilated work totals (``flops``, ``kernel_count``,
    ``assembly_bytes``) every GPU engine reports on its
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


class _PricedOnRead:
    """A model field of :class:`FactorizeResult`: ``None`` unless the row
    sets it.  A serial row's report (:func:`serial_result`) leaves it unset
    and prices it on first read, through the :func:`cpu_cost` memo; the
    value then lives in the instance, a plain attribute like every field."""

    def __init__(self, read):
        self.read = read

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the dataclass default
        value = obj.__dict__[self.name] = self.read(obj._price())
        return value


@dataclass
class FactorizeResult:
    """Outcome of one numeric factorization.

    Attributes
    ----------
    method:
        The registry row that produced the factor (``"rl"``, ``"rl_gpu"``,
        ``"rlb_gpu_v2"``, ...).
    storage:
        The numeric factor (:class:`~repro.numeric.storage.FactorStorage`).
    total_snodes / snodes_on_gpu:
        The table columns of Tables I and II.
    modeled_seconds:
        Modeled runtime — for the serial rows the *best-over-threads* time
        (the paper's baseline protocol); for the GPU rows the timeline's
        final host-clock value.
    cpu_times_by_threads:
        For the serial rows: modeled seconds per MKL thread count.
    best_threads:
        Thread count achieving ``modeled_seconds`` (serial rows).
    gpu_stats:
        :class:`~repro.gpu.device.GpuStats` for GPU methods.
    flops / kernel_count / assembly_bytes:
        Work statistics at the machine model's dilated scale (flops × σ³,
        bytes × σ²) — the scale the modeled seconds correspond to.
    extra:
        Engine-specific measurements.  The threads and process rows are
        measured, not modeled: every model field above is ``None``, and
        ``extra`` records ``workers``, ``backend``, ``granularity``,
        ``tasks`` and this one factorization's ``wall_seconds``; a serving
        session adds ``stream_index``.
    """

    method: str
    storage: "object"
    total_snodes: int
    modeled_seconds: Optional[float] = _PricedOnRead(attrgetter("seconds"))
    cpu_times_by_threads: Optional[dict] = _PricedOnRead(lambda cost: dict(cost.times))
    best_threads: Optional[int] = _PricedOnRead(attrgetter("best_threads"))
    snodes_on_gpu: int = 0
    gpu_stats: Optional[object] = None
    flops: Optional[float] = _PricedOnRead(attrgetter("flops"))
    kernel_count: Optional[int] = _PricedOnRead(attrgetter("kernel_count"))
    assembly_bytes: Optional[float] = _PricedOnRead(attrgetter("assembly_bytes"))
    extra: dict = field(default_factory=dict)

    @property
    def wall_seconds(self):
        """Measured wall-clock seconds, when the engine records one (the
        threads and process rows do; modeled-only engines return ``None``)."""
        return self.extra.get("wall_seconds")


def serial_result(family, storage, machine, **extra):
    """The :class:`FactorizeResult` of serial row ``family`` (``"rl"`` or
    ``"rlb"``) on ``storage``: its model fields are the pattern's
    :func:`cpu_cost` at ``machine`` and the factor's itemsize, priced on
    first read (``copy.copy`` keeps an unread report unpriced)."""
    result = FactorizeResult(family, storage, storage.symb.nsup, extra=extra)
    for name, value in vars(FactorizeResult).items():
        if isinstance(value, _PricedOnRead):
            del result.__dict__[name]
    result._price = partial(cpu_cost, storage.symb, family, machine, itemsize=storage.itemsize)
    return result


@dataclass(frozen=True)
class CpuCost:
    """Modeled CPU cost of one serial RL/RLB factorization — the totals of
    :func:`cpu_cost`'s pattern walk.
    ``times`` is ``((threads, seconds), ...)`` over the swept MKL thread
    counts; ``best_threads`` / ``seconds`` the paper's best-over-threads
    baseline."""

    times: tuple
    best_threads: int
    seconds: float
    flops: float
    kernel_count: int
    assembly_bytes: float


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
        pair_ptr = index.pair_ptr.tolist()
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
    :func:`kernel_stream`, charged in the serial engines' order at every
    MKL thread count of ``thread_choices`` (scatter-add assembly
    OpenMP-parallel at that count, as the paper parallelizes it).

    ``itemsize`` is the factor's element size (8 for fp64, 4 for fp32):
    kernels are charged at the single-precision BLAS rate and assembly
    traffic at half the bytes when the factor is fp32.

    Each distinct ``(kind, m, n, k)`` is priced once, and the additions
    still happen call by call, in stream order (``cumsum`` accumulates
    sequentially; a call adds an exact ``0.0`` to the totals it does not
    touch): the same totals, to the last bit, as pricing call by call.
    The cost depends on the pattern only, so it is computed once per
    ``(family, machine, thread_choices, itemsize)`` and memoised on
    ``symb.cache()`` — later same-pattern factorizations do no accounting.
    ``machine=None`` is the default :class:`MachineModel`.
    """
    machine = machine or MachineModel()
    choices = tuple(thread_choices)
    itemsize = int(itemsize)
    key = (family, machine, choices, itemsize)
    memo = symb.cache().setdefault("cpu_cost", {})
    if key in memo:
        return memo[key]
    cpu = machine.cpu
    speedup = machine.cpu_fp_speedup(itemsize)
    # a row: kernel calls, flops, assembly bytes, seconds per thread count
    rows = [(0, 0.0, 0.0) + (0.0,) * len(choices)]
    row_of = {}
    calls = [0]
    for call in kernel_stream(symb, family):
        call = call[1:]
        row = row_of.get(call)
        if row is None:
            row = row_of[call] = len(rows)
            if call[0] == "assembly":
                # fp64-normalized bytes, rescaled to the itemsize, then dilated
                scaled = machine.scaled_bytes(call[1] * itemsize / 8.0, itemsize)
                rows.append((0, 0.0, scaled, *(cpu.assembly_time(scaled, t) for t in choices)))
            else:
                f = machine.scaled_kernel_flops(*call)
                rows.append((1, f, 0.0, *(cpu.kernel_time(f, t, speedup) for t in choices)))
        calls.append(row)
    totals = np.cumsum(np.array(rows, dtype=np.float64)[calls], axis=0)[-1].tolist()
    count, flops, nbytes, *seconds = totals
    times = dict(zip(choices, seconds))
    threads, best = cpu.best_threads(times)
    cost = CpuCost(tuple(times.items()), threads, best, flops, int(count), nbytes)
    memo[key] = cost
    return cost
