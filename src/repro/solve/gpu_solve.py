"""Modeled GPU triangular solves — extending the paper's offload to the
solve phase.

The paper accelerates the factorization only; the solve phase (one forward
and one backward supernodal sweep) is memory-bound, so offloading it pays
only when its operands already live on the device or many right-hand sides
amortize the factor transfer.  This module makes that trade-off measurable:

* :func:`solve_factored_cpu` — the supernodal solve with host-BLAS modeled
  time (best-over-threads, like the factorization baselines);
* :func:`solve_factored_gpu_dag` — the same numerics with device-kernel
  modeled time: the sweeps' per-supernode panel H2D (unless
  ``factor_resident``, the factor stayed on the device after a GPU
  factorization) and TRSM/GEMM charges land on the device streams of a
  :class:`~repro.gpu.device.Timeline`, gated by the ready
  times of the level-scheduled solve graphs
  (:func:`~repro.symbolic.levels.solve_schedule`), so independent
  elimination-tree branches overlap on the copy and compute engines
  instead of accumulating serially; plus the RHS round trip;
* :func:`solve_offload_estimate` — the *pattern-only* CPU-vs-GPU modeled
  comparison (no numerics), surfaced by
  :meth:`repro.api.SolvePlan.offload_estimate`.

Each schedule has one clock: :func:`_gpu_solve_clock` walks the solve
graphs' edges without touching a value, and both the offloaded solve and the
estimate read it, so the estimate reports what ``Factor.solve(mode="gpu")``
reports.  The offload changes the clock, never the arithmetic: ``x`` is the
serial sweeps' (:func:`~repro.solve.triangular.solve_factored`).
Charges are per supernode, from the pattern: the narrow leaves the sweeps
solve as one block (:func:`repro.symbolic.levels.leaf_block`) still pay their
own panel H2D and kernels — modeled seconds ignore how the host groups work.
The crossover in the number of right-hand sides ``k`` is regenerated by
``benchmarks/bench_solve_offload.py``.  ``Factor.solve(mode="gpu")``
dispatches here through :data:`repro.numeric.registry.SOLVE_MODES`.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..gpu.costmodel import CPU_THREAD_CHOICES, MachineModel
from ..gpu.device import Timeline
from ..symbolic.levels import solve_schedule
from ..symbolic.ranges import trivial_ranges
from .triangular import solve_factored

__all__ = [
    "solve_factored_cpu",
    "solve_factored_gpu_dag",
    "solve_offload_estimate",
    "solve_flops",
]


def _rhs_cols(b):
    return 1 if np.ndim(b) == 1 else np.shape(b)[1]


def solve_flops(symb, k=1):
    """Flops of the full supernodal solve for ``k`` right-hand sides:
    two triangular solves per diagonal block plus two GEMM-type updates
    per rectangle (forward + backward)."""
    total = 0.0
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        b = m - w
        total += 2 * (w * w * k)          # two TRSMs at w x w
        total += 2 * (2.0 * b * w * k)    # two rectangle products
    return total


# ----------------------------------------------------------------------
# pattern-only clocks (shared by the solvers and the estimate)
# ----------------------------------------------------------------------
def _cpu_sweep_times(symb, k, machine):
    """Best-over-threads accumulation of the host solve's BLAS calls for
    ``k`` right-hand sides: ``({threads: seconds}, calls)``."""
    times = {t: 0.0 for t in CPU_THREAD_CHOICES}
    calls = 0
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        bb = m - w
        for kind, dims in (("trsm", dict(m=k, n=w)),
                           ("gemm", dict(m=bb, n=k, k=w))):
            if kind == "gemm" and not bb:
                continue
            f = 2 * machine.scaled_kernel_flops(kind, **dims)  # fwd + bwd
            calls += 2
            for t in times:
                times[t] += machine.cpu.kernel_time(f, t)
    return times, calls


def _gpu_solve_clock(symb, k, machine, factor_resident, itemsize=8, tracer=None):
    """The offloaded solve's modeled clock for ``k`` right-hand sides:
    ``(seconds, kernels, h2d_bytes)``, from the pattern alone.

    The forward and backward sweeps walk the task graphs of
    ``solve_schedule(symb, trivial_ranges(symb))`` (one task per supernode,
    the ``fwd`` / ``bwd`` edges), lowest ready task id first; each
    supernode's charges — panel H2D at
    ``itemsize`` (forward only, unless ``factor_resident``) and the two
    TRSM/GEMM-style device kernels — are enqueued on the device's streams
    gated by its DAG ready time.  The right-hand side crosses the bus as
    float64.
    """
    tl = Timeline(tracer=tracer)
    sched = solve_schedule(symb, trivial_ranges(symb))
    nbytes_rhs = 8.0 * symb.n * k
    start = tl.enqueue_copy(
        machine.transfer_seconds(nbytes_rhs), direction="h2d",
        label="rhs_h2d", nbytes=machine.scaled_bytes(nbytes_rhs))
    ready = {}
    done = {}
    counters = {"kernels": 0, "h2d_bytes": 0.0}

    def kernel(kind, ready, **dims):
        counters["kernels"] += 1
        return tl.enqueue_gpu(machine.gpu_kernel_seconds(kind, **dims), ready=ready, label=kind)

    def charge_forward(s):
        m, w = symb.panel_shape(s)
        bb = m - w
        r = max(ready.get(s, 0.0), start)
        if not factor_resident:
            nb = float(itemsize) * (m * w)
            scaled = machine.scaled_bytes(nb, itemsize)
            counters["h2d_bytes"] += scaled
            r = tl.enqueue_copy(machine.transfer_seconds(nb, itemsize), ready=r,
                                direction="h2d", label="panel_h2d", nbytes=scaled)
        t = kernel("trsm", r, m=k, n=w)
        if bb:
            t = kernel("gemm", t, m=bb, n=k, k=w)
        done[s] = t
        for p, _, _ in sched.runs[s]:
            if ready.get(p, 0.0) < t:
                ready[p] = t

    def charge_backward(s):
        m, w = symb.panel_shape(s)
        bb = m - w
        r = max(ready.get(s, 0.0), done[s])  # own segment final
        if bb:
            r = kernel("gemm", r, m=bb, n=k, k=w)
        t = kernel("trsm", r, m=k, n=w)
        for p in sched.bwd.children[s]:
            if ready.get(p, 0.0) < t:
                ready[p] = t
        done[s] = t

    for charge, edges in ((charge_forward, sched.fwd), (charge_backward, sched.bwd)):
        ready.clear()
        left = list(edges.indeg)
        heap = list(edges.roots)
        heapq.heapify(heap)
        while heap:
            tid = heapq.heappop(heap)
            # the leaf block's own task (the id past the supernodes) has no
            # charge: its members are charged as the supernodes they are
            if tid < symb.nsup:
                charge(tid)
            for t in edges.children[tid]:
                left[t] -= 1
                if not left[t]:
                    heapq.heappush(heap, t)

    final = tl.enqueue_copy(
        machine.transfer_seconds(nbytes_rhs), direction="d2h",
        label="rhs_d2h", ready=max(done.values(), default=start),
        nbytes=machine.scaled_bytes(nbytes_rhs))
    tl.wait_cpu_until(final)
    return tl.elapsed(), counters["kernels"], counters["h2d_bytes"]


def solve_offload_estimate(symb, k=1, *, machine=None):
    """Pattern-only modeled comparison of the solve phase for ``k``
    right-hand sides — no numerics, usable straight from a
    :class:`~repro.api.SymbolicPlan`.

    Returns a dict with the best-over-threads host time
    (``cpu_seconds`` / ``cpu_threads``), the offloaded time of an fp64
    factor with a cold factor (``gpu_seconds``) and with device-resident
    panels (``gpu_resident_seconds``) — the clock of
    :func:`solve_factored_gpu_dag` — and the resulting ``recommended``
    mode (``"cpu"`` or ``"gpu"``, cold-factor comparison).
    """
    machine = machine or MachineModel()
    times, _ = _cpu_sweep_times(symb, k, machine)
    threads, cpu_seconds = machine.cpu.best_threads(times)
    gpu_seconds, _, _ = _gpu_solve_clock(symb, k, machine, False)
    gpu_resident, _, _ = _gpu_solve_clock(symb, k, machine, True)
    return {
        "rhs": k,
        "cpu_seconds": cpu_seconds,
        "cpu_threads": threads,
        "gpu_seconds": gpu_seconds,
        "gpu_resident_seconds": gpu_resident,
        "speedup_cold": cpu_seconds / gpu_seconds,
        "speedup_resident": cpu_seconds / gpu_resident,
        "recommended": "gpu" if gpu_seconds < cpu_seconds else "cpu",
    }


# ----------------------------------------------------------------------
# executing solvers (real numerics + the modeled clock)
# ----------------------------------------------------------------------
def solve_factored_cpu(storage, b, *, machine=None):
    """Supernodal ``L L^T x = b`` on the host with modeled time.

    Returns ``(x, seconds, stats)``; ``seconds`` is best-over-threads as in
    the paper's CPU baselines.
    """
    machine = machine or MachineModel()
    symb = storage.symb
    k = _rhs_cols(b)
    times, calls = _cpu_sweep_times(symb, k, machine)
    x = solve_factored(storage, b)
    threads, seconds = machine.cpu.best_threads(times)
    return x, seconds, {
        "kind": "cpu", "threads": threads, "kernel_calls": calls,
        "rhs": k,
    }


def solve_factored_gpu_dag(storage, b, *, machine=None, factor_resident=False,
                           tracer=None, overwrite_b=False):
    """Offloaded supernodal solve: the serial sweeps' numerics on the
    solve graphs' modeled device clock (:func:`_gpu_solve_clock` at the
    factor's itemsize; ``tracer`` records its intervals).

    Returns ``(x, seconds, stats)`` with ``x`` bit-identical to
    :func:`~repro.solve.triangular.solve_factored`.  ``overwrite_b=True``
    solves in place on ``b`` (a caller-owned temporary, e.g. a permuted
    gather) instead of a fresh copy.
    """
    machine = machine or MachineModel()
    k = _rhs_cols(b)
    x = solve_factored(storage, b, overwrite_b=overwrite_b)
    seconds, kernels, h2d_bytes = _gpu_solve_clock(
        storage.symb, k, machine, factor_resident, storage.itemsize, tracer)
    return x, seconds, {
        "kind": "gpu_dag", "factor_resident": factor_resident,
        "kernel_calls": kernels, "rhs": k,
        "panel_h2d_bytes": h2d_bytes,
    }
