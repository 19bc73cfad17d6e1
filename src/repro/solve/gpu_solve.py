"""Modeled GPU triangular solves — extending the paper's offload to the
solve phase.

The paper accelerates the factorization only; the solve phase (one forward
and one backward supernodal sweep) is memory-bound, so offloading it pays
only when its operands already live on the device or many right-hand sides
amortize the factor transfer.  This module makes that trade-off measurable:

* :func:`solve_factored_cpu` — the supernodal solve with host-BLAS modeled
  time (best-over-threads, like the factorization baselines);
* :func:`solve_factored_gpu` — the same numerics with device-kernel modeled
  time, charging an H2D transfer of every panel unless ``factor_resident``
  (the factor stayed on the device after a GPU factorization), plus the
  RHS round trip;
* :func:`solve_factored_gpu_dag` — the offloaded sweeps driven as the
  level-scheduled *task graphs* of :mod:`repro.solve.triangular`
  (``forward_solve_graph`` / ``backward_solve_graph``) on a
  :class:`~repro.numeric.executor.GpuStreamBackend`: per-supernode panel
  H2D and TRSM/GEMM charges land on the device streams gated by the DAG
  ready times, so independent elimination-tree branches overlap on the
  copy and compute engines instead of accumulating serially;
* :func:`solve_offload_estimate` — the *pattern-only* CPU-vs-GPU modeled
  comparison (no numerics), surfaced by
  :meth:`repro.api.SolvePlan.offload_estimate`.

All variants return identical ``x`` — the offload changes the clock, never
the arithmetic (the solve graphs preserve the serial accumulation order).
Charges are per supernode, from the pattern: the narrow leaves the sweeps
solve as one block (:func:`repro.symbolic.levels.leaf_block`) still pay their
own panel H2D and kernels — modeled seconds ignore how the host groups work.
The crossover in the number of right-hand sides ``k`` is regenerated by
``benchmarks/bench_solve_offload.py``.  ``Factor.solve(mode="gpu")``
dispatches here through :data:`repro.numeric.registry.SOLVE_MODES`.
"""

from __future__ import annotations

import numpy as np

from ..gpu.costmodel import CPU_THREAD_CHOICES, MachineModel
from ..numeric.executor import GpuStreamBackend
from ..symbolic.levels import solve_schedule
from ..symbolic.ranges import trivial_ranges
from ..dense.kernels import check_finite
from .triangular import backward_solve_graph, check_rhs, forward_solve_graph, solve_factored

__all__ = [
    "solve_factored_cpu",
    "solve_factored_gpu",
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
# pattern-only cost accumulation (shared by the solvers and the estimate)
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


def _gpu_sweep_seconds(symb, k, machine, factor_resident, itemsize=8):
    """Serial accumulation of the offloaded solve's transfers and device
    kernels for ``k`` right-hand sides: ``(seconds, kernels, h2d_bytes)``
    — the sequential-dependence model of :func:`solve_factored_gpu`.
    Panels upload at the factor's ``itemsize``; the right-hand side is
    float64."""
    seconds = 0.0
    nbytes_rhs = 8.0 * symb.n * k
    seconds += machine.transfer_seconds(nbytes_rhs)  # RHS H2D
    kernels = 0
    h2d_bytes = 0.0
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        bb = m - w
        if not factor_resident:
            nb = float(itemsize) * (m * w)
            seconds += machine.transfer_seconds(nb, itemsize)
            h2d_bytes += machine.scaled_bytes(nb, itemsize)
        seconds += 2 * machine.gpu_kernel_seconds("trsm", m=k, n=w)
        kernels += 2
        if bb:
            seconds += 2 * machine.gpu_kernel_seconds("gemm", m=bb, n=k, k=w)
            kernels += 2
    seconds += machine.transfer_seconds(nbytes_rhs)  # solution D2H
    return seconds, kernels, h2d_bytes


def solve_offload_estimate(symb, k=1, *, machine=None):
    """Pattern-only modeled comparison of the solve phase for ``k``
    right-hand sides — no numerics, usable straight from a
    :class:`~repro.api.SymbolicPlan`.

    Returns a dict with the best-over-threads host time
    (``cpu_seconds`` / ``cpu_threads``), the offloaded time with a cold
    factor (``gpu_seconds``) and with device-resident panels
    (``gpu_resident_seconds``), and the resulting ``recommended`` mode
    (``"cpu"`` or ``"gpu"``, cold-factor comparison).
    """
    machine = machine or MachineModel()
    times, _ = _cpu_sweep_times(symb, k, machine)
    threads, cpu_seconds = machine.cpu.best_threads(times)
    gpu_seconds, _, _ = _gpu_sweep_seconds(symb, k, machine, False)
    gpu_resident, _, _ = _gpu_sweep_seconds(symb, k, machine, True)
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


def solve_factored_gpu(storage, b, *, machine=None, factor_resident=False):
    """Supernodal solve with device-modeled kernels.

    Charges, on top of the kernels: H2D of every supernode panel (skipped
    when ``factor_resident`` — e.g. straight after a GPU factorization
    whose panels were kept on the device) and the RHS H2D + solution D2H.
    The solve sweeps are sequential over supernodes (each step depends on
    the previous), so kernel and transfer times accumulate serially —
    exactly why the memory-bound solve offload needs amortization.  See
    :func:`solve_factored_gpu_dag` for the level-scheduled stream model
    that overlaps independent branches instead.
    """
    machine = machine or MachineModel()
    symb = storage.symb
    k = _rhs_cols(b)
    seconds, kernels, h2d_bytes = _gpu_sweep_seconds(
        symb, k, machine, factor_resident, storage.itemsize)
    x = solve_factored(storage, b)
    return x, seconds, {
        "kind": "gpu", "factor_resident": factor_resident,
        "kernel_calls": kernels, "rhs": k,
        "panel_h2d_bytes": h2d_bytes,
    }


def solve_factored_gpu_dag(storage, b, *, machine=None, factor_resident=False,
                           tracer=None, overwrite_b=False):
    """Offloaded supernodal solve driven by the solve graphs on the GPU
    stream backend.

    The forward and backward sweeps execute as the level-scheduled task
    graphs of :mod:`repro.solve.triangular` (real numerics, bit-identical
    to the serial sweeps); each supernode's modeled charges — panel H2D at
    the factor's itemsize (forward only, unless ``factor_resident``) and
    the two TRSM/GEMV-style device kernels — are enqueued on the device's
    streams gated by its DAG ready time.  Independent elimination-tree
    branches therefore overlap on the copy and compute engines, unlike
    :func:`solve_factored_gpu`'s serial sum.

    Returns ``(x, seconds, stats)`` with ``x`` bit-identical to
    :func:`~repro.solve.triangular.solve_factored`.  ``overwrite_b=True``
    solves in place on ``b`` (a caller-owned temporary, e.g. a permuted
    gather) instead of a fresh copy.
    """
    machine = machine or MachineModel()
    backend = GpuStreamBackend(machine=machine, tracer=tracer,
                               device_memory=float("inf"))
    tl = backend.host
    symb = storage.symb
    itemsize = storage.itemsize
    # modeled charges are per supernode: the trivial partition
    ranges = trivial_ranges(symb)
    sched = solve_schedule(symb, ranges)
    k = _rhs_cols(b)
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

    y = check_rhs(symb.n, b, "b", copy=not overwrite_b)

    def charged(charge, ntasks, roots, run_task):
        def run(tid):
            # the leaf block's own task (the id past the supernodes) has no
            # charge: its members are charged as the supernodes they are
            if tid < symb.nsup:
                charge(tid)
            return run_task(tid)

        backend.run_graph(ntasks, roots, run)

    charged(charge_forward, *forward_solve_graph(storage, y, ranges))
    ready.clear()
    charged(charge_backward, *backward_solve_graph(storage, y, ranges))
    check_finite(y, "solution")

    final = tl.enqueue_copy(
        machine.transfer_seconds(nbytes_rhs), direction="d2h",
        label="rhs_d2h", ready=max(done.values(), default=start),
        nbytes=machine.scaled_bytes(nbytes_rhs))
    tl.wait_cpu_until(final)
    return y, backend.elapsed(), {
        "kind": "gpu_dag", "factor_resident": factor_resident,
        "kernel_calls": counters["kernels"], "rhs": k,
        "panel_h2d_bytes": counters["h2d_bytes"],
    }
