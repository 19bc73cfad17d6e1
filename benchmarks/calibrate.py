"""Cost-model calibration tool (developer utility).

Analyzes each suite matrix once, then prices its pattern under a candidate
:class:`~repro.gpu.costmodel.MachineModel` with the product's own walks —
:func:`~repro.numeric.result.cpu_cost` for the serial RL/RLB baselines,
:func:`~repro.numeric.rl_gpu.gpu_schedule` for the offload rows — and
prints the paper's target shapes.  No numerics run, so a sweep over many
candidate constants costs a pattern walk per candidate; the prices are the
ones Tables I/II print at the same machine, out-of-memory failures included.

This is how the defaults in ``repro.gpu.costmodel`` were chosen; it is kept
in the repository so the calibration is reproducible::

    PYTHONPATH=src python benchmarks/calibrate.py [matrix ...]
"""

from __future__ import annotations

import sys

from repro.gpu import DeviceOutOfMemory, MachineModel
from repro.numeric import DEFAULT_DEVICE_MEMORY, DEFAULT_RL_THRESHOLD, \
    DEFAULT_RLB_THRESHOLD
from repro.numeric.result import cpu_cost
from repro.numeric.rl_gpu import gpu_schedule
from repro.sparse import get_entry
from repro.symbolic import analyze


def extract(name):
    """The symbolic factor of one suite matrix — all any price reads."""
    return analyze(get_entry(name).builder()).symb


def _gpu_seconds(symb, method, mm, threshold, device_memory):
    """Modeled seconds of gpu row ``method``, or ``None`` when it runs out
    of device memory."""
    try:
        return gpu_schedule(symb, method, machine=mm, threshold=threshold,
                            device_memory=device_memory).modeled_seconds
    except DeviceOutOfMemory:
        return None


def evaluate(sched, mm, rl_thr=DEFAULT_RL_THRESHOLD,
             rlb_thr=DEFAULT_RLB_THRESHOLD,
             device_memory=DEFAULT_DEVICE_MEMORY):
    """``{name: prices}`` over ``sched`` (``{name: symb}``): the serial
    rows' best-over-threads seconds (``rl_c``, ``rlb_c``, ``cpu_best``) and
    the gpu rows' (``rl_g``, ``rlb_g``, and ``rl_g0`` at threshold 0),
    ``None`` for an out-of-memory run."""
    out = {}
    for name, symb in sched.items():
        rl = cpu_cost(symb, "rl", mm).seconds
        rlb = cpu_cost(symb, "rlb", mm).seconds
        out[name] = {
            "rl_c": rl, "rlb_c": rlb, "cpu_best": min(rl, rlb),
            "rl_g": _gpu_seconds(symb, "rl_gpu", mm, rl_thr, device_memory),
            "rlb_g": _gpu_seconds(symb, "rlb_gpu_v2", mm, rlb_thr,
                                  device_memory),
            "rl_g0": _gpu_seconds(symb, "rl_gpu", mm, 0, device_memory),
        }
    return out


def speedup(prices, key):
    """``cpu_best`` over a gpu row's seconds, ``None`` when it ran out of
    memory."""
    seconds = prices[key]
    return None if seconds is None else prices["cpu_best"] / seconds


def report(results):
    print(f"{'matrix':<14} {'RL_C':>7} {'RLB/RL':>6} {'sRLG':>5} "
          f"{'sRLBG':>6} {'sTHR0':>6}")
    for name, r in results.items():
        cols = [speedup(r, key) for key in ("rl_g", "rlb_g", "rl_g0")]
        s1, s2, s0 = ("OOM" if s is None else f"{s:.2f}" for s in cols)
        print(f"{name:<14} {r['rl_c']:>7.2f} "
              f"{r['rlb_c'] / r['rl_c']:>6.2f} "
              f"{s1:>5} {s2:>6} {s0:>6}")


if __name__ == "__main__":
    names = sys.argv[1:] or ["CurlCurl_2", "PFlow_742", "Serena",
                             "Bump_2911", "Queen_4147", "nlpkkt120"]
    sched = {n: extract(n) for n in names}
    report(evaluate(sched, MachineModel()))
