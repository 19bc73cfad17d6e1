"""Shared benchmark harness: runs suite matrices through the four methods.

Used by every ``bench_*`` module and runnable directly::

    python benchmarks/harness.py [matrix ...]

For each matrix the harness performs the paper's protocol:

* symbolic pipeline (ND ordering, merge at 25 %, partition refinement);
* CPU baseline = best over MKL thread counts {8,...,128} of *both* CPU
  methods (RL and RLB) — speedups are relative to this "best" time (§IV-B);
* GPU-accelerated RL and RLB-v2 with the default thresholds and simulated
  device memory; out-of-memory failures are recorded, not raised.

Results are cached per process so the table/figure benches can share runs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.gpu import DeviceOutOfMemory, MachineModel
from repro.numeric import (
    DEFAULT_DEVICE_MEMORY,
    DEFAULT_RL_THRESHOLD,
    DEFAULT_RLB_THRESHOLD,
    factorize_rl_cpu,
    factorize_rl_gpu,
    factorize_rlb_cpu,
    factorize_rlb_gpu,
)
from repro.sparse import SUITE, get_entry
from repro.symbolic import analyze

__all__ = ["MatrixRun", "run_matrix", "run_suite", "SUITE_NAMES"]

SUITE_NAMES = [e.name for e in SUITE]


@dataclass
class MatrixRun:
    """All measurements for one suite matrix.

    ``cpu_best_seconds`` is the paper's baseline: min over thread counts and
    over {RL, RLB}.  GPU results are ``None`` when the method failed with
    :class:`DeviceOutOfMemory` (the failure is recorded in ``failures``).
    """

    name: str
    n: int
    nsup: int
    factor_flops: float
    rl_cpu: object
    rlb_cpu: object
    rl_gpu: Optional[object]
    rlb_gpu: Optional[object]
    cpu_best_seconds: float
    analyze_seconds: float
    failures: dict = field(default_factory=dict)

    def speedup(self, result):
        """Speedup of a GPU result vs the best-CPU baseline."""
        if result is None:
            return None
        return self.cpu_best_seconds / result.modeled_seconds

    def times_for_profile(self):
        """Factorization times of the four profile methods (Figure 3)."""
        return {
            "RL_C": self.rl_cpu.modeled_seconds,
            "RLB_C": self.rlb_cpu.modeled_seconds,
            "RL_G": None if self.rl_gpu is None
                    else self.rl_gpu.modeled_seconds,
            "RLB_G": None if self.rlb_gpu is None
                     else self.rlb_gpu.modeled_seconds,
        }


_cache: dict = {}


def run_matrix(name, *, machine=None,
               rl_threshold=DEFAULT_RL_THRESHOLD,
               rlb_threshold=DEFAULT_RLB_THRESHOLD,
               device_memory=DEFAULT_DEVICE_MEMORY,
               use_cache=True, system=None):
    """Run one suite matrix through RL/RLB CPU + GPU; returns a
    :class:`MatrixRun`.  Pass a prebuilt ``system`` (AnalyzedSystem) to
    skip the symbolic phase."""
    key = (name, rl_threshold, rlb_threshold, device_memory,
           id(machine) if machine is not None else None)
    if use_cache and key in _cache:
        return _cache[key]
    machine = machine or MachineModel()
    entry = get_entry(name)
    t0 = time.perf_counter()
    if system is None:
        system = analyze(entry.builder())
    analyze_seconds = time.perf_counter() - t0
    A = system.matrix
    symb, B = system.symb, system.matrix
    rl_cpu = factorize_rl_cpu(symb, B, machine=machine)
    rlb_cpu = factorize_rlb_cpu(symb, B, machine=machine)
    failures = {}
    try:
        rl_gpu = factorize_rl_gpu(
            symb, B, machine=machine, threshold=rl_threshold,
            device_memory=device_memory,
        )
    except DeviceOutOfMemory as exc:
        rl_gpu, failures["rl_gpu"] = None, str(exc)
    try:
        rlb_gpu = factorize_rlb_gpu(
            symb, B, version=2, machine=machine, threshold=rlb_threshold,
            device_memory=device_memory,
        )
    except DeviceOutOfMemory as exc:
        rlb_gpu, failures["rlb_gpu"] = None, str(exc)
    run = MatrixRun(
        name=name, n=A.n, nsup=symb.nsup,
        factor_flops=symb.factor_flops(),
        rl_cpu=rl_cpu, rlb_cpu=rlb_cpu, rl_gpu=rl_gpu, rlb_gpu=rlb_gpu,
        cpu_best_seconds=min(rl_cpu.modeled_seconds,
                             rlb_cpu.modeled_seconds),
        analyze_seconds=analyze_seconds,
        failures=failures,
    )
    if use_cache:
        _cache[key] = run
    return run


def run_suite(names=None, **kwargs):
    """Run (a subset of) the suite; returns ``{name: MatrixRun}``."""
    out = {}
    for name in (names or SUITE_NAMES):
        out[name] = run_matrix(name, **kwargs)
    return out


def main(argv):
    names = argv[1:] or SUITE_NAMES
    print(f"{'matrix':<18} {'n':>6} {'nsup':>5} {'cpuBest':>9} "
          f"{'RLG':>9} {'spd':>5} {'RLBG':>9} {'spd':>5} {'gpu/tot':>9}")
    for name in names:
        r = run_matrix(name)
        rlg = r.rl_gpu.modeled_seconds if r.rl_gpu else float("nan")
        rlbg = r.rlb_gpu.modeled_seconds if r.rlb_gpu else float("nan")
        s1 = r.speedup(r.rl_gpu)
        s2 = r.speedup(r.rlb_gpu)
        gs = (r.rl_gpu.snodes_on_gpu if r.rl_gpu else 0)
        print(f"{name:<18} {r.n:>6} {r.nsup:>5} {r.cpu_best_seconds:>9.4f} "
              f"{rlg:>9.4f} {s1 if s1 else float('nan'):>5.2f} "
              f"{rlbg:>9.4f} {s2 if s2 else float('nan'):>5.2f} "
              f"{gs:>4}/{r.nsup:<4}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
