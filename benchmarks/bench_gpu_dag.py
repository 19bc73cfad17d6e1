"""Modeled-time guard for the GPU offload engines (task DAGs on the stream
backend: ``rl_gpu`` / ``rlb_gpu_v2``, :mod:`repro.numeric.gpu_dag`).

On a 3-D grid Laplacian, on every run:

* the stream engines' factors are *bit-identical* to the serial ``rl`` /
  ``rlb`` twins at ``devices=1,2,4`` (a different device count may move
  modeled seconds, never a bit of L);
* at the CI shape (20,20,6) the ``devices=1`` modeled seconds and the
  out-of-memory accounting on a 2 KiB device equal, exactly, the numbers
  the hand-rolled single-device loops printed before the task DAG replaced
  them (``GOLDEN`` below; ``tests/test_gpu_golden.py`` holds the wide
  table) — a drift is a changed schedule, not noise, so there is no
  tolerance;
* the ``devices=4`` modeled speedup over ``devices=1`` of the same engine
  stays above ``--min-speedup`` (default: ``BENCH_GPU_DAG_MIN_SPEEDUP``
  env var, else 1.5 — the elimination tree's branch independence).

``--determinism-only`` skips the scaling report — the mode CI's
determinism job runs on every PR.

Run:  PYTHONPATH=src python benchmarks/bench_gpu_dag.py
      PYTHONPATH=src python benchmarks/bench_gpu_dag.py \\
          --shape 20,20,6 --determinism-only         # CI determinism gate
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from harness import save_snapshot
from repro.gpu import DeviceOutOfMemory
from repro.numeric import (
    factorize_gpu_dag,
    factorize_rl_cpu,
    factorize_rlb_cpu,
)
from repro.sparse import grid_laplacian
from repro.symbolic import analyze

BIG = 10 ** 15

SERIAL = {"coarse": factorize_rl_cpu, "fine": factorize_rlb_cpu}

#: shape -> granularity -> (devices=1 modeled seconds at threshold 0,
#: (requested, free) of the DeviceOutOfMemory on a 2048-byte device), from
#: the hand-rolled loops on the commit that deleted them
GOLDEN = {
    (20, 20, 6): {
        "coarse": (0.08338973894239704, (4800.0, 2048.0)),
        "fine": (0.6460361237346575, (4800.0, 2048.0)),
    },
}


def _identical(res, ref):
    if len(res.storage.panels) != len(ref.storage.panels):
        return False
    pairs = zip(res.storage.panels, ref.storage.panels)
    return all(np.array_equal(p, q) for p, q in pairs)


def check_determinism(symb, M, golden):
    """Bit-identity of the stream engines against the serial twins across
    a device sweep; with ``golden``, exact modeled seconds and OOM
    accounting at ``devices=1``."""
    failures = []
    for granularity in ("coarse", "fine"):
        serial = SERIAL[granularity](symb, M)
        for devices in (1, 2, 4):
            res = factorize_gpu_dag(symb, M, granularity=granularity,
                                    threshold=0, device_memory=BIG,
                                    devices=devices)
            ok = _identical(res, serial)
            print(f"  {granularity:>6} devices={devices} vs serial: "
                  f"{'ok' if ok else 'MISMATCH'}")
            if not ok:
                failures.append((granularity, devices, "serial"))
            if golden and devices == 1:
                ok = res.modeled_seconds == golden[granularity][0]
                print(f"  {granularity:>6} devices=1 modeled seconds vs "
                      f"golden: {'ok' if ok else 'MISMATCH'} "
                      f"({res.modeled_seconds!r})")
                if not ok:
                    failures.append((granularity, 1, "golden seconds"))
        if not golden:
            continue
        try:
            factorize_gpu_dag(symb, M, granularity=granularity, threshold=0,
                              device_memory=2048)
            oom = None
        except DeviceOutOfMemory as exc:
            oom = (exc.requested, exc.free)
        ok = oom == golden[granularity][1]
        print(f"  {granularity:>6} OOM accounting vs golden: "
              f"{'ok' if ok else 'MISMATCH'} ({oom})")
        if not ok:
            failures.append((granularity, "oom", "golden"))
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", default="20,20,6",
                    help="grid shape nx,ny,nz (default 20,20,6)")
    ap.add_argument("--devices", default="1,4",
                    help="device counts to report (default 1,4)")
    ap.add_argument(
        "--min-speedup", type=float,
        default=float(os.environ.get("BENCH_GPU_DAG_MIN_SPEEDUP", "1.5")),
        help="min modeled speedup of devices=4 over devices=1 (default 1.5)")
    ap.add_argument("--determinism-only", action="store_true",
                    help="only check bit-identity and the golden numbers")
    args = ap.parse_args(argv)

    shape = tuple(int(x) for x in args.shape.split(","))
    system = analyze(grid_laplacian(shape))
    symb, M = system.symb, system.matrix
    print(f"grid {shape}: n={symb.n}, {symb.nsup} supernodes")

    print("determinism contract (bit-identical factors"
          + (", golden modeled seconds and OOM accounting):"
             if shape in GOLDEN else "):"))
    failures = check_determinism(symb, M, GOLDEN.get(shape))
    if args.determinism_only:
        if failures:
            print(f"FAILED: {len(failures)} mismatches")
            return 1
        print("all bit-identical")
        return 0

    devices = [int(x) for x in args.devices.split(",")]
    status = 0
    snapshot = {"shape": list(shape), "min_speedup": args.min_speedup,
                "modeled": {}}
    for granularity in ("coarse", "fine"):
        times = {}
        for k in devices:
            res = factorize_gpu_dag(symb, M, granularity=granularity,
                                    threshold=0, device_memory=BIG,
                                    devices=k)
            times[k] = res.modeled_seconds
            print(f"  {granularity:>6} devices={k}: "
                  f"{res.modeled_seconds * 1e3:8.3f} ms modeled")
        if 1 in times and 4 in times:
            speedup = times[1] / times[4]
            print(f"  {granularity:>6} devices=4 speedup: {speedup:.2f}x "
                  f"(min {args.min_speedup:.2f}x)")
            if speedup < args.min_speedup:
                print(f"FAILED: {granularity} devices=4 speedup "
                      f"{speedup:.2f}x below {args.min_speedup:.2f}x")
                status = 1
        snapshot["modeled"][granularity] = {
            "seconds_by_devices": {str(k): t for k, t in times.items()},
        }
    snapshot["determinism_failures"] = len(failures)
    path = save_snapshot("gpu_dag", snapshot)
    if path:
        print(f"  wrote snapshot {path}")
    if failures:
        print(f"FAILED: {len(failures)} determinism mismatches")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
