"""Threshold-sweep benchmark of the heterogeneous CPU+GPU backend.

Sweeps the offload threshold of :func:`repro.numeric.gpu_dag.
factorize_hybrid` across quantiles of the pattern's dilated panel sizes,
plus the two degenerate endpoints — ``inf`` (all supernodes on the measured
CPU worker lanes) and ``0`` (all on the modeled GPU stream lanes) — and
reports the combined time ``max(measured_cpu / workers, modeled_gpu)`` at
each cutoff, verifying on every run that the hybrid factors are
*bit-identical* to the serial engines (every update is pulled by its target).

The offload crossover is the point of the sweep: moving the cutoff down
drains work off the worker lanes (measured term falls) and onto the stream
lanes (modeled term rises), so the combined time is minimized at an
interior threshold — the hybrid beats pure-CPU *and* pure-GPU-modeled.
Exits non-zero when NO swept granularity shows an interior combined time
beating both endpoints within ``--margin`` (default: the
``BENCH_HYBRID_MARGIN`` env var, else 1.0 — strict; CI relaxes it for
noisy shared runners without editing the workflow).  Coarse granularity
is the robust demonstration — its big offloaded BLAS calls release the
GIL, so the measured lanes stay clean; fine granularity's many tiny tasks
make the measured term scheduling-noise-bound on small containers, which
is why the gate is at-least-one, with both reported.

``--determinism-only`` skips the sweep and only checks the
bit-reproducibility contract (both granularities, repeated runs at
``workers=4, devices=2`` plus ``workers=1``, against serial, including the
modeled clock's run-to-run equality) — the mode CI's determinism job runs
on every PR.

Run:  PYTHONPATH=src python benchmarks/bench_hybrid.py
      PYTHONPATH=src python benchmarks/bench_hybrid.py \\
          --shape 20,20,6 --determinism-only         # CI determinism gate
"""

from __future__ import annotations

import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# The CPU side of the hybrid split measures real task-level parallelism:
# pin the BLAS pool to one thread per call *before* NumPy loads it.
from _blas import pin_blas_threads

pin_blas_threads()

import argparse

import numpy as np

from harness import best_of, save_snapshot
from repro.gpu.costmodel import MachineModel
from repro.numeric import (
    factorize_hybrid,
    factorize_rl_cpu,
    factorize_rlb_cpu,
    scaled_panel_entries_array,
)
from repro.sparse import grid_laplacian
from repro.symbolic import analyze

BIG = 10 ** 15

SERIAL = {"coarse": factorize_rl_cpu, "fine": factorize_rlb_cpu}


def _identical(res, ref):
    if len(res.storage.panels) != len(ref.storage.panels):
        return False
    pairs = zip(res.storage.panels, ref.storage.panels)
    return all(np.array_equal(p, q) for p, q in pairs)


def _mixed_threshold(symb):
    """The median dilated panel size: splits the pattern across substrates."""
    entries = scaled_panel_entries_array(
        MachineModel(), np.diff(symb.rowptr) * np.diff(symb.snptr))
    return float(np.median(entries))


def check_determinism(symb, M, workers=4):
    """The CI determinism gate: repeated hybrid runs at ``workers=N,
    devices=2`` and a ``workers=1`` run must be bit-identical to the serial
    engine of the same granularity, and the repeated runs must agree on the
    modeled GPU clock."""
    thr = _mixed_threshold(symb)
    failures = []
    for granularity in ("coarse", "fine"):
        ref = SERIAL[granularity](symb, M)
        runs = {
            f"workers={workers} run 1": factorize_hybrid(
                symb, M, granularity=granularity, workers=workers,
                devices=2, threshold=thr, device_memory=BIG),
            f"workers={workers} run 2": factorize_hybrid(
                symb, M, granularity=granularity, workers=workers,
                devices=2, threshold=thr, device_memory=BIG),
            "workers=1": factorize_hybrid(
                symb, M, granularity=granularity, workers=1,
                devices=2, threshold=thr, device_memory=BIG),
        }
        for label, res in runs.items():
            ok = _identical(res, ref)
            mark = "ok" if ok else "MISMATCH"
            print(f"  {granularity:>6} {label:<18} vs serial: {mark}")
            if not ok:
                failures.append((granularity, label))
        g1 = runs[f"workers={workers} run 1"].modeled_gpu_seconds
        g2 = runs[f"workers={workers} run 2"].modeled_gpu_seconds
        ok = g1 == g2
        print(f"  {granularity:>6} modeled GPU clock repeat:  "
              f"{'ok' if ok else 'MISMATCH'} ({g1:.6e} vs {g2:.6e})")
        if not ok:
            failures.append((granularity, "modeled clock"))
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", default="20,20,6",
                    help="grid Laplacian shape, comma separated")
    ap.add_argument("--workers", type=int, default=4,
                    help="CPU worker lanes (default 4)")
    ap.add_argument("--devices", type=int, default=1,
                    help="modeled GPU stream lanes (default 1)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per threshold (best-of)")
    ap.add_argument("--thresholds", type=int, default=5,
                    help="interior quantile cutoffs to sweep (default 5)")
    ap.add_argument(
        "--margin", type=float,
        default=float(os.environ.get("BENCH_HYBRID_MARGIN", "1.0")),
        help="pass when best interior combined <= margin x best endpoint "
             "(env default: BENCH_HYBRID_MARGIN; 1.0 = must strictly win)")
    ap.add_argument("--determinism-only", action="store_true",
                    help="skip the sweep; only verify the "
                         "bit-reproducibility contract")
    args = ap.parse_args(argv)

    shape = tuple(int(t) for t in args.shape.split(","))
    system = analyze(grid_laplacian(shape))
    symb, M = system.symb, system.matrix
    print(f"grid_laplacian{shape}: n = {symb.n}, {symb.nsup} supernodes, "
          f"workers = {args.workers}, devices = {args.devices}\n")

    if args.determinism_only:
        print("determinism contract (bit-identical factors):")
        failures = check_determinism(symb, M)
        if failures:
            print(f"\nFAIL: {len(failures)} non-deterministic run(s)")
            return 1
        print("\nOK: all factors bit-identical to serial, modeled clock "
              "repeatable")
        return 0

    entries = scaled_panel_entries_array(
        MachineModel(), np.diff(symb.rowptr) * np.diff(symb.snptr))
    # the crossover lives in the upper tail (offload only the largest
    # panels, where the modeled streams pay off): geometric tail quantiles
    # halve the offloaded fraction at each step — 50 %, 25 %, 12.5 %, ...
    qs = [1.0 - 0.5 ** k for k in range(1, args.thresholds + 1)]
    interior = sorted({float(np.quantile(entries, q)) for q in qs})
    sweep = [float("inf")] + interior[::-1] + [0.0]

    ref = {g: SERIAL[g](symb, M) for g in ("coarse", "fine")}
    status = 0
    crossovers = {}
    snapshot = {"shape": list(shape), "workers": args.workers,
                "devices": args.devices, "repeats": args.repeats,
                "margin": args.margin, "sweep": {}}
    for granularity in ("coarse", "fine"):
        print(f"{granularity} granularity "
              f"(threshold, supernodes offloaded, combined):")
        rows = []
        for thr in sweep:
            def run():
                return factorize_hybrid(
                    symb, M, granularity=granularity, workers=args.workers,
                    devices=args.devices, threshold=thr, device_memory=BIG)
            combined, res = None, None
            for _ in range(args.repeats):
                _, r = best_of(run, 1)
                if combined is None or r.combined_seconds < combined:
                    combined, res = r.combined_seconds, r
            bitwise = _identical(res, ref[granularity])
            label = ("inf (all-CPU)" if thr == float("inf")
                     else "0 (all-GPU)" if thr == 0 else f"{thr:12.1f}")
            print(f"  thr={label:>14} gpu={res.snodes_on_gpu:>4}/{symb.nsup:<4} "
                  f"cpu {res.measured_cpu_seconds * 1e3:8.2f} ms  "
                  f"gpu {res.modeled_gpu_seconds * 1e3:8.2f} ms  "
                  f"combined {combined * 1e3:8.2f} ms  "
                  f"bit-identical: {'yes' if bitwise else 'NO'}")
            if not bitwise:
                status = 1
            rows.append({"threshold": thr if thr != float("inf") else "inf",
                         "snodes_on_gpu": res.snodes_on_gpu,
                         "measured_cpu_seconds": res.measured_cpu_seconds,
                         "modeled_gpu_seconds": res.modeled_gpu_seconds,
                         "combined_seconds": combined})
        cpu_end = rows[0]["combined_seconds"]
        gpu_end = rows[-1]["combined_seconds"]
        best_interior = min(r["combined_seconds"] for r in rows[1:-1])
        crossover = best_interior <= args.margin * min(cpu_end, gpu_end)
        crossovers[granularity] = crossover
        print(f"  endpoints: all-CPU {cpu_end * 1e3:.2f} ms, all-GPU "
              f"{gpu_end * 1e3:.2f} ms; best interior "
              f"{best_interior * 1e3:.2f} ms -> offload crossover "
              f"{'holds' if crossover else 'not visible'} "
              f"(margin {args.margin:.2f})\n")
        snapshot["sweep"][granularity] = {
            "rows": rows, "all_cpu_seconds": cpu_end,
            "all_gpu_seconds": gpu_end,
            "best_interior_seconds": best_interior,
            "crossover": crossover,
        }
    path = save_snapshot("hybrid", snapshot)
    if path:
        print(f"wrote snapshot {path}")
    if status:
        print("FAIL: hybrid factors not bit-identical (see MISMATCH above)")
        return status
    if not any(crossovers.values()):
        print("FAIL: no granularity shows an interior threshold beating "
              "both endpoints")
        return 1
    held = ", ".join(g for g, ok in crossovers.items() if ok)
    print(f"OK: factors bit-identical at every threshold; offload "
          f"crossover holds ({held})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
