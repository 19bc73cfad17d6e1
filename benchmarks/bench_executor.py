"""Wall-clock benchmark of the task-DAG executor (threads or processes).

Sweeps ``workers x granularity`` of :func:`repro.numeric.executor.
factorize_executor` against the serial engines on a 3-D grid Laplacian
(default ``30,30,8``, the acceptance problem), verifying on every run that
the parallel factors are *bit-identical* to the serial ones (the
deterministic reduction-order contract).

Exits non-zero when the best parallel speedup falls below ``--min-speedup``
(default 1.8 — the original PR's acceptance threshold; a local floor, CI
tracks the threaded path through the end-to-end ``refactor_solve_threads_s``
instead).

``--backend process`` runs the same sweep through the shared-memory
worker-process pool (:mod:`repro.numeric.procpool`) and *additionally*
times the threaded executor at every point: the scatter/commit python in
the coarse task bodies holds the GIL, so on multicore hosts processes
should beat threads there.  The guard becomes "best coarse
process-vs-threads speedup at workers >= 2 must reach ``--min-speedup``"
(default 1.0; CI tracks it through ``refactor_solve_process_s``) and the
snapshot lands in ``BENCH_PROCESS.json``.

``--determinism-only`` skips the timing sweep and only checks the
bit-reproducibility contract (twice at ``workers=4``, once at ``workers=1``,
against serial) under every forced task-range cut (every supernode its own
task, the default cut, the whole pattern one task) — the mode CI's
determinism job runs on every PR, for both backends.

Run:  PYTHONPATH=src python benchmarks/bench_executor.py
      PYTHONPATH=src python benchmarks/bench_executor.py --workers 1,2,4
      PYTHONPATH=src python benchmarks/bench_executor.py \\
          --shape 16,16,6 --determinism-only        # CI determinism gate
      PYTHONPATH=src python benchmarks/bench_executor.py \\
          --backend process --workers 2,4           # GIL-escape guard
"""

from __future__ import annotations

import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# Task-level parallelism is the thing being measured: pin the BLAS pool to
# one thread per call (MA87-style) *before* NumPy/SciPy load the libraries.
from _blas import pin_blas_threads

pin_blas_threads()

import argparse
from functools import partial

import numpy as np

from harness import best_of, forced_cuts, save_snapshot
from repro.numeric import factorize_rl_cpu, factorize_rlb_cpu
from repro.numeric.executor import factorize_executor
from repro.numeric.procpool import default_process_pool, factorize_process
from repro.sparse import grid_laplacian
from repro.symbolic import analyze, task_ranges

SERIAL = {"coarse": factorize_rl_cpu, "fine": factorize_rlb_cpu}


def _identical(res, ref):
    if len(res.storage.panels) != len(ref.storage.panels):
        return False
    pairs = zip(res.storage.panels, ref.storage.panels)
    return all(np.array_equal(p, q) for p, q in pairs)


def _dag_fn(backend):
    """The sweep's parallel entry point: the threaded executor or the
    shared-memory process pool (same DAGs, same determinism contract)."""
    return factorize_process if backend == "process" else factorize_executor


def check_determinism(symb, M, workers=4, backend="threads"):
    """The CI determinism gate: ``workers=N`` twice and ``workers=1`` must
    all be bit-identical to the serial engine of the same granularity."""
    fn = _dag_fn(backend)
    failures = []
    for granularity in ("coarse", "fine"):
        ref = SERIAL[granularity](symb, M)
        runs = {
            f"workers={workers} run 1": fn(
                symb, M, workers=workers, granularity=granularity
            ),
            f"workers={workers} run 2": fn(
                symb, M, workers=workers, granularity=granularity
            ),
            "workers=1": fn(symb, M, workers=1, granularity=granularity),
        }
        for label, res in runs.items():
            ok = _identical(res, ref)
            mark = "ok" if ok else "MISMATCH"
            print(f"  {granularity:>6} {label:<18} vs serial: {mark}")
            if not ok:
                failures.append((granularity, label))
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--shape",
        default="30,30,8",
        help="grid Laplacian shape, comma separated",
    )
    ap.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker counts to sweep",
    )
    ap.add_argument(
        "--granularity",
        default="coarse,fine",
        help="comma-separated granularities to sweep",
    )
    ap.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    ap.add_argument(
        "--backend",
        default="threads",
        choices=("threads", "process"),
        help="scheduling substrate to sweep: worker threads (default) or "
        "the shared-memory worker-process pool",
    )
    ap.add_argument(
        "--start-method",
        default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for --backend process "
        "(default: the platform default)",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="threads: fail when the best parallel speedup over serial is "
        "below this (default 1.8); process: fail when the best coarse "
        "process-vs-threads speedup at workers >= 2 is below this "
        "(default 1.0)",
    )
    ap.add_argument(
        "--determinism-only",
        action="store_true",
        help="skip timings; only verify the bit-reproducibility contract",
    )
    args = ap.parse_args(argv)
    if args.min_speedup is None:
        args.min_speedup = 1.0 if args.backend == "process" else 1.8

    shape = tuple(int(t) for t in args.shape.split(","))
    A = grid_laplacian(shape)
    system = analyze(A)
    symb, M = system.symb, system.matrix
    print(
        f"grid_laplacian{shape}: n = {A.n}, nnz_lower = {A.nnz_lower}, "
        f"{symb.nsup} supernodes, cores = {os.cpu_count()}\n"
    )

    if args.determinism_only:
        print(f"determinism contract (bit-identical factors, {args.backend}):")
        failures = []
        for cut in forced_cuts():
            symb = analyze(A).symb  # a fresh partition under this cut
            print(f" cut = {cut}: {len(task_ranges(symb))} task ranges")
            failures += check_determinism(symb, M, backend=args.backend)
        if failures:
            print(f"\nFAIL: {len(failures)} non-deterministic run(s)")
            return 1
        print("\nOK: all factors bit-identical to serial")
        return 0

    process = args.backend == "process"
    fn = _dag_fn(args.backend)
    workers_list = [int(t) for t in args.workers.split(",")]
    granularities = [g.strip() for g in args.granularity.split(",")]
    best_speedup = 0.0
    ok = True
    rows = []
    for granularity in granularities:
        serial_fn = SERIAL[granularity]
        t_serial, ref = best_of(lambda: serial_fn(symb, M), args.repeats)
        print(f"{granularity} granularity (serial {t_serial * 1e3:.1f} ms):")
        for workers in workers_list:
            kwargs = dict(workers=workers, granularity=granularity)
            if process:
                # pool startup + pattern warm-up are one-time costs; pay
                # them (and keep the pool hot) outside the timed repeats
                kwargs["start_method"] = args.start_method
                default_process_pool(workers, args.start_method)
                factorize_process(symb, M, **kwargs)
            run_par = partial(fn, symb, M, **kwargs)
            t_par, res = best_of(run_par, args.repeats)
            bitwise = _identical(res, ref)
            ok = ok and bitwise
            speedup = t_serial / t_par
            row = {
                "granularity": granularity,
                "workers": workers,
                "serial_seconds": t_serial,
                "parallel_seconds": t_par,
                "speedup": speedup,
                "tasks": res.extra["tasks"],
                "bit_identical": bitwise,
            }
            if process:
                # the point of escaping the GIL: measure threads at the
                # same point and report process-vs-threads directly
                run_thr = partial(
                    factorize_executor,
                    symb,
                    M,
                    workers=workers,
                    granularity=granularity,
                )
                t_thr, _ = best_of(run_thr, args.repeats)
                vs_threads = t_thr / t_par
                row["threads_seconds"] = t_thr
                row["vs_threads"] = vs_threads
                row["start_method"] = res.extra["start_method"]
                if workers > 1 and granularity == "coarse":
                    best_speedup = max(best_speedup, vs_threads)
                print(
                    f"  workers={workers:<3d} {t_par * 1e3:9.2f} ms "
                    f"({speedup:5.2f}x vs serial, {vs_threads:5.2f}x vs "
                    f"threads [{t_thr * 1e3:.2f} ms], "
                    f"bit-identical: {'yes' if bitwise else 'NO'})"
                )
            else:
                if workers > 1:
                    best_speedup = max(best_speedup, speedup)
                print(
                    f"  workers={workers:<3d} {t_par * 1e3:9.2f} ms "
                    f"({speedup:5.2f}x vs serial, {res.extra['tasks']} tasks, "
                    f"bit-identical: {'yes' if bitwise else 'NO'})"
                )
            rows.append(row)
        print()

    path = save_snapshot(
        "process" if process else "executor",
        {
            "shape": list(shape),
            "repeats": args.repeats,
            "backend": args.backend,
            "min_speedup": args.min_speedup,
            "best_speedup": best_speedup,
            "rows": rows,
        },
    )
    if path:
        print(f"wrote snapshot {path}")
    if not ok:
        print("FAIL: parallel factors are not bit-identical to serial")
        return 1
    label = (
        "best coarse process-vs-threads speedup (workers >= 2)"
        if process
        else "best parallel speedup"
    )
    if best_speedup < args.min_speedup:
        print(f"FAIL: {label} {best_speedup:.2f}x < {args.min_speedup}x")
        return 1
    print(
        f"OK: {label} {best_speedup:.2f}x >= {args.min_speedup}x, "
        "all factors bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
