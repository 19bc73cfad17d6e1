"""Wall-clock benchmark of batched same-pattern serving.

Measures, on a 3-D grid Laplacian (default ``24,24,8``), the throughput of
:meth:`repro.api.SymbolicPlan.factorize_batch` — B same-pattern numeric
factorizations pushed through ONE threaded task-DAG worker pool — against
the pre-batching protocol: a serial same-plan ``factorize`` loop (shared
symbolic work, one numeric factorization after another).  Every batch
factor is verified bit-identical to the looped serial factor of the same
matrix (the determinism contract extends across the batch dimension).

Sweeps the threaded engines (default ``rlb_par,rl_par``, each against its
serial twin) and exits non-zero when the BEST batch speedup falls below
``--min-speedup`` (default: the ``BENCH_BATCH_MIN_SPEEDUP`` env var, else
1.5), so CI can run it as a loud perf-regression guard and relax the bar
on noisy shared runners without editing the workflow; gating on the best
engine hedges against low-core runners where fine-granularity task
dispatch dominates (same protocol as ``bench_executor.py``).  All timings are best-of-``--repeats``
to reject scheduler noise.  BLAS is pinned to one thread per call
(MA87-style): task-level parallelism is the thing being measured.

Run:  PYTHONPATH=src python benchmarks/bench_batch.py
      BENCH_BATCH_MIN_SPEEDUP=1.2 PYTHONPATH=src \\
          python benchmarks/bench_batch.py --shape 16,16,6 --batch 8  # CI
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

import numpy as np

from harness import best_of
import repro
from repro.numeric.registry import get_engine, serial_twin
from repro.sparse import grid_laplacian, spd_value_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", default="24,24,8",
                    help="grid Laplacian shape, comma separated")
    ap.add_argument("--batch", type=int, default=8,
                    help="number of same-pattern matrices (default: 8)")
    ap.add_argument("--engine", default="rlb_par,rl_par",
                    help="comma-separated threaded engines to sweep; the "
                         "guard gates on the BEST speedup (hedges against "
                         "low-core runners where fine-granularity task "
                         "dispatch overhead dominates, like "
                         "bench_executor's workers x granularity sweep)")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker threads (default: the executor default)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats (best-of)")
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=float(os.environ.get("BENCH_BATCH_MIN_SPEEDUP", "1.5")),
        help="fail when the batched-vs-looped speedup is below this "
             "(env default: BENCH_BATCH_MIN_SPEEDUP)",
    )
    args = ap.parse_args(argv)

    engines = [e.strip() for e in args.engine.split(",")]
    for engine in engines:
        if get_engine(engine).backend != "threads":
            print(f"--engine must name threaded engines (rl_par, rlb_par), "
                  f"not {engine!r}", file=sys.stderr)
            return 2
    shape = tuple(int(t) for t in args.shape.split(","))
    A = grid_laplacian(shape)
    datas = spd_value_sweep(A, args.batch)

    plan = repro.plan(A)
    print(f"grid_laplacian{shape}: n = {A.n}, nnz_lower = {A.nnz_lower}, "
          f"{plan.nsup} supernodes, batch = {args.batch}, "
          f"cores = {os.cpu_count()}\n")

    best_speedup = 0.0
    all_identical = True
    print(f"{args.batch}-matrix same-pattern serving "
          f"(best of {args.repeats}):")
    for engine in engines:
        loop_engine = serial_twin(engine)
        # warm every pattern cache (scatter plan, DAG plans, block offsets)
        # outside the timed region — both protocols amortize the same plan
        plan.factorize(datas[0], engine=engine, workers=args.workers)
        plan.factorize(engine=loop_engine)

        def looped():
            return [plan.factorize(d, engine=loop_engine) for d in datas]

        def batched():
            return plan.factorize_batch(datas, engine=engine,
                                        workers=args.workers)

        t_loop, loop_results = best_of(looped, args.repeats)
        t_batch, batch = best_of(batched, args.repeats)

        identical = all(
            np.array_equal(p, q)
            for res, ref in zip(batch, loop_results)
            for p, q in zip(res.storage.panels, ref.storage.panels)
        )
        all_identical = all_identical and identical
        workers = batch[0].result.extra["workers"]
        speedup = t_loop / t_batch
        best_speedup = max(best_speedup, speedup)

        print(f"  looped {loop_engine:<4} refactorize    : "
              f"{t_loop * 1e3:9.2f} ms "
              f"({t_loop / args.batch * 1e3:7.2f} ms/matrix)")
        print(f"  factorize_batch {engine:<8}: {t_batch * 1e3:9.2f} ms "
              f"({t_batch / args.batch * 1e3:7.2f} ms/matrix, "
              f"workers={workers}, {speedup:5.2f}x, "
              f"bit-identical: {'yes' if identical else 'NO'})")
    print()

    if not all_identical:
        print("FAIL: batched factors are not bit-identical to the serial "
              "refactorize loop")
        return 1
    if best_speedup < args.min_speedup:
        print(f"FAIL: best batch speedup {best_speedup:.2f}x "
              f"< {args.min_speedup}x")
        return 1
    print(f"OK: best batch speedup {best_speedup:.2f}x >= "
          f"{args.min_speedup}x, all factors bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
