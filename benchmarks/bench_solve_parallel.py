"""Wall-clock benchmark of the level-scheduled parallel triangular solves.

Measures, on a 3-D grid Laplacian (default ``24,24,8``), the many-RHS solve
throughput of the level-scheduled parallel sweeps
(:meth:`repro.api.Factor.solve` with ``workers=N``) against the serial
sweeps, over two serving-shaped workloads:

* ``block``  — ONE ``(n, K)`` block of right-hand sides (level-3 sweeps;
  task parallelism comes from the elimination-tree level schedule);
* ``many``   — ``--solves S`` independent right-hand-side blocks solved on
  ONE shared worker pool (:meth:`repro.api.Factor.solve_many`; cross-solve
  parallelism fills the dependency stalls near the tree root, the same
  trick batched factorization plays).

Every parallel solution is verified **bit-identical** to the serial sweep
(the solve-side determinism contract).  Exits non-zero when the BEST
speedup over the ``workers x workload`` sweep falls below ``--min-speedup``
(default 1.3; a local floor — CI tracks the level-scheduled solve through
the end-to-end per-layer ``solve.level_w2_s``) — gating on the best
configuration hedges against boxes where per-task dispatch overhead
dominates (same protocol as ``bench_executor.py`` / ``bench_batch.py``).
Each row also prints the absolute milliseconds and the runtime overhead per
task, ``(parallel - serial) / tasks`` in microseconds (a full solve is two
tasks per task range) — the ratio alone moves whenever the serial sweep
does, the overhead per task is the runtime's own cost.
All timings are best-of-``--repeats``; BLAS is pinned to one thread per
call (MA87-style): task-level parallelism is the thing being measured.

``--determinism-only`` skips the timing gate and only checks the
bit-identity contract across worker counts, repeated runs and the forced
task-range cuts (every supernode its own task, the default cut, one task
per sweep) — the CI ``determinism`` job's solve-side extension.

Run:  PYTHONPATH=src python benchmarks/bench_solve_parallel.py
      PYTHONPATH=src python benchmarks/bench_solve_parallel.py \\
          --shape 20,20,6 --determinism-only        # CI determinism gate
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

from harness import best_of, forced_cuts
import repro
from repro.sparse import grid_laplacian
from repro.symbolic import task_ranges


def build_workloads(A, rhs, solves, seed=0):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((A.n, rhs))
    many = [rng.standard_normal((A.n, max(1, rhs // 4)))
            for _ in range(solves)]
    return block, many


def check_identical(xs, refs):
    if isinstance(xs, list):
        return all(np.array_equal(x, r) for x, r in zip(xs, refs))
    return np.array_equal(xs, refs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", default="24,24,8",
                    help="grid Laplacian shape, comma separated")
    ap.add_argument("--rhs", type=int, default=64,
                    help="columns of the (n, K) block workload "
                         "(default: 64); the many-solve workload uses "
                         "K/4-column blocks")
    ap.add_argument("--solves", type=int, default=8,
                    help="independent solves of the pooled many-RHS "
                         "workload (default: 8)")
    ap.add_argument("--workers", default="1,2,4",
                    help="comma-separated worker counts to sweep")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats (best-of)")
    ap.add_argument("--determinism-only", action="store_true",
                    help="skip the timing gate; only verify bit-identity "
                         "across worker counts and repeated runs")
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=1.3,
        help="fail when the best parallel-vs-serial solve speedup is "
             "below this",
    )
    args = ap.parse_args(argv)

    shape = tuple(int(t) for t in args.shape.split(","))
    workers_sweep = [int(w) for w in args.workers.split(",")]
    A = grid_laplacian(shape)
    plan = repro.plan(A)
    factor = plan.factorize(engine="rl")
    sp = plan.solve_plan()
    block, many = build_workloads(A, args.rhs, args.solves)
    print(f"grid_laplacian{shape}: n = {A.n}, {plan.nsup} supernodes, "
          f"{sp.nlevels} levels (max width {sp.max_parallelism}, "
          f"avg {sp.avg_parallelism:.1f}), cores = {os.cpu_count()}")
    print(f"workloads: block = (n, {args.rhs}), "
          f"many = {args.solves} x (n, {max(1, args.rhs // 4)})\n")

    # warm every pattern cache (solve schedule, scatter plan) untimed
    ref_block = factor.solve(block)
    ref_many = factor.solve_many(many)
    factor.solve(block, workers=workers_sweep[0])

    if args.determinism_only:
        ok = True
        for cut in forced_cuts():
            cut_plan = repro.plan(A)  # a fresh partition under this cut
            cut_factor = cut_plan.factorize(engine="rl")
            print(f" cut = {cut}: {len(task_ranges(cut_plan.symb))} task ranges")
            for w in workers_sweep:
                for _ in range(2):  # repeated runs must agree exactly too
                    ok &= check_identical(cut_factor.solve(block, workers=w),
                                          ref_block)
                    ok &= check_identical(
                        cut_factor.solve_many(many, workers=w), ref_many)
                print(f"  workers={w}: bit-identical "
                      f"{'yes' if ok else 'NO'}")
        if not ok:
            print("FAIL: parallel solves are not bit-identical to the "
                  "serial sweeps")
            return 1
        print("OK: parallel solves bit-identical to the serial sweeps "
              f"for workers in {workers_sweep} (block + pooled many-RHS)")
        return 0

    t_ser_block, _ = best_of(lambda: factor.solve(block), args.repeats)
    t_ser_many, _ = best_of(lambda: factor.solve_many(many), args.repeats)
    # a full solve is one forward and one backward task per task range
    tasks_block = 2 * len(task_ranges(plan.symb))
    tasks_many = tasks_block * args.solves
    print(f"serial: block {t_ser_block * 1e3:8.2f} ms | "
          f"many {t_ser_many * 1e3:8.2f} ms   (best of {args.repeats}; "
          f"{tasks_block} / {tasks_many} tasks, "
          f"{t_ser_block * 1e6 / tasks_block:.1f} / "
          f"{t_ser_many * 1e6 / tasks_many:.1f} us per task)")

    best_speedup = 0.0
    all_identical = True
    for w in workers_sweep:
        t_block, x_block = best_of(lambda: factor.solve(block, workers=w),
                                   args.repeats)
        t_many, x_many = best_of(lambda: factor.solve_many(many, workers=w),
                                 args.repeats)
        ident = (check_identical(x_block, ref_block)
                 and check_identical(x_many, ref_many))
        all_identical = all_identical and ident
        s_block = t_ser_block / t_block
        s_many = t_ser_many / t_many
        best_speedup = max(best_speedup, s_block, s_many)
        print(f"  workers={w}: block {t_block * 1e3:8.2f} ms "
              f"({s_block:5.2f}x) | many {t_many * 1e3:8.2f} ms "
              f"({s_many:5.2f}x) | overhead "
              f"{(t_block - t_ser_block) * 1e6 / tasks_block:+6.1f} / "
              f"{(t_many - t_ser_many) * 1e6 / tasks_many:+6.1f} us per task"
              f" | bit-identical: {'yes' if ident else 'NO'}")
    print()

    if not all_identical:
        print("FAIL: parallel solves are not bit-identical to the serial "
              "sweeps")
        return 1
    if best_speedup < args.min_speedup:
        print(f"FAIL: best solve speedup {best_speedup:.2f}x "
              f"< {args.min_speedup}x")
        return 1
    print(f"OK: best solve speedup {best_speedup:.2f}x >= "
          f"{args.min_speedup}x, all solutions bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
