"""Fit the sweep constants of :class:`repro.update.UpdateCostModel`.

Measures the sweep road of a rank-2 ``Factor.update`` on the four benchmark
primaries (``benchmarks/e2e/workloads.py``, seed 7, the bench's own update
vectors) with BLAS pinned to one thread, and fits

    seconds = segments * segment_overhead_s + flops / (sweep_gflops * 1e9)

by relative least squares, ``segments`` being the (rank, path supernode)
kernel calls and ``flops`` the rotation count of
:func:`repro.update.update_cost`.  The sweep road is ``Factor.update``
less the gather and plan of ``W`` — ``Factor.apply`` pays those before it
picks a road, so they price neither.  Best of ``--repeats`` interleaved
rounds per case.  Run from the repository root::

    python3 benchmarks/fit_update_model.py [--repeats 12]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "e2e"))
import _bootstrap  # noqa: E402,F401  (pins BLAS before numpy loads)

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.numeric.updown import _modification_plan  # noqa: E402
from repro.update.crossover import DEFAULT_UPDATE_MODEL, update_cost  # noqa: E402
from workloads import BY_NAME, pattern_inputs  # noqa: E402

PRIMARIES = ("refactor_vec3d", "refactor_grid2d", "cold_mix", "gateway_zipf")


def cases():
    for name in PRIMARIES:
        inputs = pattern_inputs(BY_NAME[name].primary, 7)
        plan = repro.plan(inputs.A)
        factor = plan.factorize(inputs.values[0], engine="rl")
        yield name, plan, factor, inputs.update_vectors(plan)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=12)
    args = ap.parse_args()
    rows = []
    for name, plan, factor, W in cases():
        def planning(factor=factor, W=W, plan=plan):
            return _modification_plan(plan.symb, factor._permuted_W(W)[1])

        mod = planning()
        segments = sum(np.unique(plan.symb.col2sn[path]).size for path in mod.paths)
        flops = update_cost(plan.symb, mod).update_flops
        rows.append([name, factor, W, planning, segments, flops, np.inf, np.inf])
    for _ in range(args.repeats):
        for row in rows:
            for col, fn in ((6, lambda: row[1].update(row[2])), (7, row[3])):
                t0 = time.perf_counter()
                fn()
                row[col] = min(row[col], time.perf_counter() - t0)
    sweep = np.array([r[6] - r[7] for r in rows])
    X = np.array([[r[4], r[5]] for r in rows], dtype=float)
    (overhead, inv_rate), *_ = np.linalg.lstsq(X / sweep[:, None], np.ones(len(rows)),
                                               rcond=None)
    print(f"segment_overhead_s = {overhead:.3g}   sweep_gflops = {1e-9 / inv_rate:.3g}")
    m = DEFAULT_UPDATE_MODEL
    print(f"{'primary':16s} {'segs':>5s} {'Mflop':>7s} {'update':>9s} {'sweep':>9s} "
          f"{'fit':>9s} {'default':>9s}")
    for r, s, fit in zip(rows, sweep, X @ (overhead, inv_rate)):
        default = m.update_seconds(r[5], r[4])
        print(f"{r[0]:16s} {r[4]:5d} {r[5] / 1e6:7.2f} {r[6] * 1e3:7.2f}ms {s * 1e3:7.2f}ms "
              f"{fit * 1e3:7.2f}ms {default * 1e3:7.2f}ms")


if __name__ == "__main__":
    main()
