"""Closed-loop load benchmark of the multi-tenant serving gateway.

Drives :class:`repro.serving.Gateway` with the workload it was built for:
``--tenants`` concurrent tenants submit ``--requests`` factorize+solve
requests over ``--patterns`` distinct sparsity patterns whose popularity
follows a Zipf law (exponent 1.1) — a few hot patterns, a long cold tail,
the shape of real same-structure serving traffic.  The gateway keys every
request by its pattern fingerprint into the LRU cache of warm
``SymbolicPlan``/``ServingSession`` pairs, so hot patterns pay symbolic
analysis once and every later request skips straight to the numeric
kernels.

Three guards, all loud:

* every gateway-returned solution must be bit-identical to a direct
  ``plan → factorize → solve`` of the same matrix on the engine's serial
  twin (the determinism contract extends through the async front door);
* the closed-loop hit rate must reach ``--min-hit-rate`` (default 0.8) —
  Zipf popularity concentrated on a warm cache is the whole point;
* the warm (cache-hit) request latency must beat the cold
  analyze-every-request protocol by ``--min-hit-speedup`` (default: the
  ``BENCH_GATEWAY_MIN_HIT_SPEEDUP`` env var, else 2.0) — cold here means
  what serving looked like before the gateway: a fresh symbolic analysis
  in front of every numeric factorization.

Timings are best-of-``--repeats`` means to reject scheduler noise; BLAS
is pinned to one thread per call (task-level parallelism is what the
serving pool measures).  Results are persisted as ``BENCH_GATEWAY.json``
via :func:`harness.save_snapshot` (repo-root ``bench-snapshots/`` by
default) so successive changes leave a diffable perf trajectory.

Run:  PYTHONPATH=src python benchmarks/bench_gateway.py
      BENCH_GATEWAY_MIN_HIT_SPEEDUP=1.3 PYTHONPATH=src \\
          python benchmarks/bench_gateway.py --shape 14,14,6  # CI
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
import asyncio
import time

import numpy as np

from harness import save_snapshot
import repro
from repro.numeric.registry import get_engine, serial_twin
from repro.serving import Gateway
from repro.sparse import grid_laplacian, spd_value_sweep
from repro.sparse.csc import SymmetricCSC
from repro.sparse.permute import random_permutation, symmetric_permute

ZIPF_EXPONENT = 1.1


def build_workload(shape, npatterns, nvalues, seed):
    """``(patterns, sweeps, picks_weights)`` for the closed loop: the base
    grid Laplacian plus ``npatterns - 1`` random symmetric permutations of
    it (distinct fingerprints, identical cost profile), each with a sweep
    of same-pattern SPD value sets."""
    rng = np.random.default_rng(seed)
    A = grid_laplacian(shape)
    patterns = [A] + [symmetric_permute(A, random_permutation(A.n, rng))
                      for _ in range(npatterns - 1)]
    sweeps = [spd_value_sweep(P, nvalues, seed=seed + m)
              for m, P in enumerate(patterns)]
    weights = 1.0 / np.arange(1, npatterns + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    return patterns, sweeps, weights


def matrix_for(patterns, sweeps, m, k):
    P = patterns[m]
    v = sweeps[m][k % len(sweeps[m])]
    return SymmetricCSC(P.n, P.indptr, P.indices, v, check=False)


async def closed_loop(gw, patterns, sweeps, picks, b, ntenants):
    """All tenants drain their share of the Zipf request stream
    concurrently; returns ``[(request_index, pattern_index, value_index,
    solution), ...]`` across tenants."""

    async def tenant(t):
        out = []
        for i in range(t, len(picks), ntenants):
            m = int(picks[i])
            M = matrix_for(patterns, sweeps, m, i)
            x = await gw.submit(M, b, tenant=f"tenant{t}")
            out.append((i, m, i % len(sweeps[m]), x))
        return out

    chunks = await asyncio.gather(*[tenant(t) for t in range(ntenants)])
    return [item for chunk in chunks for item in chunk]


async def warm_probe(gw, patterns, sweeps, picks, b):
    """Mean per-request latency with every pattern already warm: the same
    Zipf stream, one request at a time (latency, not throughput)."""
    t_sum = 0.0
    for i, m in enumerate(picks):
        M = matrix_for(patterns, sweeps, int(m), i)
        t0 = time.perf_counter()
        await gw.submit(M, b)
        t_sum += time.perf_counter() - t0
    return t_sum / len(picks)


def cold_probe(patterns, sweeps, picks, b, engine):
    """Mean per-request latency of the pre-gateway protocol: a fresh
    symbolic analysis in front of every factorize+solve."""
    t_sum = 0.0
    for i, m in enumerate(picks):
        M = matrix_for(patterns, sweeps, int(m), i)
        t0 = time.perf_counter()
        plan = repro.plan(M)
        plan.factorize(engine=engine).solve(b)
        t_sum += time.perf_counter() - t0
    return t_sum / len(picks)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", default="16,16,6",
                    help="grid Laplacian shape, comma separated")
    ap.add_argument("--requests", type=int, default=40,
                    help="closed-loop requests (default: 40)")
    ap.add_argument("--tenants", type=int, default=4,
                    help="concurrent tenants (default: 4)")
    ap.add_argument("--patterns", type=int, default=4,
                    help="distinct sparsity patterns (default: 4)")
    ap.add_argument("--probe", type=int, default=8,
                    help="requests per warm/cold latency probe")
    ap.add_argument("--engine", default="rlb_par",
                    help="gateway serving engine (default: rlb_par)")
    ap.add_argument("--workers", type=int, default=None,
                    help="serving-pool worker threads")
    ap.add_argument("--repeats", type=int, default=3,
                    help="latency-probe repeats (best-of mean)")
    ap.add_argument(
        "--min-hit-speedup",
        type=float,
        default=float(os.environ.get("BENCH_GATEWAY_MIN_HIT_SPEEDUP",
                                     "2.0")),
        help="fail when warm (cache-hit) latency does not beat the cold "
             "analyze-every-request path by this factor (env default: "
             "BENCH_GATEWAY_MIN_HIT_SPEEDUP)",
    )
    ap.add_argument("--min-hit-rate", type=float, default=0.8,
                    help="fail when the closed-loop hit rate is below "
                         "this (default: 0.8)")
    args = ap.parse_args(argv)

    if get_engine(args.engine).backend != "threads":
        print(f"--engine must name a threaded engine (rl_par, rlb_par), "
              f"not {args.engine!r}", file=sys.stderr)
        return 2
    shape = tuple(int(t) for t in args.shape.split(","))
    patterns, sweeps, weights = build_workload(
        shape, args.patterns, nvalues=8, seed=0)
    rng = np.random.default_rng(1)
    picks = rng.choice(args.patterns, size=args.requests, p=weights)
    probe_picks = rng.choice(args.patterns, size=args.probe, p=weights)
    b = rng.standard_normal(patterns[0].n)
    twin = serial_twin(args.engine)

    A = patterns[0]
    print(f"grid_laplacian{shape}: n = {A.n}, {args.patterns} patterns "
          f"(Zipf {ZIPF_EXPONENT}), {args.tenants} tenants, "
          f"{args.requests} requests, cores = {os.cpu_count()}\n")

    async def run():
        async with Gateway(capacity=args.patterns,
                           workers=args.workers,
                           engine=args.engine) as gw:
            results = await closed_loop(gw, patterns, sweeps, picks, b,
                                        args.tenants)
            warm = min([await warm_probe(gw, patterns, sweeps,
                                         probe_picks, b)
                        for _ in range(args.repeats)])
            return results, warm, gw.stats()

    t0 = time.perf_counter()
    results, warm_avg, stats = asyncio.run(run())
    wall = time.perf_counter() - t0
    cold_avg = min(cold_probe(patterns, sweeps, probe_picks, b, twin)
                   for _ in range(args.repeats))

    # determinism through the async front door: every solution must match
    # a direct plan→factorize→solve on the serial twin, bit for bit
    plans = [repro.plan(P) for P in patterns]
    identical = all(
        np.array_equal(x, plans[m].factorize(sweeps[m][k],
                                             engine=twin).solve(b))
        for (_, m, k, x) in results
    )
    hit_speedup = cold_avg / warm_avg

    print(f"closed loop        : {stats.requests} requests in "
          f"{wall * 1e3:9.2f} ms "
          f"({wall / max(stats.requests, 1) * 1e3:7.2f} ms/request)")
    print(f"hit rate           : {stats.hit_rate:9.2f} "
          f"({stats.hits} hits / {stats.misses} misses, "
          f"{stats.cached_plans} warm plans)")
    print(f"cold (analyze/req) : {cold_avg * 1e3:9.2f} ms/request "
          f"(engine {twin})")
    print(f"warm (cache hit)   : {warm_avg * 1e3:9.2f} ms/request "
          f"(engine {args.engine})")
    print(f"hit speedup        : {hit_speedup:9.2f}x "
          f"(bit-identical: {'yes' if identical else 'NO'})")
    print()

    path = save_snapshot("gateway", {
        "shape": list(shape),
        "n": A.n,
        "engine": args.engine,
        "serial_twin": twin,
        "requests": stats.requests,
        "tenants": args.tenants,
        "patterns": args.patterns,
        "zipf_exponent": ZIPF_EXPONENT,
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": round(stats.hit_rate, 4),
        "evictions": stats.evictions,
        "cold_ms_per_request": round(cold_avg * 1e3, 3),
        "warm_ms_per_request": round(warm_avg * 1e3, 3),
        "hit_speedup": round(hit_speedup, 3),
        "bit_identical": identical,
        "min_hit_speedup": args.min_hit_speedup,
        "min_hit_rate": args.min_hit_rate,
    })
    if path:
        print(f"snapshot: {path}")

    if not identical:
        print("FAIL: gateway solutions are not bit-identical to the "
              "direct plan->factorize->solve path")
        return 1
    if stats.hit_rate < args.min_hit_rate:
        print(f"FAIL: hit rate {stats.hit_rate:.2f} "
              f"< {args.min_hit_rate}")
        return 1
    if hit_speedup < args.min_hit_speedup:
        print(f"FAIL: warm-vs-cold hit speedup {hit_speedup:.2f}x "
              f"< {args.min_hit_speedup}x")
        return 1
    print(f"OK: hit rate {stats.hit_rate:.2f} >= {args.min_hit_rate}, "
          f"hit speedup {hit_speedup:.2f}x >= {args.min_hit_speedup}x, "
          f"all solutions bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
