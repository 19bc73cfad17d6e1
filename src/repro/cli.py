"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``list``
    The 21-matrix benchmark suite with paper statistics.
``analyze MATRIX``
    Symbolic pipeline statistics (ordering, merging, refinement, structure).
``factorize MATRIX``
    Run one factorization engine; print its report (modeled time, or the
    measured wall clock of a threads or process row), optionally
    an event-trace Gantt chart (``--gantt``) or Chrome trace (``--trace``).
``solve MATRIX``
    Factorize, solve against a random right-hand side (``--rhs K`` for a
    block of K right-hand sides), report the residual; ``--workers N``
    additionally times the level-scheduled parallel triangular solves
    against the serial sweeps (bit-identical by contract).
``batch MATRIX``
    Same-pattern batch: factorize ``--batch B`` value sets with
    ``plan.factorize_batch`` (one factorization after another) on the
    chosen engine and on its serial twin, and solve each factor.
``serve MATRIX``
    Streaming same-pattern serving demo: a ``ServingSession`` (one
    persistent worker pool) consumes ``--count`` matrices arriving one at
    a time via ``submit_solve`` futures.
``serve MATRIX --gateway``
    Multi-tenant gateway demo: ``--tenants`` concurrent tenants submit a
    Zipf-popular mix of ``--patterns`` distinct sparsity patterns through
    one :class:`repro.serving.Gateway` (pattern-keyed warm-plan cache,
    admission control, per-pattern stats).
``update MATRIX``
    Serve-time rank-k update/downdate: sweep entry-column depths (path
    lengths), print modeled + measured update-vs-refactorize timings and
    what ``Factor.apply(policy="auto")`` picks at each depth, verifying
    the updated factor against a scratch factorization of ``A ± W Wᵀ``.

``factorize``/``serve`` accept ``--trace FILE`` with the
threaded engines to export *measured* per-task start/stop intervals (one
Chrome-trace lane per worker thread) — real occupancy next to the modeled
Gantt charts; ``--gateway`` traces add request/analysis spans and
in-flight counter tracks.
``suite [MATRIX ...]``
    The paper's Tables I/II protocol over (a subset of) the suite.
``breakdown MATRIX``
    Per-kernel-class modeled time for all four methods.

``factorize``, ``solve``, ``batch``, ``serve`` and ``update`` name the
engine with ``--engine`` (any registry row; ``factorize``, ``batch`` and
``serve``'s ``--backend`` re-targets it), resolved by
:func:`repro.numeric.registry.resolve`: a bad engine or option exits 2 with
the registry's message.

``MATRIX`` is a suite name (see ``list``) or a path to a Matrix Market
file.  Runtimes are modeled seconds on the simulated machine — see
``docs/backends.md`` and :mod:`repro.gpu.costmodel` — except the threads
and process rows', which are measured wall clock.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


#: CLI spelling -> numpy dtype of the mixed-precision lane
#: (``--dtype fp32``; see docs/precision.md).
_DTYPE_FLAGS = {"fp64": np.float64, "fp32": np.float32}


def _cli_dtype(args):
    """The numpy dtype of ``--dtype`` (``None`` when the flag was not
    given: engines keep their fp64 default)."""
    name = getattr(args, "dtype", None)
    return None if name is None else _DTYPE_FLAGS[name]


class _BadMatrix(Exception):
    """A ``MATRIX`` argument that is neither a suite name nor a readable
    Matrix Market file; :func:`main` prints it and exits 2."""


def _load_matrix(spec):
    from .sparse import get_entry, suite_names
    from .sparse.io import read_matrix_market

    if spec in suite_names():
        return get_entry(spec).builder()
    try:
        return read_matrix_market(spec)
    except (OSError, ValueError) as exc:
        raise _BadMatrix(f"cannot read matrix {spec!r}: {exc}") from exc


def _analyzed(spec, ordering):
    from .symbolic import analyze

    return analyze(_load_matrix(spec), ordering=ordering)


def cmd_list(args):
    from .analysis import format_table
    from .sparse import SUITE

    rows = []
    for e in SUITE:
        A = e.builder()
        rows.append((e.name, str(e.paper_n), str(A.n), str(A.nnz_lower),
                     f"{e.rl.speedup or float('nan'):.2f}" if e.rl.speedup
                     else "OOM",
                     f"{e.rlb.speedup:.2f}"))
    print(format_table(
        ["name", "paper n", "surrogate n", "nnz(lower)",
         "paper RL-GPU speedup", "paper RLB-GPU speedup"],
        rows, title="Benchmark suite (surrogates for the paper's 21 "
                    "SuiteSparse matrices)"))
    return 0


def cmd_analyze(args):
    from .analysis import format_table
    from .symbolic import count_blocks

    system = _analyzed(args.matrix, args.ordering)
    symb = system.symb
    m = np.diff(symb.rowptr)
    w = np.diff(symb.snptr)
    rows = [
        ("n", str(symb.n)),
        ("supernodes", str(symb.nsup)),
        ("factor entries (dense panels)", str(symb.factor_nnz_dense())),
        ("factor flops", f"{symb.factor_flops():.3e}"),
        ("largest panel (rows x cols)",
         f"{int(m.max())} x {int(w[np.argmax(m)])}"),
        ("largest update matrix entries", str(symb.largest_update_size())),
        ("RLB blocks", str(count_blocks(symb))),
        ("ordering", args.ordering),
    ]
    print(format_table(["statistic", "value"], rows,
                       title=f"Symbolic analysis: {args.matrix}"))
    return 0


def cmd_factorize(args):
    from .analysis import format_table
    from .gpu import Tracer
    from .numeric.registry import resolve

    tracer = Tracer() if args.gantt or args.trace else None
    try:
        spec, kwargs = resolve(args.engine, args.backend, workers=args.workers,
                               threshold=args.threshold, dtype=_cli_dtype(args),
                               device_memory=args.device_memory or None)
        if tracer is not None:
            if "tracer" not in spec.accepts:
                # refuse loudly instead of exiting 0 with no trace written
                raise ValueError(
                    "--gantt/--trace need a timeline: an engine that "
                    f"accepts tracer=, not --engine {spec.name}")
            # modeled device lanes or measured worker lanes
            kwargs["tracer"] = tracer
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    system = _analyzed(args.matrix, args.ordering)
    res = spec.fn(system.symb, system.matrix, **kwargs)
    rows = [("method", res.method), ("precision", res.storage.dtype.name)]
    if res.modeled_seconds is None:  # a threads or process row: measured
        extra = res.extra
        lane = "process" if extra["backend"] == "process" else "threaded"
        rows.append((f"workers ({lane} DAG)", str(extra["workers"])))
        if "start_method" in extra:
            rows.append(("start method", extra["start_method"]))
        rows += [
            ("task granularity", extra["granularity"]),
            ("DAG tasks", str(extra["tasks"])),
            ("measured wall seconds", f"{extra['wall_seconds']:.4f}"),
        ]
    else:
        rows += [
            ("modeled seconds", f"{res.modeled_seconds:.4f}"),
            ("supernodes on GPU", f"{res.snodes_on_gpu} / {res.total_snodes}"),
            ("BLAS calls", str(res.kernel_count)),
            ("modeled flops", f"{res.flops:.3e}"),
        ]
        if res.best_threads:
            rows.append(("best MKL threads", str(res.best_threads)))
    if res.gpu_stats is not None:
        rows.append(("peak device memory (MiB)",
                     f"{res.gpu_stats.peak_memory / 2 ** 20:.1f}"))
        rows.append(("transfers", str(res.gpu_stats.transfers)))
    print(format_table(["field", "value"], rows,
                       title=f"Factorization: {args.matrix}"))
    if tracer is not None and args.gantt:
        print()
        busy = [ln for ln in tracer.lane_names() if tracer.by_lane(ln)]
        print(tracer.ascii_gantt(lanes=busy or None))
    if tracer is not None and args.trace:
        tracer.save_chrome_trace(args.trace)
        print(f"\nwrote Chrome trace to {args.trace} "
              f"(open in chrome://tracing or Perfetto)")
    return 0


def cmd_solve(args):
    import time

    from .api import plan as make_plan

    if args.rhs < 1:
        print("--rhs must be >= 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    A = _load_matrix(args.matrix)
    rng = np.random.default_rng(args.seed)
    shape = A.n if args.rhs == 1 else (A.n, args.rhs)
    b = rng.standard_normal(shape)
    plan = make_plan(A, ordering=args.ordering)
    try:
        factor = plan.factorize(engine=args.engine, dtype=_cli_dtype(args))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    x = factor.solve(b)
    rel = factor.residual_norm(x, b)
    res = factor.result
    seconds = (f"measured factor time = {res.wall_seconds:.4f}s"
               if res.modeled_seconds is None else
               f"modeled factor time = {res.modeled_seconds:.4f}s")
    print(f"n = {A.n}, method = {factor.engine}, "
          f"precision = {factor.dtype.name}, {seconds}")
    if args.rhs > 1:
        print(f"right-hand sides = {args.rhs} (one block solve)")
    print(f"relative residual = {rel:.3e}")
    if factor.dtype == np.float32:
        # mixed-precision lane: recover fp64 accuracy by refinement
        # (automatic fp64-refactorize fallback when the chain stalls)
        out = factor.solve_refined(b, return_info=True)
        x, rel = out.x, factor.residual_norm(out.x, b)
        fb = factor.result.extra.get("refine_fallback")
        print(f"refined residual  = {rel:.3e} "
              f"({out.iterations} refinement steps"
              + (f"; fp64 refactorize fallback: {fb['reason']}" if fb
                 else "") + ")")
    if args.workers is not None:
        # serial sweeps vs the level-scheduled parallel sweeps, best of 3
        sp = factor.solve_plan()
        t_ser = min(_timed(lambda: factor.solve(b)) for _ in range(3))
        t_par, x_par = float("inf"), None
        for _ in range(3):
            t0 = time.perf_counter()
            x_par = factor.solve(b, workers=args.workers)
            t_par = min(t_par, time.perf_counter() - t0)
        identical = np.array_equal(x, x_par)
        print(f"level schedule: {sp.nlevels} levels, "
              f"max parallelism {sp.max_parallelism} "
              f"(avg {sp.avg_parallelism:.1f}) over {sp.nsup} supernodes")
        print("leaf block    : {} supernodes, {} columns, {} entries, "
              "{} index bytes".format(*sp.leaf_block))
        print(f"serial solve   : {t_ser * 1e3:8.2f} ms")
        print(f"parallel solve : {t_par * 1e3:8.2f} ms "
              f"(workers={args.workers}, {t_ser / t_par:.2f}x, "
              f"bit-identical: {'yes' if identical else 'NO'})")
        if not identical:
            return 1
    return 0 if rel < 1e-8 else 1


def _timed(fn):
    import time

    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def cmd_serve(args):
    import time

    from .analysis import format_table
    from .api import plan as make_plan
    from .numeric.registry import resolve, serial_twin
    from .sparse import spd_value_sweep

    dtype = _cli_dtype(args)
    try:
        # the gateway's --workers sizes its shared pool, not the engine
        spec, _ = resolve(
            args.engine, args.backend, threshold=args.threshold, dtype=dtype,
            workers=None if args.gateway else args.workers)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    engine = spec.name
    if args.count < 1:
        print("--count must be >= 1", file=sys.stderr)
        return 2
    if args.gateway:
        return _cmd_serve_gateway(args, engine)
    A = _load_matrix(args.matrix)
    rng = np.random.default_rng(args.seed)
    datas = spd_value_sweep(A, args.count, seed=args.seed)
    b = rng.standard_normal(A.n)
    loop_kwargs = {} if dtype is None else {"dtype": dtype}
    plan = make_plan(A, ordering=args.ordering)
    plan.factorize(datas[0], engine=engine,
                   **loop_kwargs)  # warm the pattern caches

    tracer = None
    if args.trace:
        from .gpu import Tracer

        tracer = Tracer()
    t0 = time.perf_counter()
    first_latency = None
    with plan.serve(engine=args.engine, workers=args.workers,
                    backend=args.backend, threshold=args.threshold,
                    dtype=dtype, tracer=tracer) as session:
        futures = [session.submit_solve(d, b) for d in datas]
        xs = []
        for fut in futures:
            xs.append(fut.result())
            if first_latency is None:
                first_latency = time.perf_counter() - t0
        workers = session.workers
    t_stream = time.perf_counter() - t0

    # the pre-streaming protocol: factorize + solve one arrival at a time
    loop_engine = serial_twin(engine)
    t0 = time.perf_counter()
    ref_factors = [plan.factorize(d, engine=loop_engine, **loop_kwargs)
                   for d in datas]
    ref_xs = [f.solve(b) for f in ref_factors]
    t_loop = time.perf_counter() - t0

    identical = all(np.array_equal(x, r) for x, r in zip(xs, ref_xs))
    worst = max(f.residual_norm(x, b) for f, x in zip(ref_factors, xs))
    rows = [
        ("engine (streamed)", engine),
        ("engine (looped)", loop_engine),
        ("precision", ref_factors[0].dtype.name),
        ("submissions", str(args.count)),
        ("workers", str(workers)),
        ("looped factorize+solve total", f"{t_loop * 1e3:.2f} ms"),
        ("streamed total", f"{t_stream * 1e3:.2f} ms"),
        ("streamed per matrix (amortized)",
         f"{t_stream / args.count * 1e3:.2f} ms"),
        ("first-result latency", f"{first_latency * 1e3:.2f} ms"),
        ("stream speedup", f"{t_loop / t_stream:.2f}x"),
        ("bit-identical to serial", "yes" if identical else "NO"),
        ("worst relative residual", f"{worst:.3e}"),
    ]
    print(format_table(["field", "value"], rows,
                       title=f"Streaming serving session: {args.matrix}"))
    if tracer is not None:
        tracer.save_chrome_trace(args.trace)
        print(f"\nwrote Chrome trace to {args.trace}")
    if not identical:
        return 1
    # fp32 direct solves bottom out near ~1e-6 relative residual
    return 0 if worst < (1e-4 if dtype == np.float32 else 1e-8) else 1


def _cmd_serve_gateway(args, engine):
    """The `repro serve --gateway` demo: N tenants submit a Zipf-popular
    mix of M sparsity patterns through one multi-tenant Gateway; every
    returned solution is checked bit-identical to a direct
    plan→factorize→solve of the same matrix."""
    import asyncio
    import time

    from .analysis import format_table
    from .api import plan as make_plan
    from .numeric.registry import serial_twin
    from .serving import Gateway
    from .sparse import spd_value_sweep
    from .sparse.csc import SymmetricCSC
    from .sparse.permute import random_permutation, symmetric_permute

    if args.tenants < 1 or args.patterns < 1:
        print("--tenants and --patterns must be >= 1", file=sys.stderr)
        return 2
    A = _load_matrix(args.matrix)
    dtype = _cli_dtype(args)
    rng = np.random.default_rng(args.seed)
    patterns = [A] + [symmetric_permute(A, random_permutation(A.n, rng))
                      for _ in range(args.patterns - 1)]
    sweeps = [spd_value_sweep(P, 8, seed=args.seed + m)
              for m, P in enumerate(patterns)]
    weights = 1.0 / np.arange(1, args.patterns + 1) ** 1.1  # Zipf popularity
    weights /= weights.sum()
    picks = rng.choice(args.patterns, size=args.count, p=weights)
    b = rng.standard_normal(A.n)
    tracer = None
    if args.trace:
        from .gpu import Tracer

        tracer = Tracer()

    async def run():
        async with Gateway(capacity=args.capacity,
                           max_in_flight=args.max_in_flight,
                           workers=args.workers, engine=args.engine,
                           backend=args.backend, threshold=args.threshold,
                           dtype=dtype, ordering=args.ordering,
                           tracer=tracer) as gw:

            async def tenant(t):
                out = []
                for i in range(t, args.count, args.tenants):
                    m = int(picks[i])
                    P = patterns[m]
                    v = sweeps[m][i % len(sweeps[m])]
                    M = SymmetricCSC(P.n, P.indptr, P.indices, v,
                                     check=False)
                    x = await gw.submit(M, b, tenant=f"tenant{t}")
                    out.append((i, m, i % len(sweeps[m]), x))
                return out

            results = await asyncio.gather(
                *[tenant(t) for t in range(args.tenants)])
            return results, gw.stats()

    t0 = time.perf_counter()
    results, stats = asyncio.run(run())
    wall = time.perf_counter() - t0

    # oracle: the serial twin of the gateway's engine, one direct
    # plan→factorize→solve per served request
    twin = serial_twin(engine)
    twin_kwargs = {} if dtype is None else {"dtype": dtype}
    plans = [make_plan(P, ordering=args.ordering) for P in patterns]
    identical = all(
        np.array_equal(x, plans[m].factorize(sweeps[m][k], engine=twin,
                                             **twin_kwargs).solve(b))
        for chunk in results for (_, m, k, x) in chunk
    )
    rows = [
        ("engine", engine),
        ("precision", np.dtype(dtype or np.float64).name),
        ("tenants x patterns", f"{args.tenants} x {args.patterns}"),
        ("requests", str(stats.requests)),
        ("hit rate", f"{stats.hit_rate:.2f} "
                     f"({stats.hits} hits / {stats.misses} misses)"),
        ("warm plans (cached bytes)",
         f"{stats.cached_plans} ({stats.cached_bytes})"),
        ("evictions", str(stats.evictions)),
        ("rejections", f"{stats.rejected_overloaded} overloaded, "
                       f"{stats.rejected_tenant} over tenant budget"),
        ("wall time", f"{wall * 1e3:.2f} ms "
                      f"({wall / max(stats.requests, 1) * 1e3:.2f} "
                      f"ms/request)"),
        ("bit-identical to direct solve", "yes" if identical else "NO"),
    ]
    for fp, ps in stats.per_pattern.items():
        rows.append((f"pattern {fp[:8]}",
                     f"{ps.requests} reqs, {ps.hits} hits, "
                     f"avg {ps.avg_latency_s * 1e3:.2f} ms"))
    print(format_table(["field", "value"], rows,
                       title=f"Multi-tenant gateway: {args.matrix}"))
    if tracer is not None:
        tracer.save_chrome_trace(args.trace)
        print(f"\nwrote Chrome trace to {args.trace} (request spans + "
              f"in-flight/queue-depth counters next to the worker lanes)")
    return 0 if identical else 1


def cmd_batch(args):
    import time

    from .analysis import format_table
    from .api import plan as make_plan
    from .numeric.registry import resolve, serial_twin
    from .sparse import spd_value_sweep

    dtype = _cli_dtype(args)
    kwargs = {"workers": args.workers, "dtype": dtype}
    try:
        spec, _ = resolve(args.engine, args.backend, **kwargs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    engine = spec.name
    if args.batch < 1:
        print("--batch must be >= 1", file=sys.stderr)
        return 2
    if args.rhs < 1:
        print("--rhs must be >= 1", file=sys.stderr)
        return 2
    A = _load_matrix(args.matrix)
    rng = np.random.default_rng(args.seed)
    datas = spd_value_sweep(A, args.batch, seed=args.seed)
    plan = make_plan(A, ordering=args.ordering)

    def looped(name, **kw):
        # factorize_batch is a loop of factorize; the first call warms the
        # plan's caches outside the timer
        plan.factorize(datas[0], engine=name, **kw)
        t0 = time.perf_counter()
        batch = plan.factorize_batch(datas, engine=name, **kw)
        return batch, time.perf_counter() - t0

    twin = serial_twin(engine)
    batch, t_engine = looped(engine, **kwargs)
    _, t_twin = looped(twin, **({} if dtype is None else {"dtype": dtype}))

    shape = A.n if args.rhs == 1 else (A.n, args.rhs)
    b = rng.standard_normal(shape)
    worst = max(f.residual_norm(f.solve(b), b) for f in batch)

    rows = [
        ("engine", engine),
        ("serial twin", twin),
        ("precision", batch[0].dtype.name),
        ("batch size", str(args.batch)),
    ]
    if "workers" in batch[0].result.extra:
        rows.append(("workers", str(batch[0].result.extra["workers"])))
    for name, t in ((engine, t_engine), (twin, t_twin)):
        rows.append((f"looped {name}",
                     f"{t * 1e3:.2f} ms ({t / args.batch * 1e3:.2f} ms "
                     f"per matrix)"))
    rows += [
        ("right-hand sides per matrix", str(args.rhs)),
        ("worst relative residual", f"{worst:.3e}"),
    ]
    print(format_table(["field", "value"], rows,
                       title=f"Same-pattern batch: {args.matrix}"))
    # a single-precision factor's direct solve sits at the fp32 residual
    # floor (~1e-6); the fp64 gate applies to full-precision runs only
    return 0 if worst < (1e-4 if dtype == np.float32 else 1e-8) else 1


def cmd_update(args):
    import time

    from .api import plan as make_plan
    from .update.vectors import structured_update

    if args.rank < 1:
        print("--rank must be >= 1", file=sys.stderr)
        return 2
    A = _load_matrix(args.matrix)
    plan = make_plan(A, ordering=args.ordering)
    try:
        factor = plan.factorize(engine=args.engine)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    symb, perm = plan.symb, plan.perm
    n = symb.n
    kind = "downdate" if args.downdate else "update"
    print(f"n = {n}, {symb.nsup} supernodes, engine = {args.engine}, "
          f"rank = {args.rank}, {kind}, policy = {args.policy}")
    print(f"refactorize flops = {symb.factor_flops():.3e}\n")
    print(f"{'depth':>6} {'path':>6} {'model up':>10} {'model rfz':>10} "
          f"{'meas up':>10} {'meas rfz':>10} {'auto':>12} {'chosen':>12} "
          f"{'resid':>9}")
    b = np.ones(n)
    ok = True
    for frac in (float(t) for t in args.depths.split(",")):
        j0 = min(n - 1, max(0, int(round(frac * (n - 1)))))
        roots = [min(n - 1, j0 + 3 * i) for i in range(args.rank)]
        W = structured_update(symb, perm, roots, nent=args.nent,
                              seed=args.seed, scale=args.scale)
        cost = factor.update_cost(W)
        t_up = min(_timed(lambda: factor.update(W, downdate=args.downdate))
                   for _ in range(3))
        t_rfz = min(_timed(lambda: factor.apply(W, policy="refactorize",
                                                downdate=args.downdate))
                    for _ in range(3))
        t0 = time.perf_counter()
        new = factor.apply(W, policy=args.policy, downdate=args.downdate)
        _ = time.perf_counter() - t0
        chosen = new.result.extra["applied_policy"]
        res = new.residual_norm(new.solve(b), b)
        ok = ok and res < 1e-8
        print(f"{frac:6.2f} {cost.path_cols:6d} "
              f"{cost.update_seconds * 1e3:9.2f}m {cost.refactorize_seconds * 1e3:9.2f}m "
              f"{t_up * 1e3:9.2f}m {t_rfz * 1e3:9.2f}m "
              f"{cost.recommended:>12} {chosen:>12} {res:9.1e}")
    if not ok:
        print("\nFAIL: a served update's residual exceeded 1e-8",
              file=sys.stderr)
        return 1
    return 0


def cmd_suite(args):
    from .analysis import format_table
    from .gpu import DeviceOutOfMemory
    from .numeric import (
        factorize_rl_cpu,
        factorize_rl_gpu,
        factorize_rlb_cpu,
        factorize_rlb_gpu,
    )
    from .sparse import suite_names

    names = args.names or suite_names()
    rows = []
    for name in names:
        system = _analyzed(name, args.ordering)
        symb, B = system.symb, system.matrix
        cpu = min(factorize_rl_cpu(symb, B).modeled_seconds,
                  factorize_rlb_cpu(symb, B).modeled_seconds)
        try:
            rlg = factorize_rl_gpu(symb, B).modeled_seconds
            rl_cell, rl_spd = f"{rlg:.4f}", f"{cpu / rlg:.2f}"
        except DeviceOutOfMemory:
            rl_cell, rl_spd = "OOM", "--"
        rlbg = factorize_rlb_gpu(symb, B, version=2).modeled_seconds
        rows.append((name, str(symb.n), f"{cpu:.4f}", rl_cell, rl_spd,
                     f"{rlbg:.4f}", f"{cpu / rlbg:.2f}"))
        print(f"  {name} done", file=sys.stderr)
    print(format_table(
        ["matrix", "n", "best CPU (s)", "RL-GPU (s)", "speedup",
         "RLB-GPU (s)", "speedup"],
        rows, title="Suite (paper Tables I & II protocol, modeled seconds)"))
    return 0


def cmd_plan(args):
    from .analysis import format_table
    from .numeric import DEFAULT_DEVICE_MEMORY, plan

    system = _analyzed(args.matrix, args.ordering)
    capacity = args.device_memory or DEFAULT_DEVICE_MEMORY
    mp = plan(system.symb, device_memory=capacity)
    rows = [(m, f"{need / 2 ** 20:.1f}",
             "yes" if m in mp.feasible else "NO",
             f"{100 * mp.headroom(m):.0f}%" if m in mp.feasible else "--")
            for m, need in mp.predictions.items()]
    print(format_table(
        ["engine", "predicted peak (MiB)", "fits", "headroom"], rows,
        title=f"Memory plan: {args.matrix} on a "
              f"{capacity / 2 ** 20:.0f} MiB device"))
    print(f"\nrecommended engine: {mp.recommended or 'none — refactor'}")
    return 0 if mp.recommended else 1


def cmd_breakdown(args):
    from .analysis import breakdown, render_breakdowns

    system = _analyzed(args.matrix, args.ordering)
    bs = [breakdown(system.symb, method=m)
          for m in ("rl", "rlb", "rl_gpu", "rlb_gpu")]
    print(render_breakdowns(
        bs, title=f"{args.matrix} — modeled seconds by cost class "
                  "(resource time, overlap ignored)"))
    return 0


def build_parser():
    """The argparse command tree (exposed for tests and docs).

    The ``--backend`` choices are derived from the registry's
    :data:`~repro.numeric.registry.BACKENDS` table, so a newly registered
    scheduling substrate appears in the CLI (and its help) without
    touching this file.
    """
    from .numeric.registry import BACKENDS
    from .ordering import ORDERINGS

    backend_names = sorted(BACKENDS)
    p = argparse.ArgumentParser(
        prog="repro",
        description="GPU-accelerated sparse Cholesky (SC'24) reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--ordering", default="nd",
                        choices=ORDERINGS,
                        help="fill-reducing ordering (default: nd)")

    sub.add_parser("list", help="show the benchmark suite")

    sp = sub.add_parser("analyze", help="symbolic statistics")
    sp.add_argument("matrix")
    common(sp)

    sp = sub.add_parser("factorize", help="run one engine")
    sp.add_argument("matrix")
    sp.add_argument("--engine", default="rl_gpu",
                    help="factorization engine (default: rl_gpu)")
    sp.add_argument("--threshold", type=int, default=None,
                    help="CPU/GPU supernode-size threshold (dilated entries)")
    sp.add_argument("--device-memory", type=int, default=None,
                    help="simulated device capacity in bytes")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker threads or processes of the threads and "
                         "process engines (real wall-clock parallelism)")
    sp.add_argument("--backend", default=None,
                    choices=backend_names,
                    help="run the engine's family on this substrate: "
                         "worker threads or processes (measured), or "
                         "the simulated GPU (modeled offload)")
    sp.add_argument("--dtype", default=None, choices=["fp64", "fp32"],
                    help="numeric precision of the factorization "
                         "(fp32 halves factor memory and runs "
                         "single-precision BLAS)")
    sp.add_argument("--gantt", action="store_true",
                    help="print an ASCII Gantt chart of the timeline")
    sp.add_argument("--trace", metavar="FILE",
                    help="write a Chrome/Perfetto trace JSON")
    common(sp)

    sp = sub.add_parser("solve", help="factorize + solve a random system")
    sp.add_argument("matrix")
    sp.add_argument("--engine", default="rl",
                    help="factorization engine (default: rl)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rhs", type=int, default=1,
                    help="number of right-hand sides (K > 1 solves one "
                         "(n, K) block with level-3 BLAS)")
    sp.add_argument("--workers", type=int, default=None,
                    help="also run the level-scheduled parallel triangular "
                         "solves with this many threads and report "
                         "serial-vs-parallel solve timings (bit-identical)")
    sp.add_argument("--dtype", default=None, choices=["fp64", "fp32"],
                    help="numeric precision of the factorization; fp32 "
                         "additionally reports the fp64-refined residual "
                         "(docs/precision.md)")
    common(sp)

    sp = sub.add_parser("batch",
                        help="same-pattern batch: an engine against its "
                             "serial twin")
    sp.add_argument("matrix")
    sp.add_argument("--engine", default="rlb_par",
                    help="factorization engine for the batch, one matrix "
                         "after another (default: rlb_par)")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker threads for the threaded engines")
    sp.add_argument("--backend", default=None,
                    choices=backend_names,
                    help="scheduling substrate for the batch's task-DAG "
                         "engine (gpu = modeled offload per matrix)")
    sp.add_argument("--batch", type=int, default=8,
                    help="number of same-pattern matrices (default: 8)")
    sp.add_argument("--rhs", type=int, default=1,
                    help="right-hand sides per matrix")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dtype", default=None, choices=["fp64", "fp32"],
                    help="numeric precision of the batched factorizations")
    common(sp)

    sp = sub.add_parser("serve",
                        help="streaming same-pattern serving "
                             "(ServingSession / Gateway demos)")
    sp.add_argument("matrix")
    sp.add_argument("--gateway", action="store_true",
                    help="run the multi-tenant Gateway demo instead: "
                         "N tenants submit a Zipf-popular mix of M "
                         "sparsity patterns through one pattern-keyed "
                         "plan cache")
    sp.add_argument("--engine", default="rlb_par",
                    help="factorization engine, any registered row "
                         "(default: rlb_par)")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker threads of the persistent pool")
    sp.add_argument("--backend", default=None,
                    choices=backend_names,
                    help="scheduling substrate for the serving engine "
                         "(gpu = modeled offload)")
    sp.add_argument("--threshold", type=int, default=None,
                    help="GPU offload threshold (gpu engines)")
    sp.add_argument("--count", type=int, default=8,
                    help="number of streamed matrices / gateway requests "
                         "(default: 8)")
    sp.add_argument("--tenants", type=int, default=4,
                    help="concurrent tenants for --gateway (default: 4)")
    sp.add_argument("--patterns", type=int, default=3,
                    help="distinct sparsity patterns for --gateway "
                         "(default: 3)")
    sp.add_argument("--capacity", type=int, default=8,
                    help="warm-plan cache capacity for --gateway "
                         "(default: 8)")
    sp.add_argument("--max-in-flight", type=int, default=64,
                    help="global in-flight admission cap for --gateway "
                         "(default: 64)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dtype", default=None, choices=["fp64", "fp32"],
                    help="numeric precision of the served factorizations "
                         "(session-wide)")
    sp.add_argument("--trace", metavar="FILE",
                    help="write a Chrome/Perfetto trace (request spans, "
                         "analysis spans and in-flight counters for "
                         "--gateway; worker lanes either way)")
    common(sp)

    sp = sub.add_parser("update",
                        help="serve-time rank-k update/downdate vs "
                             "refactorize (crossover sweep)")
    sp.add_argument("matrix")
    sp.add_argument("--engine", default="rl",
                    help="engine producing the base factor (default: rl)")
    sp.add_argument("--rank", type=int, default=2,
                    help="rank k of the modification (default: 2)")
    sp.add_argument("--nent", type=int, default=4,
                    help="off-root nonzeros per rank (default: 4)")
    sp.add_argument("--depths", default="0.9,0.5,0.05",
                    help="entry-column positions as fractions of n; "
                         "smaller = deeper in the tree = longer path "
                         "(default: 0.9,0.5,0.05)")
    sp.add_argument("--downdate", action="store_true",
                    help="subtract W W^T instead of adding it")
    sp.add_argument("--policy", default="auto",
                    choices=["auto", "update", "refactorize"],
                    help="Factor.apply road (default: auto = modeled "
                         "crossover)")
    sp.add_argument("--scale", type=float, default=0.05,
                    help="modification magnitude (default: 0.05 — small "
                         "keeps downdates positive definite)")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    sp = sub.add_parser("suite", help="Tables I/II over the suite")
    sp.add_argument("names", nargs="*")
    common(sp)

    sp = sub.add_parser("breakdown", help="per-kernel-class time report")
    sp.add_argument("matrix")
    common(sp)

    sp = sub.add_parser("plan", help="device-memory feasibility per engine")
    sp.add_argument("matrix")
    sp.add_argument("--device-memory", type=int, default=None,
                    help="device capacity in bytes (default: 400 MiB)")
    common(sp)

    return p


_COMMANDS = {
    "list": cmd_list,
    "analyze": cmd_analyze,
    "factorize": cmd_factorize,
    "solve": cmd_solve,
    "batch": cmd_batch,
    "serve": cmd_serve,
    "update": cmd_update,
    "suite": cmd_suite,
    "breakdown": cmd_breakdown,
    "plan": cmd_plan,
}


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _BadMatrix as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
