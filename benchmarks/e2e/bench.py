"""The measured program: set-up, direct requests, cold requests, gateway.

Every workload runs the same three phases on its own inputs
(:mod:`workloads`):

1. **set-up**, repeated from scratch (``setup_s`` is the median): seeded
   inputs, ``repro.plan`` of the primary pattern, the first factorization,
   the worker-process pool, one warm-up of every direct request;
2. **rounds**, one driver thread, until the run's seconds are up.  A round
   runs every direct request once on the primary pattern with the round's
   value set, then cold requests on the next served patterns, then two
   blocks of closed-loop gateway traffic (one client, then two client
   coroutines on one event loop) through one ``Gateway(capacity,
   workers=2)`` that lives for the whole run.

Every timed operation is followed by a sample of the machine's speed probe
(:mod:`machine`), and every answer is checked right after its timer stops
(never inside it); a wrong answer is a failed operation.  With ``spans`` set, each request is
also run as its *traced twin* — the same public calls wrapped in spans, the
cold request replayed stage by stage — which is where the per-layer numbers
come from.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import time
import traceback
from collections import defaultdict

import numpy as np

import repro
from repro.numeric.procpool import close_default_pools, default_process_pool
from repro.numeric.registry import serial_twin
from repro.numeric.storage import ScatterPlan
from repro.ordering import order_matrix
from repro.serving import Gateway
from repro.sparse import SymmetricCSC, compose_permutations, symmetric_permute
from repro.symbolic.amalgamate import amalgamate
from repro.symbolic.analyze import AnalyzedSystem
from repro.symbolic.colcounts import column_counts
from repro.symbolic.etree import elimination_tree, postorder
from repro.symbolic.levels import solve_schedule
from repro.symbolic.partition_refinement import partition_refinement
from repro.symbolic.structure import symbolic_factorization
from repro.symbolic.supernodes import fundamental_supernodes

from e2e import workloads as wl
from e2e.machine import Probe

#: executor / gateway width
WORKERS = min(2, os.cpu_count() or 1)
#: closed-loop gateway clients: every round sends one block with one client —
#: each request alone in the gateway, which is where the latencies are taken —
#: and one block with two, which is where the throughput is taken
CLIENTS = (1, 2)
#: cold requests per round, walking the served patterns in turn
COLD_PER_ROUND = 3
#: the gateway's default engine, spelled out so the checks can name its twin
GATEWAY_ENGINE = "rlb_par"

#: the CPUs this process may use (where the OS can say)
ALL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@contextlib.contextmanager
def threads_on(cpus):
    """Run the ``with`` body with the calling thread — and every thread
    started from it — restricted to ``cpus``.

    Python threads that pass the GIL around run in one of two regimes on a
    multi-core machine: co-located on one core, or spread over several, where
    every hand-off crosses cores — measured here at up to 2.3x the time for
    ``rl_par`` and 25 % fewer gateway requests per second.  Which regime the
    scheduler picks depended on how the benchmark was launched, not on the
    program.  The measured requests therefore run on :data:`ONE_CPU`; worker
    *processes* are started before that and keep every CPU.  The layer
    battery reports the spread regime beside it
    (``numeric.threads_spread_penalty``)."""
    if ALL_CPUS is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


#: where the driver thread and the program's threads run while measured
ONE_CPU = None if ALL_CPUS is None else {max(ALL_CPUS)}

TOL_FP64 = 1e-10
TOL_REFINED = 1e-12
TOL_UPDATE = 1e-9

#: the direct requests, in round order.  The serial twin comes first (the
#: parallel answers are compared with it) and the worker processes last: they
#: are still winding down when the next timer starts.
DIRECT = (
    "refactor_solve_s",
    "refactor_solve_rlb_s",
    "refactor_refined_fp32_s",
    "solve_rhs16_s",
    "update_solve_s",
    "refactor_solve_threads_s",
    "refactor_solve_process_s",
)
TRACED = "#traced"


def residual(A, x, b, W=None):
    """Relative residual of ``(A + W Wᵀ) x = b`` for a ``scipy.sparse``
    matrix ``A``, columns of a block ``b`` taken together."""
    r = b - A @ x
    if W is not None:
        r = r - W @ (W.T @ x)
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def analysis_stages(A, timed):
    """``repro.analyze(A)``'s stage sequence through the public stage
    functions, each call under ``timed(name, fn, *args)``; returns the
    :class:`AnalyzedSystem`.  Must stay equal to ``analyze`` — asserted by
    the caller against the real thing."""
    perm, _ = timed("ordering.nd", order_matrix, A, "nd")
    B, _ = timed("sparse.permute", symmetric_permute, A, perm)
    parent, _ = timed("symbolic.etree", elimination_tree, B)
    post, _ = timed("symbolic.postorder", postorder, parent)
    perm = compose_permutations(post, perm)
    B, _ = timed("sparse.permute", symmetric_permute, A, perm)
    parent, _ = timed("symbolic.etree", elimination_tree, B)
    counts, _ = timed("symbolic.colcounts", column_counts, B, parent)
    snptr, _ = timed("symbolic.supernodes", fundamental_supernodes, parent, counts,
                     fundamental=True)
    symb, _ = timed("symbolic.symbfact", symbolic_factorization, B, snptr)
    snptr, _ = timed("symbolic.amalgamate", amalgamate, symb, growth_cap=0.25)
    symb, _ = timed("symbolic.symbfact", symbolic_factorization, B, snptr)
    rperm, _ = timed("symbolic.partition_refinement", partition_refinement, symb,
                     method="best")
    perm = compose_permutations(rperm, perm)
    B, _ = timed("sparse.permute", symmetric_permute, A, perm)
    symb, _ = timed("symbolic.symbfact", symbolic_factorization, B, snptr)
    return AnalyzedSystem(perm=perm, matrix=B, symb=symb)


class Bench:
    """One workload's inputs, plans and samples."""

    def __init__(self, workload, seed, *, smoke=False, spans=None):
        self.w = workload
        self.seed = int(seed)
        self.smoke = smoke
        self.spans = spans
        self.tracing = False
        self.probe = Probe()
        self.samples = defaultdict(list)     # name → seconds, recording order
        self.cold = defaultdict(lambda: defaultdict(list))  # part → pattern → s
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.gateway = None                  # filled by measure

    # ------------------------------------------------------------------
    # timing and checking
    # ------------------------------------------------------------------
    def timed(self, name, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), seconds)``; under tracing the timer is a
        span called ``name``."""
        if self.tracing:
            with self.spans.span(name) as row:
                out = fn(*args, **kwargs)
            return out, row[2] - row[1]
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    def request(self, name, rid):
        """The span around one whole request (no-op when not tracing)."""
        if self.tracing:
            return self.spans.span(name, request=rid)
        return contextlib.nullcontext()

    def fail(self, what, detail):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {detail}")

    def check(self, what, ok, detail=""):
        if not ok:
            self.fail(what, detail or "wrong answer")

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self):
        """What the program does before it can serve the primary pattern's
        first timed request, from scratch: seeded inputs, ``repro.plan``,
        the first factorization (lazy relative indices), the worker-process
        pool, one warm-up of every direct request (lazy DAG plans, block
        lists, level schedule).  Returns the phase seconds."""
        t0 = time.perf_counter()
        w, seed = self.w, self.seed
        self.primary = wl.pattern_inputs(w.smoke_primary if self.smoke else w.primary, seed)
        self.served = [wl.pattern_inputs(spec, seed + 1 + m) for m, spec in
                       enumerate(w.smoke_served if self.smoke else w.served)]
        self.B16 = np.random.default_rng(seed).standard_normal((self.primary.A.n, 16))
        t1 = time.perf_counter()
        self.plan = repro.plan(self.primary.A)
        t2 = time.perf_counter()
        self.W = self.primary.update_vectors(self.plan)
        v0 = self.primary.values[0]
        self.warm = self.plan.factorize(v0, engine="rl")
        t3 = time.perf_counter()
        # the pool forks: start it before this process owns any thread
        default_process_pool(WORKERS)
        self.plan.factorize(v0, engine="rl_proc", workers=WORKERS)
        t4 = time.perf_counter()
        with threads_on(ONE_CPU):
            for name in DIRECT:
                self.direct_op(name, v0)
        t5 = time.perf_counter()
        return {"setup_s": t5 - t0, "inputs_s": t1 - t0, "plan_s": t2 - t1,
                "first_factor_s": t3 - t2, "process_first_call_s": t4 - t3,
                "warm_s": t5 - t4}

    def references(self):
        """Reference plans of the served patterns — what the checks compare
        cold and gateway answers with, and where the gateway's update
        vectors come from.  Once per run, outside ``setup_s`` and every
        timer: the program under test never sees them."""
        self.full = [self.primary.full(k) for k in range(wl.NVALUES)]
        self.served_full = [[p.full(k) for k in range(wl.NVALUES)] for p in self.served]
        self.served_plans = [repro.plan(p.A) for p in self.served]
        self.served_fp = [repro.pattern_fingerprint(p.A) for p in self.served]
        self.served_W = [p.update_vectors(pl) for p, pl in zip(self.served, self.served_plans)]

    def teardown(self):
        close_default_pools()

    # ------------------------------------------------------------------
    # direct requests (primary pattern, plan built in set-up)
    # ------------------------------------------------------------------
    def _factor_solve(self, v, engine, **kw):
        f, _ = self.timed("numeric.factorize", self.plan.factorize, v, engine=engine, **kw)
        x, _ = self.timed("solve.triangular", f.solve, self.primary.b)
        return x

    def direct_op(self, name, v):
        b = self.primary.b
        if name == "refactor_solve_s":
            return self._factor_solve(v, "rl")
        if name == "refactor_solve_rlb_s":
            return self._factor_solve(v, "rlb")
        if name == "refactor_solve_threads_s":
            return self._factor_solve(v, "rl_par", workers=WORKERS)
        if name == "refactor_solve_process_s":
            return self._factor_solve(v, "rl_proc", workers=WORKERS)
        if name == "refactor_refined_fp32_s":
            f, _ = self.timed("numeric.factorize", self.plan.factorize, v, engine="rl",
                              dtype=np.float32)
            x, _ = self.timed("solve.refine", f.solve_refined, b, tol=TOL_REFINED)
            return x
        if name == "solve_rhs16_s":
            x, _ = self.timed("solve.triangular", self.warm.solve, self.B16)
            return x
        if name == "update_solve_s":
            f, _ = self.timed("numeric.update", self.warm.update, self.W)
            x, _ = self.timed("solve.triangular", f.solve, b)
            return x
        raise KeyError(name)

    def check_direct(self, name, x, k, x_serial):
        """The answer of direct request ``name`` on value set ``k`` (the warm
        factor of the block solve and the update holds value set 0)."""
        p = self.primary
        if name in ("refactor_solve_threads_s", "refactor_solve_process_s"):
            self.check(name, x_serial is not None and np.array_equal(x, x_serial),
                       "not bit-identical to the serial twin")
            return
        if name == "solve_rhs16_s":
            r, tol = residual(self.full[0], x, self.B16), TOL_FP64
        elif name == "update_solve_s":
            r, tol = residual(self.full[0], x, p.b, self.W), TOL_UPDATE
        elif name == "refactor_refined_fp32_s":
            r, tol = residual(self.full[k], x, p.b), TOL_REFINED
        else:
            r, tol = residual(self.full[k], x, p.b), TOL_FP64
        self.check(name, r <= tol, f"residual {r:.2e}")

    def direct_round(self, r):
        """Every direct request once, then the round's cold requests."""
        k = r % wl.NVALUES
        v = self.primary.values[k]
        suffix = TRACED if self.tracing else ""
        x_serial = None
        for name in DIRECT:
            self.attempted += 1
            try:
                with self.request("request." + name, f"{name}#{r}"):
                    t0 = time.perf_counter()
                    x = self.direct_op(name, v)
                    dt = time.perf_counter() - t0
            except Exception:
                self.fail(name, traceback.format_exc(limit=3))
                continue
            self.samples[name + suffix].append(dt)
            self.probe.sample()
            self.check_direct(name, x, k, x_serial)
            if name == "refactor_solve_s":
                x_serial = x
        for j in range(COLD_PER_ROUND * r, COLD_PER_ROUND * (r + 1)):
            self.cold_request(j % len(self.served), r)

    # ------------------------------------------------------------------
    # cold requests (served patterns, nothing cached)
    # ------------------------------------------------------------------
    def _plan(self, A):
        """``repro.plan(A)`` — or, under tracing, its stage-by-stage twin."""
        if not self.tracing:
            return repro.plan(A)
        system = analysis_stages(A, self.timed)
        self.timed("symbolic.scatter_plan", ScatterPlan.get, system.symb, system.matrix)
        return repro.SymbolicPlan(A, system)

    def cold_request(self, m, r):
        """fingerprint → plan → factorize → solve on a fresh copy of served
        pattern ``m``."""
        p = self.served[m]
        k = r % wl.NVALUES
        A = wl.fresh(p.A, p.values[k])
        suffix = TRACED if self.tracing else ""
        self.attempted += 1
        try:
            with self.request("request.cold_solve_s", f"cold#{m}#{r}"):
                t0 = time.perf_counter()
                fp, t_fp = self.timed("sparse.fingerprint", repro.pattern_fingerprint, A)
                plan, t_plan = self.timed("api.plan", self._plan, A)
                f, t_first = self.timed("numeric.first_factorize", plan.factorize, engine="rl")
                x, _ = self.timed("solve.triangular", f.solve, p.b)
                dt = time.perf_counter() - t0
        except Exception:
            self.fail("cold_solve_s", traceback.format_exc(limit=3))
            return
        self.probe.sample()
        parts = {"total": dt, "fingerprint": t_fp, "plan": t_plan, "first_factor": t_first}
        for part, seconds in parts.items():
            self.cold[part + suffix][m].append(seconds)
        r_ = residual(self.served_full[m][k], x, p.b)
        self.check("cold_solve_s", fp == self.served_fp[m] and r_ <= TOL_FP64,
                   f"residual {r_:.2e}")
        if self.tracing:
            ref = self.served_plans[m]
            self.check("replay.analysis",
                       np.array_equal(plan.perm, ref.perm)
                       and np.array_equal(plan.symb.snptr, ref.symb.snptr),
                       "stage replay differs from repro.analyze")
            # what a fresh plan builds lazily on first use, measured where
            # it happens: solve schedule now, relative indices as the gap
            # between this first factorization and a second one
            _, t_sched = self.timed("symbolic.solve_schedule", solve_schedule,
                                    symbolic_factorization(plan.system.matrix,
                                                           plan.symb.snptr))
            _, t_again = self.timed("numeric.factorize", plan.factorize, engine="rl")
            self.cold["solve_schedule"][m].append(t_sched)
            self.cold["first_factor_extra"][m].append(t_first - t_again)

    # ------------------------------------------------------------------
    # gateway traffic (served patterns) and the round loop
    # ------------------------------------------------------------------
    def measure(self, seconds, min_rounds, *, battery=None):
        """Rounds until ``seconds`` have passed and ``min_rounds`` are done.
        A round is every direct request once, the cold requests, then one
        block of gateway traffic per client count — every timed operation of
        the workload, and the speed probe, is sampled round-robin over the
        whole run, so a slow phase of the machine lands in all of them
        alike.  With ``battery`` (a traced run) the direct requests also run
        as their traced twins, the layer battery runs once a round and the
        gateway blocks are traced.  Returns the round count."""
        with threads_on(ONE_CPU):
            return asyncio.run(self._rounds(seconds, min_rounds, battery))

    async def _rounds(self, seconds, min_rounds, battery):
        w = self.w
        block = wl.block_picks(len(self.served), w.zipf)
        gw_state = {"records": [], "block_rates": {c: [] for c in CLIENTS}, "issued": 0,
                    "reference": {}}
        self.round_marks = [len(self.probe.samples)]   # probe samples before each round
        deadline = time.perf_counter() + seconds
        r = 0
        async with Gateway(capacity=w.capacity, workers=WORKERS, engine=GATEWAY_ENGINE) as gw:
            while r < min_rounds or time.perf_counter() < deadline:
                # a round's garbage goes between rounds, not into a timer
                gc.collect()
                self.direct_round(r)
                if battery is not None:
                    self.tracing = True
                    try:
                        self.direct_round(r)
                    finally:
                        self.tracing = False
                    battery.round(r)
                self.tracing = battery is not None
                try:
                    for clients in CLIENTS:
                        await self._gateway_block(gw, block, clients, gw_state)
                        self.probe.sample()
                finally:
                    self.tracing = False
                r += 1
                self.round_marks.append(len(self.probe.samples))
            stats = gw.stats()
        self.gateway = {"records": gw_state["records"], "block_rates": gw_state["block_rates"],
                        "hits": stats.hits, "misses": stats.misses,
                        "hit_rate": stats.hit_rate, "evictions": stats.evictions,
                        "updates": stats.updates}
        return r

    async def _gateway_block(self, gw, block, clients, state):
        """One period of the pick sequence, closed loop: ``clients``
        coroutines on this loop each send their next request when the
        previous one has resolved.  Appends ``(kind, pattern, value index,
        seconds, answer, clients)`` records and the block's requests per
        second."""
        records = state["records"]
        before = len(records)
        todo = iter(enumerate(block))

        async def one(kind, rid, m, k, coro):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with self.request("serving." + kind, rid):
                    out = await coro
            except Exception:
                self.fail("gateway." + kind, traceback.format_exc(limit=3))
                return None
            records.append((kind, m, k, time.perf_counter() - t0,
                            None if kind == "base" else out, clients))
            return out

        async def client():
            for j, m in todo:
                i = state["issued"]
                state["issued"] += 1
                m, k = int(m), i % wl.NVALUES
                p = self.served[m]
                M = SymmetricCSC(p.A.n, p.A.indptr, p.A.indices, p.values[k], check=False)
                warm = self.served_fp[m] in gw.stats().per_pattern
                # the update slots are positions of the pick sequence, so
                # every block has the same requests in the same order
                if warm and j % wl.UPDATE_EVERY == wl.UPDATE_EVERY - 1:
                    # a time-stepping client re-bases on the step's values,
                    # then applies the rank-2 modification
                    base = await one("base", f"gw#{i}", m, k, gw.submit(M))
                    if base is not None:
                        await one("update", f"gw#{i}u", m, k, gw.submit_update(
                            self.served_fp[m], self.served_W[m], p.b))
                else:
                    await one("hit" if warm else "miss", f"gw#{i}", m, k, gw.submit(M, p.b))

        t0 = time.perf_counter()
        await asyncio.gather(*[client() for _ in range(clients)])
        elapsed = time.perf_counter() - t0
        # the first block fills an empty cache: it is traffic, not a sample
        if before:
            state["block_rates"][clients].append((len(records) - before) / elapsed)
        self._check_gateway(records, before, state["reference"])

    def _check_gateway(self, records, start, reference):
        """Hits and misses of ``records[start:]`` bit-identical to the serial
        twin of the gateway's engine (``reference`` caches the twin's answer
        per pattern and value set); updated solutions against ``A + W Wᵀ``.
        A checked record drops its answer, so the run's memory does not grow
        with the number of rounds it had time for."""
        twin = serial_twin(GATEWAY_ENGINE)
        for i in range(start, len(records)):
            kind, m, k, seconds, out, clients = records[i]
            records[i] = (kind, m, k, seconds, None, clients)
            p = self.served[m]
            if kind in ("hit", "miss"):
                if (m, k) not in reference:
                    reference[m, k] = self.served_plans[m].factorize(
                        p.values[k], engine=twin).solve(p.b)
                self.check("gateway." + kind, np.array_equal(out, reference[m, k]),
                           "not bit-identical to the serial twin")
            elif kind == "update":
                r = residual(self.served_full[m][k], out, p.b, self.served_W[m])
                self.check("gateway.update", r <= TOL_UPDATE, f"residual {r:.2e}")

    def check_update_against_scratch(self):
        """An updated factor's solution against a from-scratch
        factorization of ``A + W Wᵀ`` — once per run, outside every timer,
        on the first served pattern (the scratch side pays a new analysis:
        ``W Wᵀ`` adds entries to the pattern; every timed update is
        residual-checked against ``A + W Wᵀ`` besides)."""
        p, plan, W = self.served[0], self.served_plans[0], self.served_W[0]
        self.attempted += 1
        base = plan.factorize(p.values[0], engine="rl")
        x = base.update(W).solve(p.b)
        y = base.apply(W, policy="refactorize").solve(p.b)
        err = float(np.linalg.norm(x - y) / np.linalg.norm(y))
        self.check("update_vs_scratch", err <= TOL_UPDATE, f"relative difference {err:.2e}")
