"""The multi-tenant async serving gateway.

Architecture — three layers, one shared pool::

    tenants ──await submit()──▶ Gateway (asyncio, event-loop thread)
                                  │  admission control: global in-flight
                                  │  cap + per-tenant budgets
                                  │  LRU plan cache keyed by
                                  │  pattern_fingerprint(A)
                                  ▼
                       per-pattern ServingSession  (one per warm plan)
                                  │  submit()/submit_solve() futures
                                  ▼
                       ONE shared ThreadPoolExecutor  (worker threads)

Cache **hits** skip straight to the numeric stage: the request's values
are pushed through the warm plan's serving session, ONE task on the shared
pool (the factorization — a threads row's serial twin — and the serial
solve right after it).  Cache **misses** run :func:`repro.plan` — ordering, supernode amalgamation,
symbolic factorization — on a small analysis thread pool *off the event
loop*, with concurrent same-pattern misses deduplicated onto one pending
analysis.

Concurrency model: every piece of mutable gateway state (cache order,
pins, tenant counters, stats) is touched only from the event-loop thread —
coroutines run there, and the bridge to the worker pools is
``asyncio.wrap_future`` / ``run_in_executor``, so no locks are needed.
Threaded clients drive the gateway with
``asyncio.run_coroutine_threadsafe(gw.submit(...), loop)``.

Determinism: the gateway adds no numeric code path of its own — every
solution is produced by the same serving-session machinery as
``plan.factorize(values).solve(b)`` and is therefore bit-identical to
that direct call, for any tenant mix, cache state or interleaving.

Failure isolation: a non-SPD submission resolves only its own awaited
future (:class:`~repro.dense.kernels.NotPositiveDefiniteError`, annotated
with ``stream_index`` by the session); a typed admission rejection
(:class:`GatewayOverloaded`, :class:`TenantBudgetExceeded`) is raised
before any work is enqueued and leaves every other request untouched.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..api import plan as build_plan
from ..numeric.executor import _resolve_workers
from ..numeric.registry import resolve
from ..symbolic.analyze import analyze
from ..symbolic.structure import pattern_fingerprint

__all__ = [
    "Gateway",
    "GatewayStats",
    "PatternStats",
    "GatewayRejected",
    "GatewayOverloaded",
    "TenantBudgetExceeded",
    "GatewayTimeout",
    "UnknownPatternError",
    "NoBaseFactorError",
    "plan_nbytes",
]


class GatewayRejected(RuntimeError):
    """Base class of the gateway's typed admission rejections.

    Raised *before* any work is enqueued; only the offending request
    observes it."""


class GatewayOverloaded(GatewayRejected):
    """The global in-flight cap (``max_in_flight``) is reached."""


class TenantBudgetExceeded(GatewayRejected):
    """The submitting tenant is at its per-tenant queue budget."""


class GatewayTimeout(TimeoutError):
    """An awaited ``submit``/``submit_values`` exceeded its ``timeout=``.

    Raised to the timed-out caller only: the underlying numeric future is
    cancelled if still queued, and its task then computes nothing (a task
    already running cannot be cancelled; it finishes and its answer is
    dropped), the admission slot and tenant budget are released
    immediately, and the per-pattern session keeps serving every other
    request — no poisoning.  Counted in :attr:`GatewayStats.timeouts`."""


class UnknownPatternError(KeyError):
    """``submit_values`` named a fingerprint with no warm (or pending)
    plan — submit the full matrix once, or :meth:`Gateway.register` it."""


class NoBaseFactorError(LookupError):
    """``submit_update`` named a pattern with no warm base factor.

    Updates ride on the pattern's most recent served factor; serve one
    full :meth:`Gateway.submit` (without ``b``) on the fingerprint first."""


def plan_nbytes(plan, *, dtype=None, work_arena=False):
    """Byte-budget heuristic for one warm :class:`~repro.api.SymbolicPlan`.

    Counts the pattern-describing arrays a cached plan keeps alive: the
    symbolic factor's structure arrays plus the pattern host's CSC arrays
    — each at its own ``.nbytes``, never an assumed element width.  The
    memoised engine caches (scatter plan, relative-index runs, leaf
    block) scale with the same quantities, so this tracks the real
    footprint to within a small constant factor — good enough to rank
    plans for byte-budget eviction.

    ``dtype`` adds the panel bytes of ONE retained factor at that
    precision (``factor_nnz_dense() × itemsize``): a gateway entry keeps
    the pattern's latest served factor alive as the update base, and an
    fp32 serving lane holds half the panel bytes of an fp64 one — the
    eviction ranking should see that difference.  With ``dtype``,
    ``work_arena`` adds ONE work storage's arena at that precision: the one
    a session that :attr:`~repro.api.ServingSession.borrows_work` builds
    when it opens.  The gateway counts an entry once, at install, so the
    arenas that requests in flight at once build later are not counted.
    """
    symb = plan.symb
    A = plan.matrix
    total = sum(int(a.nbytes) for a in (symb.snptr, symb.sn_parent,
                                        symb.rowptr, symb.rows, symb.col2sn))
    total += int(A.indptr.nbytes) + int(A.indices.nbytes) + int(A.data.nbytes)
    if dtype is not None:
        panels = int(symb.factor_nnz_dense())
        if work_arena:
            panels += int(symb.panel_offsets()[-1])
        total += panels * np.dtype(dtype).itemsize
    return total


class _CacheEntry:
    """One warm pattern: the plan, its serving session on the shared pool,
    and the bookkeeping eviction/stats need."""

    __slots__ = ("fingerprint", "plan", "session", "nbytes", "pins",
                 "hits", "misses", "requests", "latency_sum", "latency_max",
                 "latest_factor", "updates")

    def __init__(self, fingerprint, plan, session, nbytes):
        self.fingerprint = fingerprint
        self.plan = plan
        self.session = session
        self.nbytes = nbytes
        self.pins = 0  # in-flight requests using this entry; > 0 ⇒ unevictable
        self.hits = 0
        self.misses = 0
        self.requests = 0
        self.latency_sum = 0.0
        self.latency_max = 0.0
        self.latest_factor = None  # most recent served factor: update base
        self.updates = 0


@dataclass(frozen=True)
class PatternStats:
    """Per-pattern serving metrics (one row of :class:`GatewayStats`)."""

    fingerprint: str
    n: int
    hits: int
    misses: int
    requests: int
    in_flight: int
    updates: int
    nbytes: int
    avg_latency_s: float
    max_latency_s: float

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class GatewayStats:
    """Snapshot of the gateway's counters (:meth:`Gateway.stats`)."""

    requests: int
    hits: int
    misses: int
    rejected_overloaded: int
    rejected_tenant: int
    timeouts: int
    updates: int
    evictions: int
    in_flight: int
    queue_depth: int
    cached_plans: int
    cached_bytes: int
    per_pattern: dict = field(default_factory=dict)
    per_tenant: dict = field(default_factory=dict)

    @property
    def hit_rate(self):
        """Warm-plan hit fraction over every admitted request (a request
        that had to wait on a pending analysis counts as a miss)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _limit(name, value, optional=False):
    """A gateway limit as an ``int`` >= 1, read through ``operator.index``
    as :func:`~repro.numeric.registry.resolve` reads ``workers``; an
    ``optional`` limit may be ``None`` (no limit)."""
    if optional and value is None:
        return None
    value = operator.index(value)  # 2.5 and "10" are a TypeError
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


class Gateway:
    """Multi-tenant async front door over the staged ``plan → Factor`` API.

    ::

        async with Gateway(capacity=32, max_in_flight=64,
                           tenant_budget=8) as gw:
            x = await gw.submit(A, b, tenant="acme")          # full matrix
            fp = await gw.register(A2)                        # warm only
            x2 = await gw.submit_values(fp, values, b2)       # values only

    Parameters
    ----------
    capacity:
        Maximum number of warm plans in the LRU cache.  This and every
        other limit below is an integer >= 1, read as the registry reads
        ``workers`` (a float or a string is a ``TypeError``), when the
        gateway is built.
    plan_bytes_budget:
        Optional byte budget over the cached plans (:func:`plan_nbytes`
        heuristic); eviction drops least-recently-used *unpinned* plans
        until under budget — a plan with in-flight requests is never
        evicted.
    max_in_flight:
        Global cap on admitted-but-unfinished requests; beyond it
        :class:`GatewayOverloaded` is raised.
    tenant_budget:
        Per-tenant in-flight cap (``None``: unlimited); beyond it
        :class:`TenantBudgetExceeded` is raised for that tenant only.
    workers:
        Width of the ONE shared
        :class:`~concurrent.futures.ThreadPoolExecutor` every per-pattern
        session runs on — how many requests run at once, one pool task each
        (``None``: :func:`~repro.numeric.executor.default_workers`).
    engine / threshold:
        Engine of every per-pattern session, exactly as
        :meth:`repro.api.SymbolicPlan.serve` takes them: any registered
        row.  A bad engine or option, or a keyword neither the engine nor
        :func:`~repro.symbolic.analyze.analyze` takes, raises the
        registry's ``ValueError`` here, before any request is analyzed.
    dtype:
        Default factor precision of every per-pattern session
        (``numpy.float32`` for a mixed-precision gateway; see
        ``docs/precision.md``).  :meth:`submit` / :meth:`submit_values`
        take a per-request override.
    ordering / analyze_kwargs:
        Forwarded to :func:`repro.plan` on every cache miss.
    analysis_workers:
        Threads of the symbolic-analysis executor (misses run there, off
        the event loop).
    tracer / trace_origin:
        Optional :class:`~repro.gpu.trace.Tracer`: request lifecycle spans
        land on the ``"gateway"`` lane (``req:<fp>``), analysis spans on
        ``"gateway-analysis"``, in-flight / queue-depth counter samples on
        the ``"gateway"`` counter track — next to the sessions' measured
        worker lanes, which share the same clock origin.
    """

    def __init__(self, *, capacity=8, plan_bytes_budget=None,
                 max_in_flight=64, tenant_budget=None, workers=None,
                 engine="rlb_par", threshold=None, dtype=None,
                 ordering="nd", analysis_workers=1, tracer=None,
                 trace_origin=None, **analyze_kwargs):
        # an engine option the registry refuses, or a keyword analyze() does
        # not take, fails here, not on every miss: a stray keyword is the
        # registry's "not accepted" unless it is an option of the engine
        signature = inspect.signature(analyze)
        stray = {k: v for k, v in analyze_kwargs.items() if k not in signature.parameters}
        resolve(engine, threshold=threshold, dtype=dtype, **stray)
        signature.bind_partial(**analyze_kwargs)
        self.capacity = _limit("capacity", capacity)
        self.plan_bytes_budget = _limit("plan_bytes_budget", plan_bytes_budget, True)
        self.max_in_flight = _limit("max_in_flight", max_in_flight)
        self.tenant_budget = _limit("tenant_budget", tenant_budget, True)
        analysis_workers = _limit("analysis_workers", analysis_workers)
        self._engine = engine
        self._threshold = threshold
        self._dtype = dtype
        self._ordering = ordering
        self._analyze_kwargs = analyze_kwargs
        self._tracer = tracer
        self._origin = (time.perf_counter() if trace_origin is None
                        else trace_origin)
        self.workers = _resolve_workers(workers)
        self._pool = ThreadPoolExecutor(self.workers, thread_name_prefix="repro-gateway")
        self._analysis = ThreadPoolExecutor(
            max_workers=analysis_workers,
            thread_name_prefix="repro-gw-analysis")
        self._cache = {}       # fp -> _CacheEntry, insertion = LRU order
        self._pending = {}     # fp -> asyncio.Task[_CacheEntry]
        self._cached_bytes = 0
        self._tenants = {}     # tenant -> in-flight count
        self._in_flight = 0
        self._queued = 0       # numeric futures submitted, not yet resolved
        self._requests = 0
        self._hits = 0
        self._misses = 0
        self._rejected_overloaded = 0
        self._rejected_tenant = 0
        self._timeouts = 0
        self._updates = 0
        self._evictions = 0
        self._tenant_requests = {}
        self._closed = False
        self._loop = None
        self._idle = None  # asyncio.Event, created lazily on the loop

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def loop(self):
        """The event loop the gateway is bound to (set on first use);
        threaded clients pass coroutines to it with
        ``asyncio.run_coroutine_threadsafe``."""
        return self._loop

    @property
    def pool(self):
        """The ONE shared worker pool under every per-pattern session."""
        return self._pool

    def _bind_loop(self):
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._idle = asyncio.Event()
            self._idle.set()
        elif loop is not self._loop:
            raise RuntimeError(
                "gateway is bound to another event loop; drive it from "
                "one loop (threads may use asyncio.run_coroutine_threadsafe)"
            )
        return loop

    async def __aenter__(self):
        self._bind_loop()
        return self

    async def __aexit__(self, *exc):
        await self.close()
        return False

    async def close(self):
        """Stop admitting, wait for every in-flight request, then close all
        sessions, the shared pool and the analysis executor."""
        self._bind_loop()
        self._closed = True
        while self._pending:
            await asyncio.gather(*self._pending.values(),
                                 return_exceptions=True)
        await self._idle.wait()
        for entry in self._cache.values():
            entry.session.close()
        self._cache.clear()
        self._cached_bytes = 0
        await self._loop.run_in_executor(None, self._pool.shutdown)
        self._analysis.shutdown(wait=True)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _admit(self, tenant):
        """Synchronous admission: runs on the loop thread before any await,
        so a rejection can never have enqueued work."""
        if self._closed:
            raise RuntimeError("gateway is closed")
        if self._in_flight >= self.max_in_flight:
            self._rejected_overloaded += 1
            raise GatewayOverloaded(
                f"gateway at max_in_flight={self.max_in_flight}; retry later"
            )
        used = self._tenants.get(tenant, 0)
        if self.tenant_budget is not None and used >= self.tenant_budget:
            self._rejected_tenant += 1
            raise TenantBudgetExceeded(
                f"tenant {tenant!r} at its queue budget "
                f"({self.tenant_budget} in flight)"
            )
        self._tenants[tenant] = used + 1
        self._in_flight += 1
        self._requests += 1
        self._tenant_requests[tenant] = self._tenant_requests.get(tenant, 0) + 1
        self._idle.clear()
        self._sample_counters()

    def _release(self, tenant):
        self._in_flight -= 1
        left = self._tenants.get(tenant, 1) - 1
        if left:
            self._tenants[tenant] = left
        else:
            self._tenants.pop(tenant, None)
        if self._in_flight == 0:
            self._idle.set()
        self._sample_counters()

    def _sample_counters(self):
        if self._tracer is not None:
            t = time.perf_counter() - self._origin
            self._tracer.counter("gateway", "in_flight", t, self._in_flight)
            self._tracer.counter("gateway", "queue_depth", t, self._queued)

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    async def _entry_for(self, fp, matrix, *, count=True):
        """The warm cache entry of ``fp``, running (or awaiting) symbolic
        analysis on a miss.  ``matrix`` may be ``None`` only when the
        pattern is already warm or pending (``submit_values``)."""
        entry = self._cache.get(fp)
        if entry is not None:
            # LRU touch: move to the most-recently-used end
            self._cache[fp] = self._cache.pop(fp)
            if count:
                entry.hits += 1
                self._hits += 1
            return entry
        analysis = self._pending.get(fp)
        if analysis is None:
            if matrix is None:
                raise UnknownPatternError(
                    f"no warm plan for pattern {fp!r}; submit the full matrix "
                    f"once (or register() it) before submitting values"
                )
            # one task owned by the loop: a cancelled requester cancels only
            # its own await; a failure nobody is left to await must not warn
            analysis = self._loop.create_task(self._analyze(fp, matrix))
            analysis.add_done_callback(lambda t: t.cancelled() or t.exception())
            self._pending[fp] = analysis
        if count:
            self._misses += 1
        entry = await asyncio.shield(analysis)
        # evicted before this requester resumed: serve the analyzed plan
        # again rather than a closed session
        entry = self._cache.get(fp) or self._install(fp, entry.plan)
        if count:
            entry.misses += 1
        return entry

    async def _analyze(self, fp, matrix):
        """Analyze ``matrix`` off the loop and install the entry of ``fp``."""
        t0 = time.perf_counter()
        try:
            plan = await self._loop.run_in_executor(self._analysis, lambda: build_plan(
                matrix, ordering=self._ordering, **self._analyze_kwargs))
            return self._install(fp, plan)
        finally:
            del self._pending[fp]
            if self._tracer is not None:
                self._tracer.record("gateway-analysis", f"analyze:{fp[:8]}",
                                    t0 - self._origin,
                                    time.perf_counter() - self._origin)

    def _install(self, fp, plan):
        """Insert a freshly analyzed plan (MRU position), open its session
        on the shared pool, and evict LRU unpinned entries past the
        capacity / byte budget.  Runs on the loop thread with no awaits;
        its callers re-read the cache right before they pin, so no request
        is served by an evicted entry."""
        session = plan.serve(engine=self._engine,
                             threshold=self._threshold, dtype=self._dtype,
                             pool=self._pool,
                             tracer=self._tracer, trace_origin=self._origin)
        # the entry's factors are fp64 unless the gateway serves another dtype
        dtype = np.float64 if self._dtype is None else self._dtype
        entry = _CacheEntry(fp, plan, session, plan_nbytes(
            plan, dtype=dtype, work_arena=session.borrows_work))
        self._cache[fp] = entry
        self._cached_bytes += entry.nbytes
        self._evict(keep=fp)
        return entry

    def _over_budget(self):
        if len(self._cache) > self.capacity:
            return True
        return (self.plan_bytes_budget is not None
                and self._cached_bytes > self.plan_bytes_budget)

    def _evict(self, *, keep=None):
        while self._over_budget():
            victim = None
            for fp, entry in self._cache.items():  # LRU → MRU order
                if fp != keep and entry.pins == 0:
                    victim = fp
                    break
            if victim is None:
                return  # everything else is pinned; stay over budget
            entry = self._cache.pop(victim)
            self._cached_bytes -= entry.nbytes
            self._evictions += 1
            entry.session.close()  # external pool: marks closed, cheap

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, A, b=None, *, tenant="default", timeout=None,
                     dtype=None):
        """Serve one system: factorize ``A`` (and solve for ``b``).

        ``A`` is a same-as-anything :class:`~repro.sparse.csc.SymmetricCSC`
        — its pattern picks (or warms) the cached plan, its values feed the
        numeric stage.  Returns the solution array when ``b`` is given,
        the :class:`~repro.api.Factor` otherwise.  Admission rejections
        (:class:`GatewayOverloaded` / :class:`TenantBudgetExceeded`) and
        numeric failures (non-SPD) fail only this call.

        ``timeout`` (seconds) bounds the *numeric* stage: past it the call
        raises :class:`GatewayTimeout`, cancelling the queued work and
        releasing this request's admission slot, while the session and
        every other request keep running.  A cache-miss symbolic analysis
        is deliberately not under the timeout — it is shared by every
        concurrent same-pattern request, so cancelling it for one caller
        would fail the others.

        ``dtype`` overrides the gateway's default factor precision for
        this request only (``numpy.float32`` / ``numpy.float64``).
        """
        self._bind_loop()
        fp = pattern_fingerprint(A)
        return await self._serve(fp, A, A, b, tenant, timeout, dtype)

    async def submit_values(self, fingerprint, values, b=None, *,
                            tenant="default", timeout=None, dtype=None):
        """Serve one system by pattern fingerprint + values only.

        The fast path for clients on a known-warm pattern: no structure
        arrays are shipped or hashed.  ``values`` is a flat array aligned
        with the pattern host's lower-triangle CSC data (or a full
        same-pattern matrix); raises :class:`UnknownPatternError` if
        ``fingerprint`` has no warm or pending plan.  ``timeout`` and
        ``dtype`` behave exactly as in :meth:`submit`.
        """
        self._bind_loop()
        return await self._serve(fingerprint, None, values, b, tenant,
                                 timeout, dtype)

    async def register(self, A):
        """Warm the plan cache for ``A``'s pattern without factorizing;
        returns the pattern fingerprint for later :meth:`submit_values`
        calls.  Not counted against hit/miss or admission budgets."""
        self._bind_loop()
        if self._closed:
            raise RuntimeError("gateway is closed")
        fp = pattern_fingerprint(A)
        await self._entry_for(fp, A, count=False)
        return fp

    def fingerprint(self, A):
        """The admission key :meth:`submit` would use for ``A``
        (:func:`repro.pattern_fingerprint`)."""
        return pattern_fingerprint(A)

    async def _await_numeric(self, cf, fp, timeout):
        """Await a session future under the gateway's timeout contract,
        counted in :attr:`GatewayStats.queue_depth` until it resolves, times
        out or its client cancels."""
        self._queued += 1
        try:
            if timeout is None:
                return await asyncio.wrap_future(cf)
            try:
                return await asyncio.wait_for(asyncio.wrap_future(cf), timeout)
            except asyncio.TimeoutError:
                # still-queued work is cancelled outright and its task
                # computes nothing; a task already running cannot be
                # cancelled and finishes normally, so the session is never
                # poisoned
                cf.cancel()
                self._timeouts += 1
                raise GatewayTimeout(
                    f"request on pattern {fp[:8]} timed out after {timeout}s"
                ) from None
        finally:
            self._queued -= 1

    @contextlib.asynccontextmanager
    async def _request(self, fp, matrix, tenant, *, update=False):
        """The envelope of every request, whatever its kind: admit, find
        (or analyze) the entry, pin it while the body — the numeric
        submission and its :meth:`_await_numeric` — runs, then account the
        latency, unpin, evict what the pin deferred, release the admission
        slot and record the trace span.  Yields the pinned entry.  An
        ``update`` additionally needs the pattern's base factor and is
        traced as ``upd:`` instead of ``req:``."""
        self._admit(tenant)
        t0 = time.perf_counter()
        try:
            entry = await self._entry_for(fp, matrix)
            if update and entry.latest_factor is None:
                raise NoBaseFactorError(
                    f"pattern {fp[:8]} has no served base factor; submit "
                    "the full matrix (without b) before submitting updates"
                )
            entry.pins += 1
            entry.requests += 1
            try:
                yield entry
            finally:
                entry.pins -= 1
                dt = time.perf_counter() - t0
                entry.latency_sum += dt
                entry.latency_max = max(entry.latency_max, dt)
                self._evict()  # a pin may have deferred a pending eviction
        finally:
            self._release(tenant)
            if self._tracer is not None:
                self._tracer.record(
                    "gateway", f"{'upd' if update else 'req'}:{fp[:8]}",
                    t0 - self._origin, time.perf_counter() - self._origin)

    async def _serve(self, fp, matrix, values, b, tenant, timeout=None,
                     dtype=None):
        async with self._request(fp, matrix, tenant) as entry:
            if b is None:
                cf = entry.session.submit(values, dtype=dtype)
            else:
                cf = entry.session.submit_solve(values, b, dtype=dtype)
            result = await self._await_numeric(cf, fp, timeout)
            if b is None:
                # back on the loop thread: the freshest factor of this
                # pattern becomes the base for submit_update
                entry.latest_factor = result
            return result

    async def submit_update(self, fingerprint, W, b=None, *,
                            tenant="default", downdate=False,
                            policy="update", timeout=None):
        """Serve a rank-k update/downdate of a warm pattern's latest factor.

        Routes by ``fingerprint`` to the cached entry (like
        :meth:`submit_values` — :class:`UnknownPatternError` when the
        pattern has no warm plan) and chains
        :meth:`~repro.api.ServingSession.submit_update` of its most recent
        served factor on the shared pool.  The resolved NEW
        :class:`~repro.api.Factor` becomes the pattern's base for the next
        update, so a stream of ``submit_update`` calls walks an update
        trajectory; with ``b`` the call resolves to the solution of the
        *updated* system instead (the new factor still becomes the base).
        A ``policy="auto"`` or ``"refactorize"`` call whose ``W`` grew the
        pattern answers on a new plan, but that factor is another
        fingerprint's and the base stays where it was.

        Requires a base: a full :meth:`submit` (without ``b``) must have
        served a factor for the pattern first
        (:class:`NoBaseFactorError` otherwise).  Admission control,
        ``timeout`` and failure isolation behave exactly as in
        :meth:`submit`; a failed update (non-SPD downdate, uncontained
        pattern, a NaN or ±Inf entry of ``W`` —
        :class:`~repro.dense.kernels.NonFiniteValuesError`, refused at
        submission) rejects only this call and leaves the base factor
        intact (updates are copy-on-write).  Counted in
        :attr:`GatewayStats.updates`.
        """
        self._bind_loop()
        fp = fingerprint
        async with self._request(fp, None, tenant, update=True) as entry:
            made = []
            cf = entry.session.submit_update(
                entry.latest_factor, W, b=b, downdate=downdate,
                policy=policy, on_factor=made.append)
            result = await self._await_numeric(cf, fp, timeout)
            # a successful await implies the factor stage completed (any
            # chained solve runs after it), so ``made`` holds the factor;
            # back on the loop thread, advance the base within the pattern
            if made[0].plan is entry.plan:
                entry.latest_factor = made[0]
            entry.updates += 1
            self._updates += 1
            return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self):
        """Current counters as an immutable :class:`GatewayStats` snapshot
        (call from the loop thread / between awaits)."""
        per_pattern = {}
        for fp, e in self._cache.items():
            per_pattern[fp] = PatternStats(
                fingerprint=fp,
                n=e.plan.n,
                hits=e.hits,
                misses=e.misses,
                requests=e.requests,
                in_flight=e.pins,
                updates=e.updates,
                nbytes=e.nbytes,
                avg_latency_s=(e.latency_sum / e.requests
                               if e.requests else 0.0),
                max_latency_s=e.latency_max,
            )
        return GatewayStats(
            requests=self._requests,
            hits=self._hits,
            misses=self._misses,
            rejected_overloaded=self._rejected_overloaded,
            rejected_tenant=self._rejected_tenant,
            timeouts=self._timeouts,
            updates=self._updates,
            evictions=self._evictions,
            in_flight=self._in_flight,
            queue_depth=self._queued,
            cached_plans=len(self._cache),
            cached_bytes=self._cached_bytes,
            per_pattern=per_pattern,
            per_tenant=dict(self._tenant_requests),
        )

    def __repr__(self):  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (f"Gateway(plans={len(self._cache)}/{self.capacity}, "
                f"in_flight={self._in_flight}/{self.max_in_flight}, "
                f"{state})")
