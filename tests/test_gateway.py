"""Multi-tenant serving gateway tests (:mod:`repro.serving`).

Covers the gateway's contracts end to end: pattern fingerprints as cache
keys, hit/miss accounting, bit-identity of every gateway-returned
solution against the direct ``plan → factorize → solve`` path (including
under many concurrent tenants on a multi-worker pool and on the gpu
backend), LRU + byte-budget eviction with in-flight pinning, per-tenant
admission budgets and the global in-flight cap (typed rejections that
fail only the offending request), non-SPD failure isolation through the
shared per-pattern session, ``submit_values``/``register`` fast paths,
tracer request/analysis spans and counter tracks, the unified
``plan.serve(backend=...)`` kwargs with the legacy-facade deprecation, and
engine options refused when the gateway is built.
"""

import asyncio
import warnings

import numpy as np
import pytest

import repro
from repro.dense.kernels import NotPositiveDefiniteError
from repro.numeric.registry import resolve, serial_twin
from repro.serving import (
    Gateway,
    GatewayOverloaded,
    GatewayStats,
    GatewayTimeout,
    TenantBudgetExceeded,
    UnknownPatternError,
    plan_nbytes,
)
from repro.sparse import SymmetricCSC, grid_laplacian
from repro.sparse.permute import random_permutation, symmetric_permute


@pytest.fixture(scope="module")
def base_matrix():
    return grid_laplacian((6, 5, 3))


@pytest.fixture(scope="module")
def patterns(base_matrix):
    """Three structurally distinct same-size patterns (base + two random
    symmetric permutations)."""
    rng = np.random.default_rng(3)
    A = base_matrix
    return [A] + [symmetric_permute(A, random_permutation(A.n, rng))
                  for _ in range(2)]


def sweep(P, k, seed=0):
    """k same-pattern SPD value sets for pattern P."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        d = P.data * (1.0 + 0.02 * rng.random(P.data.size))
        d[P.indptr[:-1]] += 0.5
        out.append(d)
    return out


def with_values(P, values):
    return SymmetricCSC(P.n, P.indptr, P.indices, values, check=False)


def direct_solution(P, values, b, engine="rlb_par"):
    """The oracle: plan → factorize on the serial twin → solve."""
    return repro.plan(P).factorize(values,
                                   engine=serial_twin(engine)).solve(b)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------
def test_pattern_fingerprint_is_value_independent(base_matrix):
    A = base_matrix
    fp = repro.pattern_fingerprint(A)
    B = with_values(A, A.data * 3.0)
    assert repro.pattern_fingerprint(B) == fp
    assert isinstance(fp, str) and len(fp) == 16


def test_pattern_fingerprint_distinguishes_patterns(patterns):
    fps = {repro.pattern_fingerprint(P) for P in patterns}
    assert len(fps) == len(patterns)


def test_plan_fingerprint_stable_and_ordering_sensitive(base_matrix):
    p1 = repro.plan(base_matrix)
    p2 = repro.plan(base_matrix)
    assert p1.fingerprint == p2.fingerprint
    p3 = repro.plan(base_matrix, ordering="natural")
    assert p3.fingerprint != p1.fingerprint  # permuted pattern differs


# ---------------------------------------------------------------------------
# hit/miss accounting + bit-identity
# ---------------------------------------------------------------------------
def test_gateway_hits_misses_and_bit_identity(patterns):
    b = np.ones(patterns[0].n)
    values = {m: sweep(P, 3, seed=m) for m, P in enumerate(patterns)}

    async def go():
        async with Gateway(workers=2) as gw:
            xs = {}
            for m, P in enumerate(patterns[:2]):
                for k, v in enumerate(values[m]):
                    xs[m, k] = await gw.submit(with_values(P, v), b)
            return xs, gw.stats()

    xs, stats = run(go())
    for (m, k), x in xs.items():
        ref = direct_solution(patterns[m], values[m][k], b)
        assert np.array_equal(x, ref)
    assert isinstance(stats, GatewayStats)
    assert stats.requests == 6
    assert stats.misses == 2  # one analysis per distinct pattern
    assert stats.hits == 4
    assert stats.hit_rate == pytest.approx(4 / 6)
    assert stats.cached_plans == 2
    assert stats.in_flight == 0
    assert stats.evictions == 0
    per = list(stats.per_pattern.values())
    assert sum(p.requests for p in per) == 6
    assert all(p.nbytes > 0 for p in per)


def test_gateway_concurrent_tenants_bit_identical(patterns):
    """Many tenants, many in-flight requests, several worker threads: every
    solution still bit-identical to the serial direct path."""
    b = np.ones(patterns[0].n)
    values = {m: sweep(P, 4, seed=10 + m) for m, P in enumerate(patterns)}
    jobs = [(m, k) for m in range(len(patterns)) for k in range(4)]

    async def go():
        async with Gateway(workers=4) as gw:
            async def one(t, m, k):
                M = with_values(patterns[m], values[m][k])
                return await gw.submit(M, b, tenant=f"t{t}")

            return await asyncio.gather(
                *[one(t, m, k) for t, (m, k) in enumerate(jobs)])

    xs = run(go())
    for (m, k), x in zip(jobs, xs):
        assert np.array_equal(x, direct_solution(patterns[m],
                                                 values[m][k], b))


def test_gateway_gpu_backend_matches_direct(base_matrix):
    b = np.ones(base_matrix.n)
    v = sweep(base_matrix, 1)[0]

    async def go():
        async with Gateway(backend="gpu") as gw:
            return await gw.submit(with_values(base_matrix, v), b)

    x = run(go())
    ref = direct_solution(base_matrix, v, b, engine="rlb_gpu_v2")
    assert np.array_equal(x, ref)


def test_gateway_factor_result_without_rhs(base_matrix):
    v = sweep(base_matrix, 1)[0]

    async def go():
        async with Gateway() as gw:
            return await gw.submit(with_values(base_matrix, v))

    factor = run(go())
    ref = repro.plan(base_matrix).factorize(v, engine="rlb")
    assert all(np.array_equal(p, q) for p, q in
               zip(factor.storage.panels, ref.storage.panels))


# ---------------------------------------------------------------------------
# LRU cache: eviction, pinning, byte budget
# ---------------------------------------------------------------------------
def test_lru_eviction_at_capacity(patterns):
    b = np.ones(patterns[0].n)

    async def go():
        async with Gateway(capacity=2, workers=1) as gw:
            for P in patterns:  # 3 patterns through a 2-entry cache
                await gw.submit(with_values(P, sweep(P, 1)[0]), b)
            stats = gw.stats()
            # LRU: the first pattern was evicted, the last two are warm
            warm = set(stats.per_pattern)
            return stats, warm

    stats, warm = run(go())
    assert stats.evictions == 1
    assert stats.cached_plans == 2
    assert repro.pattern_fingerprint(patterns[0]) not in warm
    assert repro.pattern_fingerprint(patterns[2]) in warm


def test_pinned_entries_survive_eviction(patterns):
    """An entry with in-flight work is never evicted; the eviction happens
    once the pin drops."""

    async def go():
        async with Gateway(capacity=1, workers=1) as gw:
            fp0 = await gw.register(patterns[0])
            entry0 = gw._cache[fp0]
            entry0.pins += 1  # simulate an in-flight request
            fp1 = await gw.register(patterns[1])
            # over capacity, but the pinned entry must survive
            assert set(gw._cache) == {fp0, fp1}
            over_budget_evictions = gw.stats().evictions
            entry0.pins -= 1
            gw._evict()
            return over_budget_evictions, set(gw._cache), gw.stats()

    before, after, stats = run(go())
    assert before == 0
    assert after == {repro.pattern_fingerprint(patterns[1])}
    assert stats.evictions == 1


def test_byte_budget_eviction(patterns):
    b = np.ones(patterns[0].n)
    nbytes = plan_nbytes(repro.plan(patterns[0]))

    async def go():
        # budget fits one plan (patterns are same-size permutations)
        async with Gateway(capacity=8, plan_bytes_budget=int(nbytes * 1.5),
                           workers=1) as gw:
            for P in patterns[:2]:
                await gw.submit(with_values(P, sweep(P, 1)[0]), b)
            return gw.stats()

    stats = run(go())
    assert stats.cached_plans == 1
    assert stats.evictions == 1
    assert stats.cached_bytes <= int(nbytes * 1.5)


# ---------------------------------------------------------------------------
# admission control: typed rejections fail only the offending request
# ---------------------------------------------------------------------------
def test_tenant_budget_rejection_isolated(base_matrix):
    b = np.ones(base_matrix.n)
    v = sweep(base_matrix, 2)

    async def go():
        async with Gateway(tenant_budget=1, workers=1) as gw:
            first = asyncio.ensure_future(
                gw.submit(with_values(base_matrix, v[0]), b, tenant="acme"))
            await asyncio.sleep(0)  # let the first request pass admission
            with pytest.raises(TenantBudgetExceeded):
                await gw.submit(with_values(base_matrix, v[1]), b,
                                tenant="acme")
            # another tenant is untouched by acme's budget
            other = await gw.submit(with_values(base_matrix, v[1]), b,
                                    tenant="other")
            return await first, other, gw.stats()

    x_first, x_other, stats = run(go())
    assert np.array_equal(x_first, direct_solution(base_matrix, v[0], b))
    assert np.array_equal(x_other, direct_solution(base_matrix, v[1], b))
    assert stats.rejected_tenant == 1
    assert stats.rejected_overloaded == 0
    assert stats.per_tenant == {"acme": 1, "other": 1}


def test_global_overload_rejection_isolated(base_matrix):
    b = np.ones(base_matrix.n)
    v = sweep(base_matrix, 2)

    async def go():
        async with Gateway(max_in_flight=1, workers=1) as gw:
            first = asyncio.ensure_future(
                gw.submit(with_values(base_matrix, v[0]), b))
            await asyncio.sleep(0)
            with pytest.raises(GatewayOverloaded):
                await gw.submit(with_values(base_matrix, v[1]), b)
            x = await first
            # capacity freed: the retry is admitted
            y = await gw.submit(with_values(base_matrix, v[1]), b)
            return x, y, gw.stats()

    x, y, stats = run(go())
    assert np.array_equal(x, direct_solution(base_matrix, v[0], b))
    assert np.array_equal(y, direct_solution(base_matrix, v[1], b))
    assert stats.rejected_overloaded == 1
    assert stats.in_flight == 0


def test_non_spd_fails_only_its_own_request(base_matrix):
    """A non-SPD submission raises on its own await; the shared session
    and gateway keep serving the same pattern afterwards."""
    b = np.ones(base_matrix.n)
    good = sweep(base_matrix, 2)
    poisoned = base_matrix.data.copy()
    poisoned[base_matrix.indptr[:-1]] = -1.0

    async def go():
        async with Gateway(workers=2) as gw:
            x0 = await gw.submit(with_values(base_matrix, good[0]), b)
            with pytest.raises(NotPositiveDefiniteError):
                await gw.submit(with_values(base_matrix, poisoned), b)
            x1 = await gw.submit(with_values(base_matrix, good[1]), b)
            return x0, x1, gw.stats()

    x0, x1, stats = run(go())
    assert np.array_equal(x0, direct_solution(base_matrix, good[0], b))
    assert np.array_equal(x1, direct_solution(base_matrix, good[1], b))
    assert stats.in_flight == 0  # the failed request was released


# ---------------------------------------------------------------------------
# request timeouts
# ---------------------------------------------------------------------------
def test_timeout_fails_only_its_own_request(base_matrix):
    """A timed-out submit raises :class:`GatewayTimeout`, releases its
    admission slot, bumps the stats counter — and the shared session keeps
    serving the same pattern bit-identically afterwards."""
    b = np.ones(base_matrix.n)
    v = sweep(base_matrix, 2)

    async def go():
        async with Gateway(workers=1) as gw:
            await gw.register(base_matrix)  # analysis outside the timeout
            # timeout=0 expires before the queued numeric work can start
            with pytest.raises(GatewayTimeout):
                await gw.submit(with_values(base_matrix, v[0]), b,
                                timeout=0.0)
            x = await gw.submit(with_values(base_matrix, v[1]), b)
            return x, gw.stats()

    x, stats = run(go())
    assert issubclass(GatewayTimeout, TimeoutError)
    assert np.array_equal(x, direct_solution(base_matrix, v[1], b))
    assert stats.timeouts == 1
    assert stats.in_flight == 0  # the timed-out slot was released


def test_generous_timeout_serves_normally(base_matrix):
    b = np.ones(base_matrix.n)
    v = sweep(base_matrix, 1)[0]

    async def go():
        async with Gateway(workers=1) as gw:
            fp = await gw.register(base_matrix)
            x = await gw.submit(with_values(base_matrix, v), b, timeout=60.0)
            y = await gw.submit_values(fp, v, b, timeout=60.0)
            return x, y, gw.stats()

    x, y, stats = run(go())
    ref = direct_solution(base_matrix, v, b)
    assert np.array_equal(x, ref)
    assert np.array_equal(y, ref)
    assert stats.timeouts == 0


# ---------------------------------------------------------------------------
# submit_values / register fast paths
# ---------------------------------------------------------------------------
def test_submit_values_requires_warm_pattern(base_matrix):
    async def go():
        async with Gateway() as gw:
            fp = gw.fingerprint(base_matrix)
            with pytest.raises(UnknownPatternError):
                await gw.submit_values(fp, base_matrix.data,
                                       np.ones(base_matrix.n))

    run(go())


def test_register_then_submit_values_bit_identical(base_matrix):
    b = np.ones(base_matrix.n)
    v = sweep(base_matrix, 1)[0]

    async def go():
        async with Gateway() as gw:
            fp = await gw.register(base_matrix)
            assert fp == repro.pattern_fingerprint(base_matrix)
            x = await gw.submit_values(fp, v, b)
            return x, gw.stats()

    x, stats = run(go())
    assert np.array_equal(x, direct_solution(base_matrix, v, b))
    # register() warms the cache without counting a miss; the values
    # submission is then a pure hit
    assert (stats.hits, stats.misses) == (1, 0)


def test_register_twice_keeps_one_plan(base_matrix):
    async def go():
        async with Gateway() as gw:
            fps = [await gw.register(base_matrix) for _ in range(2)]
            return fps, gw.stats()

    fps, stats = run(go())
    assert fps[0] == fps[1]
    assert (stats.cached_plans, stats.requests) == (1, 0)


def test_new_gateway_serves_values_after_one_submit(base_matrix):
    """The plan cache lives in memory: a restarted gateway knows no
    fingerprint until the pattern is submitted once."""
    b = np.ones(base_matrix.n)
    v = sweep(base_matrix, 1, seed=4)[0]

    async def go():
        async with Gateway() as gw:
            fp = await gw.register(base_matrix)
        async with Gateway() as gw:
            with pytest.raises(UnknownPatternError):
                await gw.submit_values(fp, v, b)
            await gw.submit(base_matrix, b)
            x = await gw.submit_values(fp, v, b)
            return x, gw.stats()

    x, stats = run(go())
    assert np.array_equal(x, direct_solution(base_matrix, v, b))
    assert (stats.hits, stats.misses) == (1, 1)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
def test_gateway_tracer_spans_and_counters(base_matrix):
    from repro.gpu import Tracer

    b = np.ones(base_matrix.n)
    v = sweep(base_matrix, 2)
    tracer = Tracer()

    async def go():
        async with Gateway(workers=1, tracer=tracer) as gw:
            for d in v:
                await gw.submit(with_values(base_matrix, d), b)

    run(go())
    fp8 = repro.pattern_fingerprint(base_matrix)[:8]
    gateway_events = tracer.by_lane("gateway")
    assert sum(1 for e in gateway_events if e.name == f"req:{fp8}") == 2
    analysis = tracer.by_lane("gateway-analysis")
    assert [e.name for e in analysis] == [f"analyze:{fp8}"]
    in_flight = tracer.counter_samples("gateway", "in_flight")
    assert in_flight and max(val for _, val in in_flight) >= 1
    assert in_flight[-1][1] == 0  # all released at close
    assert any(rec.get("ph") == "C" for rec in tracer.chrome_trace())


# ---------------------------------------------------------------------------
# unified plan.serve kwargs
# ---------------------------------------------------------------------------
def test_serve_backend_kwargs_match_factorize_validation(base_matrix):
    plan = repro.plan(base_matrix)
    with pytest.raises(ValueError, match="workers= is not accepted by engine 'rlb'"):
        plan.serve(engine="rlb", workers=2)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        plan.serve(workers=0)
    with pytest.raises(ValueError, match="backend"):
        plan.serve(backend="nope")
    # the gpu substrate opens fine and serves bit-identically
    with plan.serve(backend="gpu") as session:
        f = session.submit(base_matrix.data).result()
    ref = plan.factorize(engine="rlb_gpu_v2")
    assert all(np.array_equal(p, q) for p, q in
               zip(f.storage.panels, ref.result.storage.panels))


@pytest.mark.parametrize("kwargs", [
    {"engine": "nope"}, {"engine": "rl", "threshold": 1},
    {"backend": "nope"},
], ids=["unknown-engine", "rl-threshold", "unknown-backend"])
def test_bad_engine_fails_at_construction(kwargs):
    """A gateway's engine options are resolved once, when it is built: the
    registry's ``ValueError`` is raised there, not on every request after
    that request paid for its ordering and symbolic analysis."""
    request = {"engine": "rlb_par", "backend": None, **kwargs}
    with pytest.raises(ValueError) as want:
        resolve(request.pop("engine"), request.pop("backend"), **request)
    with pytest.raises(ValueError) as got:
        Gateway(**kwargs)
    assert str(got.value) == str(want.value)


def test_plan_api_emits_no_deprecation_warning(base_matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        repro.plan(base_matrix).factorize(engine="rl")
