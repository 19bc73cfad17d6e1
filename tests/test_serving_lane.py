"""One lane per served request.

A :class:`repro.api.ServingSession` runs every submission — factorize, and
for a solve the serial sweeps and refinement steps right after it — as ONE
task on its pool; a threads row (``rl_par`` / ``rlb_par``) runs its serial
twin there.  This module pins what that promises:

* the served ≡ direct contract on that lane: every answer, through the
  session and through the :class:`~repro.serving.Gateway`, is
  ``plan.factorize(engine=serial_twin(row))`` followed by ``.solve`` /
  ``.solve_refined`` / ``.update``, bit for bit, in fp64 and fp32;
* a session builds no task graph: no task ranges (so no DAG plan and no
  solve schedule) in a fresh plan's symbolic cache, and worker threads never
  write that cache;
* a cancelled or timed-out request computes nothing, and a storm of client
  cancellations leaves the gateway's counters, pins and bits whole;
* a cancelled client cancels only its own request: not the analysis other
  clients of a cold pattern wait on, and a failed downdate not the update
  racing it.
"""

import asyncio
import threading

import numpy as np
import pytest

import repro
import repro.serving.gateway as gateway_module
from repro.numeric.executor import StreamPool
from repro.numeric.registry import serial_twin
from repro.numeric.storage import FactorStorage
from repro.serving import Gateway, GatewayTimeout
from repro.sparse import SymmetricCSC, grid_laplacian
from repro.update import structured_update

THREADS_ROWS = ("rl_par", "rlb_par")
DTYPES = (np.float64, np.float32)


@pytest.fixture(scope="module")
def matrix():
    return grid_laplacian((9, 8, 3))


@pytest.fixture(scope="module")
def plan(matrix):
    return repro.plan(matrix)


def _values(A, k):
    v = A.data * (1.0 + 0.01 * k)
    v[A.indptr[:-1]] += 0.5
    return v


def _with(A, values):
    return SymmetricCSC(A.n, A.indptr, A.indices, values, check=False)


@pytest.fixture
def factorizations(monkeypatch):
    """Every numeric factorization started while the test runs (each one
    scatters its values into a new storage first)."""
    started = []
    real = FactorStorage.from_matrix.__func__

    def counted(cls, symb, A, **kw):
        started.append(threading.current_thread().name)
        return real(cls, symb, A, **kw)

    monkeypatch.setattr(FactorStorage, "from_matrix", classmethod(counted))
    return started


def _blocked(pool):
    """Occupy one worker of ``pool`` until the returned event is set."""
    gate = threading.Event()
    pool.submit_graph(1, (0,), lambda tid: (gate.wait(60), ())[1],
                      on_complete=lambda: None, on_error=lambda exc: None)
    return gate


# ---------------------------------------------------------------------------
# served ≡ direct on the one-task lane
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
@pytest.mark.parametrize("name", THREADS_ROWS)
def test_session_answers_are_the_serial_twins(plan, name, dtype):
    A, twin = plan.matrix, serial_twin(name)
    b = np.cos(np.arange(plan.n))
    values = _values(A, 1)
    W = structured_update(plan.symb, plan.perm, [3, 11], seed=2)
    direct = plan.factorize(values, engine=twin, dtype=dtype)
    with plan.serve(engine=name, workers=2, dtype=dtype) as session:
        factor = session.submit(values).result(timeout=60)
        x = session.submit_solve(values, b).result(timeout=60)
        xr = session.submit_solve(values, b, refine=True, tol=1e-13).result(timeout=60)
        xu = session.submit_update(factor, W, b=b).result(timeout=60)
        fu = session.submit_update(factor, W).result(timeout=60)
    assert factor.engine == twin and factor.dtype == dtype
    assert np.array_equal(factor.storage.arena, direct.storage.arena)
    assert np.array_equal(x, direct.solve(b))
    want = direct.solve_refined(b, tol=1e-13, stall_ratio=None, fallback=False)
    assert np.array_equal(xr, want)
    updated = direct.update(W)
    assert np.array_equal(xu, updated.solve(b))
    for p, q in zip(fu.storage.panels, updated.storage.panels, strict=True):
        assert np.array_equal(p, q)


@pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
@pytest.mark.parametrize("name", THREADS_ROWS)
def test_gateway_answers_are_the_serial_twins(matrix, name, dtype):
    plan = repro.plan(matrix)
    twin = serial_twin(name)
    b = np.sin(np.arange(matrix.n) + 1.0)
    values = _values(matrix, 2)
    W = structured_update(plan.symb, plan.perm, [5], seed=4)
    direct = plan.factorize(values, engine=twin, dtype=dtype)

    async def go():
        async with Gateway(engine=name, workers=2, dtype=dtype) as gw:
            factor = await gw.submit(_with(matrix, values))
            fp = gw.fingerprint(matrix)
            x = await gw.submit(_with(matrix, values), b)
            xu = await gw.submit_update(fp, W, b)
            return factor, x, xu

    factor, x, xu = asyncio.run(go())
    assert factor.engine == twin
    assert np.array_equal(factor.storage.arena, direct.storage.arena)
    assert np.array_equal(x, direct.solve(b))
    assert np.array_equal(xu, direct.update(W).solve(b))


@pytest.mark.parametrize("name", THREADS_ROWS)
def test_a_session_builds_no_task_graph(matrix, name):
    """A fresh plan served on a threads row never cuts task ranges: no DAG
    plan, no level schedule — and its workers only read the cache."""
    plan = repro.plan(matrix)
    writes = []

    class Recording(dict):
        def __setitem__(self, key, value):
            writes.append((threading.current_thread().name, key))
            super().__setitem__(key, value)

    plan.symb._cache = Recording(plan.symb.cache())
    b = np.ones(plan.n)
    with plan.serve(engine=name, workers=2) as session:
        factor = session.submit().result(timeout=60)
        session.submit_solve(None, b, refine=True).result(timeout=60)
        session.submit_solve(None, b, dtype=np.float32, refine=True).result(timeout=60)
        session.submit_update(factor, np.eye(plan.n)[:, 0], b=b).result(timeout=60)
    cache = plan.symb.cache()
    assert "task_ranges" not in cache and "trivial_ranges" not in cache
    assert "solve_structure" not in cache
    assert {key for thread, key in writes if thread.startswith("repro-serve")} == set()


# ---------------------------------------------------------------------------
# cancellation: a request nobody waits for computes nothing
# ---------------------------------------------------------------------------
def test_cancelled_submissions_do_not_compute(plan, factorizations):
    """Twelve submissions behind a busy worker, eleven cancelled before
    they run: exactly one factorization happens."""
    with StreamPool(1) as pool:
        gate = _blocked(pool)
        session = plan.serve(engine="rl", pool=pool)
        futures = [session.submit(_values(plan.matrix, k)) for k in range(12)]
        assert all(f.cancel() for f in futures[1:])
        gate.set()
        factor = futures[0].result(timeout=60)
    assert len(factorizations) == 1
    assert all(f.cancelled() for f in futures[1:])
    direct = plan.factorize(_values(plan.matrix, 0), engine="rl")
    assert np.array_equal(factor.storage.arena, direct.storage.arena)


def test_an_update_chained_on_a_cancelled_factor_is_cancelled(plan, factorizations):
    W = structured_update(plan.symb, plan.perm, [3], seed=1)
    with StreamPool(1) as pool:
        gate = _blocked(pool)
        session = plan.serve(engine="rlb_par", pool=pool)
        parent = session.submit()
        child = session.submit_update(parent, W)
        assert parent.cancel()
        gate.set()
    assert child.cancelled() and factorizations == []


def test_queued_requests_that_time_out_do_not_compute(matrix, factorizations):
    """On a one-worker gateway, N requests time out while queued behind a
    busy worker: N timeouts counted, none of them factorized, and the next
    answer is the direct serial twin's."""
    N = 5
    b = np.ones(matrix.n)
    values = [_values(matrix, k) for k in range(N + 1)]

    async def go():
        async with Gateway(workers=1) as gw:
            fp = await gw.register(matrix)
            gate = _blocked(gw.pool)
            outcomes = await asyncio.gather(
                *(gw.submit_values(fp, v, b, timeout=0.05) for v in values[:N]),
                return_exceptions=True)
            timed_out = list(factorizations)
            gate.set()
            return outcomes, timed_out, await gw.submit_values(fp, values[N], b), gw.stats()

    outcomes, timed_out, x, stats = asyncio.run(go())
    assert all(isinstance(o, GatewayTimeout) for o in outcomes)
    assert stats.timeouts == N and stats.in_flight == 0
    assert timed_out == [] and len(factorizations) == 1
    direct = repro.plan(matrix).factorize(values[N], engine=serial_twin("rlb_par"))
    assert np.array_equal(x, direct.solve(b))


def test_a_client_cancellation_storm_leaves_the_gateway_whole(matrix, factorizations):
    """Clients cancel their asyncio tasks while they await ``submit`` and
    ``submit_update`` on a warm pattern: nothing stays in flight, no tenant
    stays counted, no entry stays pinned, no cancelled request computes, and
    the next answer is the direct serial twin's, bit for bit."""
    tenants = ("acme", "beta", "gamma")
    b = np.ones(matrix.n)
    plan = repro.plan(matrix)
    W = structured_update(plan.symb, plan.perm, [3, 11], seed=2)
    base, fresh = _values(matrix, 0), _values(matrix, 7)

    async def go():
        async with Gateway(workers=1, tenant_budget=4) as gw:
            fp = gw.fingerprint(matrix)
            await gw.submit(_with(matrix, base))  # the update base
            served = len(factorizations)
            gate = _blocked(gw.pool)
            storm = [asyncio.ensure_future(call)
                     for t in tenants
                     for call in (gw.submit(_with(matrix, fresh), b, tenant=t),
                                  gw.submit_values(fp, fresh, tenant=t),
                                  gw.submit_update(fp, W, b, tenant=t),
                                  gw.submit_update(fp, W, tenant=t))]
            for _ in range(3):
                await asyncio.sleep(0)  # every request reaches its await
            assert gw.stats().in_flight == len(storm)
            for task in storm:
                task.cancel()
            outcomes = await asyncio.gather(*storm, return_exceptions=True)
            gate.set()
            calm, counted = gw.stats(), dict(gw._tenants)
            computed = len(factorizations) - served
            x = await gw.submit(_with(matrix, fresh), b, tenant=tenants[0])
            xu = await gw.submit_update(fp, W, b, tenant=tenants[1])
            return outcomes, calm, computed, counted, x, xu, gw.stats()

    outcomes, calm, computed, counted, x, xu, stats = asyncio.run(go())
    assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)
    assert calm.in_flight == 0 and counted == {}
    assert all(p.in_flight == 0 for p in calm.per_pattern.values())
    assert computed == 0 and calm.updates == 0
    assert stats.in_flight == 0 and stats.timeouts == 0
    direct = plan.factorize(fresh, engine=serial_twin("rlb_par"))
    assert np.array_equal(x, direct.solve(b))
    want = plan.factorize(base, engine=serial_twin("rlb_par")).update(W).solve(b)
    assert np.array_equal(xu, want)


def test_cancelling_the_client_that_started_an_analysis_fails_no_one_else(monkeypatch):
    """The first client of a cold pattern is cancelled while its analysis
    runs: only its own ``await`` is cancelled.  The analysis finishes once,
    the entry is installed, and the second client, waiting on the same
    analysis, gets the direct serial twin's answer, bit for bit."""
    A = grid_laplacian((40, 40))
    b = np.ones(A.n)
    values = _values(A, 3)
    gate, built = threading.Event(), []
    real = gateway_module.build_plan

    def held(matrix, **kw):
        built.append(threading.current_thread().name)
        gate.wait(60)
        return real(matrix, **kw)

    monkeypatch.setattr(gateway_module, "build_plan", held)

    async def go():
        async with Gateway(workers=1) as gw:
            first = asyncio.ensure_future(gw.submit(_with(A, values), b))
            for _ in range(3):
                await asyncio.sleep(0)  # the first client's miss starts the analysis
            second = asyncio.ensure_future(gw.submit(_with(A, values), b))
            for _ in range(3):
                await asyncio.sleep(0)  # the second client joins it
            first.cancel()
            await asyncio.sleep(0)
            gate.set()
            x = await second
            cold = gw.stats()
            await gw.submit(_with(A, values), b)
            return first, x, cold, gw.stats()

    first, x, cold, warm = asyncio.run(go())
    assert first.cancelled() and len(built) == 1
    assert cold.misses == 2 and cold.cached_plans == 1 and cold.in_flight == 0
    assert warm.hits == 1 and warm.misses == 2
    direct = repro.plan(A).factorize(values, engine=serial_twin("rlb_par"))
    assert np.array_equal(x, direct.solve(b))


def test_an_entry_evicted_before_its_requester_resumes_is_installed_again(monkeypatch):
    """The analysis task installs the entry, but a competing install evicts
    it before the requester resumes: the requester installs the analyzed
    plan again instead of submitting to the evicted entry's closed session,
    and its answer is the direct serial twin's."""
    A, other = grid_laplacian((12, 12)), grid_laplacian((9, 9))
    b = np.ones(A.n)
    values = _values(A, 1)
    real, installs = Gateway._install, []

    def install_then_evict(gw, fp, plan):
        entry = real(gw, fp, plan)
        installs.append(fp)
        if len(installs) == 1:  # the first install: another pattern takes the slot
            real(gw, gw.fingerprint(other), repro.plan(other))
        return entry

    monkeypatch.setattr(Gateway, "_install", install_then_evict)

    async def go():
        async with Gateway(workers=1, capacity=1) as gw:
            x = await gw.submit(_with(A, values), b)
            return x, gw.stats(), gw.fingerprint(A)

    x, stats, fp = asyncio.run(go())
    assert installs == [fp, fp] and stats.evictions == 2
    assert list(stats.per_pattern) == [fp]
    direct = repro.plan(A).factorize(values, engine=serial_twin("rlb_par"))
    assert np.array_equal(x, direct.solve(b))

def test_an_indefinite_downdate_racing_an_update_keeps_the_base(matrix):
    """``submit_update`` and a downdate that makes the matrix indefinite,
    sent concurrently on one pattern: the downdate raises
    ``NotPositiveDefiniteError``, the update succeeds, and the next update
    continues from the successful update's factor."""
    b = np.ones(matrix.n)
    plan = repro.plan(matrix)
    W = structured_update(plan.symb, plan.perm, [3, 11], seed=2)
    W2 = structured_update(plan.symb, plan.perm, [5, 17], seed=4)
    base = _values(matrix, 0)

    async def go():
        async with Gateway(workers=1) as gw:
            fp = gw.fingerprint(matrix)
            await gw.submit(_with(matrix, base))  # the update base
            gate = _blocked(gw.pool)
            race = [asyncio.ensure_future(gw.submit_update(fp, W, b)),
                    asyncio.ensure_future(gw.submit_update(fp, 100.0 * W, b, downdate=True))]
            for _ in range(3):
                await asyncio.sleep(0)  # both are queued on the same base
            gate.set()
            outcomes = await asyncio.gather(*race, return_exceptions=True)
            return outcomes, await gw.submit_update(fp, W2, b), gw.stats()

    (x, failed), x_next, stats = asyncio.run(go())
    assert isinstance(failed, repro.NotPositiveDefiniteError)
    updated = plan.factorize(base, engine=serial_twin("rlb_par")).update(W)
    assert np.array_equal(x, updated.solve(b))
    assert np.array_equal(x_next, updated.update(W2).solve(b))
    assert stats.updates == 2 and stats.in_flight == 0
