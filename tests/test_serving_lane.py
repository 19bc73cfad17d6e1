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
  racing it;
* a solve request factors in one of the plan's work storages: a second
  request cuts no view, concurrent requests never share one, a failed one
  leaves nothing stale, each dtype has its own.
"""

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.serving.gateway as gateway_module
from repro.numeric.registry import serial_twin
from repro.numeric._native import rl_loop
from repro.solve.triangular import serial_body
from repro.numeric.storage import FactorStorage
from repro.serving import Gateway, GatewayTimeout
from repro.sparse import SymmetricCSC, grid_laplacian
from repro.update import structured_update
from tests.conftest import spd_from_pattern

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
    scatters its values into a storage first, a new one or a plan's work
    storage: :meth:`FactorStorage.refill`)."""
    started = []
    real = FactorStorage.refill

    def counted(self, A, **kw):
        started.append(threading.current_thread().name)
        return real(self, A, **kw)

    monkeypatch.setattr(FactorStorage, "refill", counted)
    return started


def _blocked(pool):
    """Occupy one worker of ``pool`` until the returned event is set."""
    gate = threading.Event()
    pool.submit(gate.wait, 60)
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
    with ThreadPoolExecutor(1) as pool:
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
    with ThreadPoolExecutor(1) as pool:
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


# ---------------------------------------------------------------------------
# work storages: a solve request borrows one of its plan's
# ---------------------------------------------------------------------------
def _direct(plan, values, b, dtype=np.float64, refine=False, engine="rl"):
    factor = plan.factorize(values, engine=engine, dtype=dtype)
    if refine:
        return factor.solve_refined(b, tol=1e-13, stall_ratio=None, fallback=False)
    return factor.solve(b)


def _pool(plan, dtype=np.float64):
    return plan._work.get(np.dtype(dtype), ())


class TestWorkStorage:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["fp64", "fp32"])
    @pytest.mark.parametrize("name", ["rl", "rlb", *THREADS_ROWS])
    def test_a_second_request_cuts_no_view(self, matrix, name, dtype, monkeypatch):
        """The session builds the plan's first work storage and cuts no
        view; after it, no solve request cuts a panel view or builds a
        program but the Python bodies, once, in the first request that runs
        one: the factor program where no compiler built the loop, the solve
        program where the solve walks in Python (no compiler, or an fp32
        factor under a plain solve's float64 buffer)."""
        plan = repro.plan(matrix)
        cuts = []
        panels = FactorStorage.panels.fget

        def spy_panels(storage):
            if storage._panels is None:
                cuts.append("panels")
            return panels(storage)

        monkeypatch.setattr(FactorStorage, "panels", property(spy_panels))
        for builder in ("factor_program", "solve_program"):
            real = getattr(FactorStorage, builder)

            def spy(storage, real=real, builder=builder):
                if getattr(storage, f"_{builder}") is None:
                    cuts.append(builder)
                return real(storage)

            monkeypatch.setattr(FactorStorage, builder, spy)
        b = np.ones(plan.n)
        with plan.serve(engine=name, dtype=dtype) as session:
            assert cuts == []
            xs = [session.submit_solve(_values(matrix, k), b, refine=k == 1).result(timeout=60)
                  for k in range(3)]
        (storage,) = _pool(plan, dtype)
        want = [] if rl_loop() else ["factor_program"]
        want += ["solve_program"] if serial_body(storage) == "python" else []
        assert sorted(cuts) == sorted(want + (["panels"] if want else []))
        assert len(_pool(plan, dtype)) == 1
        for k, x in enumerate(xs):
            want = _direct(plan, _values(matrix, k), b, dtype, k == 1, serial_twin(name))
            assert np.array_equal(x, want)

    def test_concurrent_requests_never_share_a_storage(self, matrix, monkeypatch):
        """One request holds its work storage while a second runs: the
        second builds its own, and both answers are the direct bits."""
        plan = repro.plan(matrix)
        held, release, seen = threading.Event(), threading.Event(), []
        b = np.cos(np.arange(plan.n))
        with plan.serve(engine="rlb_par", workers=2) as session:
            borrow = plan._work_storage

            @contextlib.contextmanager
            def holding(dtype):
                with borrow(dtype) as storage:
                    seen.append(storage)
                    if len(seen) == 1:
                        held.set()
                        assert release.wait(60)
                    yield storage

            monkeypatch.setattr(plan, "_work_storage", holding)
            first = session.submit_solve(_values(matrix, 1), b)
            assert held.wait(60)
            second = session.submit_solve(_values(matrix, 2), b).result(timeout=60)
            assert not first.done()
            release.set()
            first = first.result(timeout=60)
        assert len(seen) == 2 and seen[0] is not seen[1]
        assert not np.shares_memory(seen[0].arena, seen[1].arena)
        assert {id(s) for s in _pool(plan)} == {id(s) for s in seen}
        assert np.array_equal(first, _direct(plan, _values(matrix, 1), b, engine="rlb"))
        assert np.array_equal(second, _direct(plan, _values(matrix, 2), b, engine="rlb"))

    @pytest.mark.parametrize("name", ["rl", "rlb"])
    def test_a_failed_request_leaves_nothing_stale(self, matrix, name):
        """An indefinite matrix fails midway through the work storage; the
        storage goes back, and the next request on it is the direct bits."""
        plan = repro.plan(matrix)
        indefinite = _values(matrix, 0)
        indefinite[matrix.indptr[:-1]] -= 6.0  # inside the Laplacian's spectrum
        b = np.ones(plan.n)
        with plan.serve(engine=name) as session:
            (storage,) = _pool(plan)
            with pytest.raises(repro.NotPositiveDefiniteError):
                session.submit_solve(indefinite, b).result(timeout=60)
            assert tuple(_pool(plan)) == (storage,) and storage.arena.any()
            x = session.submit_solve(_values(matrix, 3), b).result(timeout=60)
        assert tuple(_pool(plan)) == (storage,)
        want = plan.factorize(_values(matrix, 3), engine=name)
        assert np.array_equal(storage.arena, want.storage.arena)
        assert np.array_equal(x, want.solve(b))

    def test_each_dtype_has_its_own_pool(self, matrix):
        plan = repro.plan(matrix)
        b = np.sin(np.arange(plan.n))
        with plan.serve(engine="rl_par", workers=2) as session:
            for k in range(2):
                for dtype in DTYPES:
                    for refine in (False, True):
                        x = session.submit_solve(_values(matrix, k), b, dtype=dtype,
                                                 refine=refine, tol=1e-13).result(timeout=60)
                        want = _direct(plan, _values(matrix, k), b, dtype, refine)
                        assert np.array_equal(x, want), (k, dtype, refine)
        (f64,), (f32,) = _pool(plan, np.float64), _pool(plan, np.float32)
        assert f64.dtype == np.float64 and f32.dtype == np.float32

    @pytest.mark.parametrize("name", ["rl", "rlb", *THREADS_ROWS])
    def test_no_door_takes_a_storage(self, matrix, name):
        """A work storage is private to a served request: no door lets a
        caller hand one in, so no factor it returns shares an arena."""
        plan = repro.plan(matrix)
        s = FactorStorage.zeros(plan.symb)
        for door in (lambda: plan.factorize(engine=name, storage=s),
                     lambda: plan.factorize_batch([None], engine=name, storage=s),
                     lambda: plan.serve(engine=name, storage=s)):
            with pytest.raises(ValueError, match="storage= is not accepted"):
                door()
        assert not plan._work

    @pytest.mark.parametrize("name", ["rl_gpu", "rlb_gpu_v2", "rl_proc"])
    def test_rows_that_own_their_storage_keep_no_work_storage(self, matrix, name):
        """The gpu and process rows factor into a storage of their own, so
        their sessions build and keep no work storage."""
        plan = repro.plan(matrix)
        b = np.ones(plan.n)
        with plan.serve(engine=name) as session:
            assert not session.borrows_work
            x = session.submit_solve(_values(matrix, 1), b).result(timeout=60)
        assert not any(plan._work.values())
        assert np.array_equal(x, _direct(plan, _values(matrix, 1), b, engine=serial_twin(name)))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 40), density=st.floats(0.02, 0.6),
           seed=st.integers(0, 2**16), rlb=st.booleans(), fp32=st.booleans(),
           scales=st.lists(st.floats(1.0, 4.0), min_size=2, max_size=4))
    def test_reuse_is_the_direct_bits(self, n, density, seed, rlb, fp32, scales):
        """Random SPD patterns, each request's values a new scaling of the
        diagonal: every answer out of the reused storage is the direct
        door's."""
        pattern = sp.random(n, n, density=density, random_state=seed, format="csr")
        A = spd_from_pattern(pattern.toarray() != 0)
        plan = repro.plan(A)
        name, dtype = ("rlb" if rlb else "rl"), (np.float32 if fp32 else np.float64)
        b = np.cos(np.arange(n) + seed)
        with plan.serve(engine=name, dtype=dtype) as session:
            for k, scale in enumerate(scales):
                values = A.data.copy()
                values[A.indptr[:-1]] *= scale
                refine = k % 2 == 1
                x = session.submit_solve(values, b, refine=refine, tol=1e-13).result(timeout=60)
                assert np.array_equal(x, _direct(plan, values, b, dtype, refine, name))
        assert len(_pool(plan, dtype)) == 1


# ---------------------------------------------------------------------------
# an update that grows the pattern: the answer solves on the new factor's plan
# ---------------------------------------------------------------------------
def _pattern_growing_update(A):
    """``W`` nonzero at rows 0 and n-1 of a grid, which no grid entry
    couples: ``policy="auto"`` falls back to a refactorize on a NEW plan,
    whose permutation is not the base plan's."""
    W = np.zeros(A.n)
    W[[0, A.n - 1]] = [0.75, -0.5]
    return W


def test_a_session_update_that_grows_the_pattern_solves_on_its_own_plan():
    A = grid_laplacian((6, 5))
    plan = repro.plan(A)
    W, b = _pattern_growing_update(A), np.cos(np.arange(A.n))
    base = plan.factorize(engine="rl")
    updated = base.apply(W, policy="auto")
    assert updated.plan is not plan  # the road the answer must follow
    with plan.serve(engine="rl") as session:
        x = session.submit_update(base, W, b=b, policy="auto").result(timeout=60)
    assert np.array_equal(x, updated.solve(b))
    assert updated.residual_norm(x, b) < 1e-10


def test_a_gateway_update_that_grows_the_pattern_solves_on_its_own_plan():
    A = grid_laplacian((6, 5))
    W, b = _pattern_growing_update(A), np.sin(np.arange(A.n) + 1.0)

    async def go():
        async with Gateway(engine="rl", workers=1) as gw:
            base = await gw.submit(A)
            return base, await gw.submit_update(gw.fingerprint(A), W, b, policy="auto")

    base, x = asyncio.run(go())
    updated = base.apply(W, policy="auto")
    assert updated.plan is not base.plan
    assert np.array_equal(x, updated.solve(b))
    assert updated.residual_norm(x, b) < 1e-10


def test_a_gateway_update_that_grows_the_pattern_leaves_the_base_on_the_entrys_plan():
    """The grown matrix is another fingerprint: the update answers its call
    on a new plan, but the entry's base stays a factor of the entry's own
    plan, the entry's byte count is unchanged, and the next update of the
    fingerprint continues from that base bit for bit."""
    A = grid_laplacian((6, 5))
    W, b = _pattern_growing_update(A), np.sin(np.arange(A.n) + 1.0)
    plan = repro.plan(A)
    W2 = structured_update(plan.symb, plan.perm, [2, 9], seed=3)

    async def go():
        async with Gateway(engine="rl", workers=1) as gw:
            fp = gw.fingerprint(A)
            base = await gw.submit(A)
            nbytes = gw.stats().per_pattern[fp].nbytes
            await gw.submit_update(fp, W, b, policy="auto")
            entry = gw._cache[fp]
            assert entry.latest_factor.plan is entry.plan
            assert gw.stats().per_pattern[fp].nbytes == nbytes
            return base, await gw.submit_update(fp, W2, b)

    base, x = asyncio.run(go())
    assert np.array_equal(x, base.update(W2).solve(b))
