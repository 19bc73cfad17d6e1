"""Staged-API tests for serve-time rank-k update/downdate.

Covers the new-subsystem surface end to end: ``Factor.update`` /
``Factor.downdate`` as copy-on-write immutable factors (oracle accuracy
against a scratch factorization of the modified matrix, bit-identity
across engines and scheduling backends), ``Factor.update_cost`` pricing
both roads, ``Factor.apply`` policy selection including the containment
fallback and the pattern-growth fresh-plan road,
``ServingSession.submit_update`` (future chaining, failure isolation,
``on_factor``), and ``Gateway.submit_update`` trajectories with
``GatewayStats.updates`` accounting and :class:`NoBaseFactorError`.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
import repro.api
from repro.dense import NotPositiveDefiniteError
from repro.numeric import column_structure
from repro.numeric.procpool import close_default_pools
from repro.serving import Gateway, NoBaseFactorError, UnknownPatternError
from repro.sparse import grid_laplacian
from repro.update import UpdateCost, UpdatedMatrix, structured_update
from tests.conftest import engine_of


@pytest.fixture(scope="module")
def A():
    return grid_laplacian((7, 6, 3))


@pytest.fixture(scope="module")
def splan(A):
    return repro.plan(A)


@pytest.fixture()
def factor(splan):
    return splan.factorize(engine="rl")


def make_W(splan, roots, *, nent=4, seed=0, scale=0.1):
    return structured_update(splan.symb, splan.perm, roots,
                             nent=nent, seed=seed, scale=scale)


def scratch(splan, base, W, *, downdate=False):
    B = UpdatedMatrix(base.matrix, W, downdate=downdate).materialize()
    return repro.plan(B).factorize(engine="rl")


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module", autouse=True)
def _release_default_pools():
    yield
    close_default_pools()


# ---------------------------------------------------------------------------
# Factor.update / downdate
# ---------------------------------------------------------------------------
class TestFactorUpdate:
    @pytest.mark.parametrize("k", [1, 4])
    def test_solve_matches_scratch_factorization(self, splan, factor, k):
        W = make_W(splan, [3 * i for i in range(k)], seed=k)
        updated = factor.update(W)
        b = np.arange(1.0, splan.n + 1)
        x = updated.solve(b)
        x_ref = scratch(splan, factor, W).solve(b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-11)

    def test_parent_factor_is_untouched(self, splan, factor):
        before = [p.copy() for p in factor.storage.panels]
        x_before = factor.solve(np.ones(splan.n))
        W = make_W(splan, [0, 5], seed=2)
        factor.update(W)
        factor.downdate(0.1 * W)
        for p, q in zip(factor.storage.panels, before):
            np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(factor.solve(np.ones(splan.n)),
                                      x_before)

    def test_copy_on_write_shares_off_path_panels(self, splan, factor):
        W = make_W(splan, [splan.n - 2], seed=3)
        updated = factor.update(W)
        shared = sum(p is q for p, q in zip(factor.storage.panels,
                                            updated.storage.panels))
        copied = len(factor.storage.panels) - shared
        assert copied >= 1  # something was rewritten...
        assert shared >= 1  # ...but not everything was copied

    def test_update_then_downdate_roundtrip(self, splan, factor):
        W = make_W(splan, [2, 9], seed=4)
        back = factor.update(W).downdate(W)
        b = np.ones(splan.n)
        np.testing.assert_allclose(back.solve(b), factor.solve(b),
                                   rtol=1e-9, atol=1e-11)

    def test_updated_matrix_is_implicit(self, splan, factor):
        W = make_W(splan, [1], seed=5)
        updated = factor.update(W)
        assert isinstance(updated.matrix, UpdatedMatrix)
        x = np.linspace(0.0, 1.0, splan.n)
        np.testing.assert_allclose(
            updated.matrix.matvec(x),
            factor.matrix.matvec(x) + W @ (W.T @ x))

    def test_result_extra_records_update(self, splan, factor):
        W = make_W(splan, [0], seed=6)
        updated = factor.update(W)
        assert updated.result.extra["update_rank"] == 1
        assert updated.result.extra["update_cols"] > 0
        assert updated.result.extra["update_downdate"] is False

    def test_failed_downdate_leaves_both_factors_valid(self, splan, factor):
        W = np.zeros((splan.n, 2))
        W[:, 0] = make_W(splan, [4], seed=7)[:, 0]
        W[10, 1] = 1e6  # guaranteed to destroy positive definiteness
        before = [p.copy() for p in factor.storage.panels]
        with pytest.raises(NotPositiveDefiniteError):
            factor.downdate(W)
        for p, q in zip(factor.storage.panels, before):
            np.testing.assert_array_equal(p, q)

    def test_shape_validation(self, splan, factor):
        with pytest.raises(ValueError):
            factor.update(np.ones(3))
        with pytest.raises(ValueError):
            factor.update(np.ones((splan.n, 1, 1)))

    @pytest.mark.parametrize("backend,workers,engine", [
        pytest.param(backend, workers, engine, id=f"{backend}-{engine}")
        for backend, workers in (("serial", None), ("threads", 2), ("gpu", None), ("process", 2))
        for engine in ("rl", "rlb") if (engine, backend) != ("rlb", "process")])
    def test_bit_identity_across_backends(self, splan, engine, backend, workers):
        """Updating, then downdating, bit-identical base factors gives
        bit-identical factors on every scheduling substrate."""
        W = make_W(splan, [0, 4], seed=8)
        ref = splan.factorize(engine=engine).update(W)
        got = splan.factorize(engine=engine_of(engine, backend), workers=workers).update(W)
        for a, b in ((ref, got), (ref.downdate(W), got.downdate(W))):
            for p, q in zip(a.storage.panels, b.storage.panels):
                np.testing.assert_array_equal(p, q)


    def test_updated_fp32_factor_refines_through_a_grown_pattern(self):
        """The fp64 fallback of an updated fp32 factor refactorizes
        ``A + W Wᵀ``, whose pattern ``W Wᵀ`` grew beyond the plan's: it
        re-plans (as ``apply`` does) instead of raising."""
        plan = repro.plan(grid_laplacian((12, 12)))
        n = plan.n
        W = structured_update(plan.symb, plan.perm, [n // 2], seed=1)
        updated = plan.factorize(engine="rl", dtype=np.float32).update(W)
        with pytest.raises(repro.api.PatternMismatchError):
            plan.factorize(updated.matrix.materialize())
        b = np.ones(n)
        tol = 1e-12  # fp64 reaches it in one step, fp32 not in max_iter=2
        extra = dict(updated.result.extra)
        out = updated.solve_refined(b, tol=tol, max_iter=2, return_info=True)
        assert updated.residual_norm(out.x, b) <= tol
        assert out.fallback["from_dtype"] == "float32"
        assert updated.result.extra == extra


# ---------------------------------------------------------------------------
# Factor.update_cost / apply
# ---------------------------------------------------------------------------
class TestCrossover:
    def test_update_cost_fields(self, splan, factor):
        W = make_W(splan, [0, 6], seed=9)
        cost = factor.update_cost(W)
        assert isinstance(cost, UpdateCost)
        assert cost.rank == 2
        assert cost.path_cols > 0 and cost.path_snodes > 0
        assert cost.update_flops > 0 and cost.refactorize_flops > 0
        assert cost.contained
        assert cost.recommended in ("update", "refactorize")
        assert cost.modeled_speedup > 0

    def test_values_do_not_matter_only_pattern(self, splan, factor):
        W = make_W(splan, [2], seed=10)
        assert factor.update_cost(W) == factor.update_cost(100.0 * W)

    def test_uncontained_pattern_recommends_refactorize(self, splan,
                                                        factor):
        w = np.zeros(splan.n)
        w[:] = 1.0  # dense column: certainly not contained in struct(L[:,0])
        cost = factor.update_cost(w)
        if cost.contained:
            pytest.skip("factor structure is full")
        assert cost.recommended == "refactorize"

    def test_apply_forced_policies_agree(self, splan, factor):
        W = make_W(splan, [3], seed=11)
        b = np.ones(splan.n)
        via_update = factor.apply(W, policy="update")
        via_refz = factor.apply(W, policy="refactorize")
        assert via_update.result.extra["applied_policy"] == "update"
        assert via_refz.result.extra["applied_policy"] == "refactorize"
        np.testing.assert_allclose(via_update.solve(b), via_refz.solve(b),
                                   rtol=1e-9, atol=1e-11)

    def test_apply_auto_takes_recommended_road(self, splan, factor):
        W = make_W(splan, [splan.n - 3], seed=12)
        cost = factor.update_cost(W)
        applied = factor.apply(W, policy="auto")
        assert (applied.result.extra["applied_policy"]
                == cost.recommended
                == applied.result.extra["update_recommended"])

    def test_crossover_flips_inside_the_rank_sweep(self, splan, factor):
        """Priced, not timed: small ranks recommend the sweep, large ranks
        the refactorize, the recommendation flips once on the way up, and
        policy="auto" takes the recommended road on both sides of the flip."""
        sweep = [make_W(splan, [3 * i for i in range(k)], seed=5, scale=0.02)
                 for k in (1, 2, 4, 8, 16, 32)]
        roads = [factor.update_cost(W).recommended for W in sweep]
        flip = roads.index("refactorize")
        assert flip > 0
        assert roads == ["update"] * flip + ["refactorize"] * (len(roads) - flip)
        for W, road in ((sweep[0], "update"), (sweep[flip], "refactorize")):
            applied = factor.apply(W, policy="auto")
            assert applied.result.extra["applied_policy"] == road

    def test_apply_falls_back_on_containment_failure(self, splan, factor):
        """A modification that would create new fill cannot take the sweep
        road; policy="auto" must refactorize instead of raising."""
        w = np.zeros(splan.n)
        w[0] = 1.0
        outside = np.setdiff1d(
            np.arange(1, splan.n),
            np.sort(splan.perm[column_structure(splan.symb,
                                                int(np.flatnonzero(
                                                    splan.perm == 0)[0]))]))
        if outside.size == 0:
            pytest.skip("column structure is full")
        w[outside[0]] = 1.0
        cost = factor.update_cost(w)
        assert not cost.contained
        applied = factor.apply(w, policy="auto")
        assert applied.result.extra["applied_policy"] == "refactorize"
        b = np.ones(splan.n)
        x_ref = scratch(splan, factor, w[:, None]).solve(b)
        np.testing.assert_allclose(applied.solve(b), x_ref,
                                   rtol=1e-8, atol=1e-10)

    def test_apply_handles_pattern_growth(self, splan, factor):
        """An uncontained modification can grow A's pattern beyond the
        plan's: the refactorize road transparently re-analyzes."""
        w = np.zeros(splan.n)
        w[0] = 0.3
        w[splan.n - 1] = 0.3  # far corner: (0, n-1) is outside the grid
        applied = factor.apply(w, policy="refactorize")
        b = np.ones(splan.n)
        x_ref = scratch(splan, factor, w[:, None]).solve(b)
        np.testing.assert_allclose(applied.solve(b), x_ref,
                                   rtol=1e-8, atol=1e-10)

    def test_apply_rejects_unknown_policy(self, factor):
        with pytest.raises(ValueError, match="policy"):
            factor.apply(np.zeros(factor.n), policy="guess")


# ---------------------------------------------------------------------------
# ServingSession.submit_update
# ---------------------------------------------------------------------------
class TestSessionUpdates:
    def test_submit_update_returns_new_factor(self, splan, A):
        W = make_W(splan, [1, 7], seed=20)
        b = np.ones(splan.n)
        with splan.serve(engine="rlb_par", workers=2) as session:
            base = session.submit(A.data).result(timeout=30)
            updated = session.submit_update(base, W).result(timeout=30)
        x_ref = scratch(splan, base, W).solve(b)
        np.testing.assert_allclose(updated.solve(b), x_ref,
                                   rtol=1e-9, atol=1e-11)

    def test_submit_update_with_rhs_resolves_to_solution(self, splan, A):
        W = make_W(splan, [2], seed=21)
        b = np.arange(1.0, splan.n + 1)
        seen = []
        with splan.serve(engine="rlb_par", workers=2) as session:
            base = session.submit(A.data).result(timeout=30)
            x = session.submit_update(base, W, b=b,
                                      on_factor=seen.append).result(
                                          timeout=30)
        assert len(seen) == 1  # on_factor fired before the solve resolved
        x_ref = scratch(splan, base, W).solve(b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(seen[0].solve(b), x_ref,
                                   rtol=1e-9, atol=1e-11)

    def test_future_chaining_streams_a_trajectory(self, splan, A):
        """submit → update → update chained by futures, never blocking."""
        W1 = make_W(splan, [0], seed=22)
        W2 = make_W(splan, [5], seed=23)
        b = np.ones(splan.n)
        with splan.serve(engine="rlb_par", workers=2) as session:
            f0 = session.submit(A.data)
            f1 = session.submit_update(f0, W1)
            f2 = session.submit_update(f1, W2, b=b)
            x = f2.result(timeout=30)
        base = splan.factorize(A.data, engine="rlb")
        x_ref = scratch(splan, base.update(W1), W2).solve(b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-11)

    def test_close_drains_a_chained_trajectory(self, splan, A):
        """The ``with`` block is left before any result is read: the chain
        enqueues from its parents' tasks while the session closes, and the
        last future still resolves to the direct answer, bit for bit."""
        W1 = make_W(splan, [0], seed=22)
        W2 = make_W(splan, [5], seed=23)
        b = np.ones(splan.n)
        with splan.serve(engine="rlb_par", workers=2) as session:
            f0 = session.submit(A.data)
            f1 = session.submit_update(f0, W1)
            f2 = session.submit_update(f1, W2, b=b)
        x = f2.result(timeout=30)
        base = splan.factorize(A.data, engine="rlb")
        assert np.array_equal(x, base.update(W1).update(W2).solve(b))

    def test_a_chain_on_a_shut_down_shared_pool_fails_its_future(self, splan, A):
        """A shared executor shut down by its owner refuses the chained
        update: the future resolves with that ``RuntimeError`` instead of
        staying pending."""
        W = make_W(splan, [0], seed=22)
        pool, gate = ThreadPoolExecutor(1), threading.Event()
        pool.submit(gate.wait, 60)  # the parent stays queued until shutdown
        session = splan.serve(engine="rl", pool=pool)
        f1 = session.submit_update(session.submit(A.data), W)
        pool.shutdown(wait=False)
        gate.set()
        with pytest.raises(RuntimeError, match="shutdown"):
            f1.result(timeout=30)
        pool.shutdown()

    def test_failed_downdate_rejects_only_its_future(self, splan, A):
        Wbad = np.zeros(splan.n)
        Wbad[8] = 1e6
        Wok = make_W(splan, [3], seed=24)
        b = np.ones(splan.n)
        with splan.serve(engine="rlb_par", workers=2) as session:
            base = session.submit(A.data).result(timeout=30)
            bad = session.submit_update(base, Wbad, downdate=True)
            good = session.submit_update(base, Wok, b=b)
            with pytest.raises(NotPositiveDefiniteError) as ei:
                bad.result(timeout=30)
            x = good.result(timeout=30)
        assert ei.value.stream_index == 1
        x_ref = scratch(splan, base, Wok).solve(b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-11)

    def test_failure_propagates_through_chain(self, splan, A):
        Wbad = np.zeros(splan.n)
        Wbad[8] = 1e6
        Wok = make_W(splan, [3], seed=25)
        with splan.serve(engine="rlb_par", workers=2) as session:
            f0 = session.submit(A.data)
            f1 = session.submit_update(f0, Wbad, downdate=True)
            f2 = session.submit_update(f1, Wok)
            with pytest.raises(NotPositiveDefiniteError):
                f2.result(timeout=30)

    def test_closed_session_rejects_submissions(self, splan, A):
        with splan.serve(engine="rlb_par", workers=2) as session:
            base = session.submit(A.data).result(timeout=30)
        with pytest.raises(RuntimeError):
            session.submit_update(base, np.zeros(splan.n))


# ---------------------------------------------------------------------------
# Gateway.submit_update
# ---------------------------------------------------------------------------
class TestGatewayUpdates:
    def test_update_trajectory_and_stats(self, splan, A):
        fp = repro.pattern_fingerprint(A)
        W1 = make_W(splan, [1], seed=30)
        W2 = make_W(splan, [6], seed=31)
        b = np.ones(A.n)

        async def go():
            async with Gateway(workers=2) as gw:
                base = await gw.submit(A)  # no b: the factor becomes base
                f1 = await gw.submit_update(fp, W1)
                x2 = await gw.submit_update(fp, W2, b)
                return base, f1, x2, gw.stats()

        base, f1, x2, stats = run(go())
        ref1 = scratch(splan, base, W1)
        np.testing.assert_allclose(f1.solve(b), ref1.solve(b),
                                   rtol=1e-9, atol=1e-11)
        # the second update chained off the FIRST update's factor
        x_ref = scratch(splan, base.update(W1), W2).solve(b)
        np.testing.assert_allclose(x2, x_ref, rtol=1e-9, atol=1e-11)
        assert stats.updates == 2
        assert stats.per_pattern[fp].updates == 2

    def test_requires_base_factor(self, A):
        fp = repro.pattern_fingerprint(A)
        b = np.ones(A.n)

        async def go():
            async with Gateway(workers=2) as gw:
                await gw.submit(A, b)  # solve-only traffic: no base factor
                with pytest.raises(NoBaseFactorError):
                    await gw.submit_update(fp, np.zeros(A.n))

        run(go())

    def test_unknown_pattern_raises(self, A):
        async def go():
            async with Gateway(workers=2) as gw:
                with pytest.raises(UnknownPatternError):
                    await gw.submit_update("0" * 16, np.zeros(A.n))

        run(go())

    def test_failed_update_keeps_base_intact(self, splan, A):
        fp = repro.pattern_fingerprint(A)
        Wbad = np.zeros(A.n)
        Wbad[8] = 1e6
        Wok = make_W(splan, [2], seed=32)
        b = np.ones(A.n)

        async def go():
            async with Gateway(workers=2) as gw:
                base = await gw.submit(A)
                with pytest.raises(NotPositiveDefiniteError):
                    await gw.submit_update(fp, Wbad, downdate=True)
                x = await gw.submit_update(fp, Wok, b)
                return base, x, gw.stats()

        base, x, stats = run(go())
        # the failed downdate did not advance the base: Wok applied to base
        x_ref = scratch(splan, base, Wok).solve(b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-11)
        assert stats.updates == 1  # only the successful one counted
