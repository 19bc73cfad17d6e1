"""A factor is a value: the storage of every returned :class:`repro.api.Factor`
is read-only by construction.

* **every door** — writing into the arena, a panel or a program view of a
  factor returned by ``plan.factorize`` (every row), ``factorize_batch``,
  ``ServingSession.submit``, ``update`` / ``downdate``, both roads of
  ``apply``, refinement's fp64 fallback or a pickle round-trip raises
  ``ValueError``;
* **the one writer stays** — a plan's work storages stay writable, and a
  ``submit_solve`` served from them gives the direct door's bits, also
  after a refused write; a factor that only answers a ``submit_solve``
  inside its request is not frozen;
* **nothing moves** — under Hypothesis, any sequence of public calls on a
  pool of factors (solves, refined solves with an fp32 chain that falls
  back, updates, downdates, ``apply`` under each policy, ``update_cost``,
  ``residual_norm``, pickle round-trips) leaves every factor's panel bytes
  and every ``result`` field equal to a snapshot taken at return; a served
  factor's ``result.extra`` is complete when the request body returns it.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import Factor, SymbolicPlan
from repro.numeric.procpool import close_default_pools
from repro.numeric.storage import FactorStorage
from repro.sparse import grid_laplacian, random_spd
from repro.update import structured_update
from tests.conftest import engine_of, rows_of, writable_twin

GRID = grid_laplacian((9, 8))


@pytest.fixture(scope="module")
def plan():
    return repro.plan(GRID)


def assert_read_only(factor, what):
    """Every byte of ``factor`` refuses a write: the arena, each panel, and
    the views of the factor and solve programs."""
    storage = factor.storage
    if storage.arena is not None:
        with pytest.raises(ValueError, match="read-only"):
            storage.arena[0] = 1.0
    targets = list(storage.panels)
    targets += [view for entry in storage.solve_program() for view in entry[3:5]]
    for view in targets:
        if view is not None and view.size:
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1.0
            assert not view.flags.writeable, what


class TestEveryDoorReturnsAReadOnlyFactor:
    @pytest.fixture(scope="class", autouse=True)
    def _release_default_pools(self):
        yield
        close_default_pools()

    @pytest.mark.parametrize("family,backend",
                             rows_of(["rl", "rlb"], [None, "threads", "gpu", "process"]))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_factorize_on_every_row(self, plan, family, backend, dtype):
        engine = engine_of(family, backend)
        kwargs = {"workers": 2} if backend in ("threads", "process") else {}
        factor = plan.factorize(engine=engine, dtype=dtype, **kwargs)
        assert_read_only(factor, engine)
        # views cut by the factorization (rlb's factor program) are frozen too
        for entry in factor.storage.factor_program():
            for view in entry[3:]:
                assert view is None or not view.flags.writeable

    def test_batch_session_update_apply_and_pickle(self, plan):
        for factor in plan.factorize_batch([None, GRID.data * 2.0], engine="rlb_par", workers=2):
            assert_read_only(factor, "factorize_batch")
        with plan.serve(engine="rl_par", workers=2) as session:
            served = session.submit(GRID.data * 3.0).result(timeout=60)
        assert_read_only(served, "submit")
        W = structured_update(plan.symb, plan.perm, [0, 40], seed=1, scale=0.3)
        updated = served.update(W)
        assert updated.storage._root is served.storage
        assert_read_only(updated, "update")
        assert_read_only(updated.downdate(W), "downdate")
        for policy in ("update", "refactorize", "auto"):
            applied = served.apply(W, policy=policy)
            assert applied.result.extra["applied_policy"] in ("update", "refactorize")
            assert_read_only(applied, f"apply {policy}")
        grown = served.apply(np.ones(plan.n) * 0.1, policy="auto")  # grows the pattern
        assert grown.plan is not plan
        assert_read_only(grown, "apply on a new plan")
        for factor in (served, updated):
            twin = pickle.loads(pickle.dumps(factor))
            assert twin.storage.arena is not None
            assert_read_only(twin, "pickle")

    def test_refinement_fallback_factor(self, plan, monkeypatch):
        built = []
        refactorized = Factor._refactorized

        def spy(self, *args, **kwargs):
            built.append(refactorized(self, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(Factor, "_refactorized", spy)
        f32 = plan.factorize(engine="rl", dtype=np.float32)
        info = f32.solve_refined(np.ones(plan.n), tol=0.0, max_iter=1, return_info=True)
        assert info.fallback is not None and len(built) == 1
        assert built[0].dtype == np.float64
        assert_read_only(built[0], "fp64 fallback")

    def test_an_update_freezes_only_its_own_copies(self, plan):
        """A derived storage owns only its private panels: freezing it leaves
        the views of its root (here a writable copy) writable."""
        twin = writable_twin(plan.factorize(GRID.data, engine="rl"))
        W = structured_update(plan.symb, plan.perm, [0, 40], seed=1, scale=0.3)
        storage = twin.update(W).storage
        assert storage._root is twin.storage and storage._over
        assert not any(panel.flags.writeable for panel in storage._over.values())
        assert all(panel.flags.writeable for panel in twin.storage.panels)


class TestTheWorkStorageStaysTheOneWriter:
    @pytest.mark.parametrize("engine", ["rl", "rlb"])
    def test_direct_and_served_writers(self, plan, engine):
        b = np.random.default_rng(3).standard_normal(plan.n)
        values = GRID.data * 1.5
        factor = plan.factorize(values, engine=engine)
        want = factor.solve(b)
        # direct writer: refused, and nothing was written
        with pytest.raises(ValueError, match="read-only"):
            factor.storage.panels[0][0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            factor.storage.panel(plan.nsup - 1)[:] = 0.0
        np.testing.assert_array_equal(factor.solve(b), want)
        # served writer: the work storage refills and factors the same bits
        with plan.serve(engine=engine) as session:
            x = session.submit_solve(values, b).result(timeout=60)
            with pytest.raises(ValueError, match="read-only"):
                session.submit(values).result(timeout=60).storage.panels[0][0, 0] = 0.0
            again = session.submit_solve(values, b).result(timeout=60)
        np.testing.assert_array_equal(x, want)
        np.testing.assert_array_equal(again, want)
        work = plan._work[np.dtype(np.float64)]
        assert work and all(storage.arena.flags.writeable for storage in work)

    def test_a_factor_that_only_answers_is_not_frozen(self, plan, monkeypatch):
        """A gpu row borrows no work storage: the factor a ``submit_solve``
        builds never leaves its request, so nothing is frozen for it."""
        frozen = []
        monkeypatch.setattr(FactorStorage, "freeze", lambda self: frozen.append(self) or self)
        b = np.random.default_rng(4).standard_normal(plan.n)
        with plan.serve(engine="rl_gpu") as session:
            x = session.submit_solve(GRID.data, b).result(timeout=60)
            assert frozen == []
            session.submit(GRID.data).result(timeout=60)
        assert len(frozen) == 1
        np.testing.assert_array_equal(x, plan.factorize(GRID.data, engine="rl_gpu").solve(b))


@pytest.mark.parametrize("engine", ["rlb_par", "rl_gpu"])
def test_a_served_factors_extra_is_written_inside_its_request(plan, monkeypatch, engine):
    """``stream_index`` and ``wall_seconds`` are in a served factor's
    ``result.extra`` when the request body returns it: nothing writes into
    a factor after it left :meth:`repro.api.SymbolicPlan._request`."""
    returned = []
    request = SymbolicPlan._request

    def spy(self, *args, **kwargs):
        factor = request(self, *args, **kwargs)
        returned.append((factor, dict(factor.result.extra)))
        return factor

    monkeypatch.setattr(SymbolicPlan, "_request", spy)
    with plan.serve(engine=engine) as session:
        factors = [session.submit(GRID.data).result(timeout=60) for _ in range(2)]
    assert len(returned) == 2
    for k, (factor, (built, extra)) in enumerate(zip(factors, returned)):
        assert factor is built and factor.result.extra == extra
        assert extra["stream_index"] == k and extra["wall_seconds"] > 0


def _snapshot(factor):
    """The panel bytes and every ``result`` field of ``factor`` (a priced
    field is priced here, on first read)."""
    result = factor.result
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    fields["extra"] = dict(fields["extra"])
    if fields["gpu_stats"] is not None:
        fields["gpu_stats"] = dataclasses.asdict(fields["gpu_stats"])
    return [p.tobytes(order="F") for p in factor.storage.panels], fields


def _check(factor, snapshot):
    panels, fields = snapshot
    assert [p.tobytes(order="F") for p in factor.storage.panels] == panels
    now = _snapshot(factor)[1]
    assert now.keys() == fields.keys()
    for name, value in fields.items():
        if name == "storage":
            assert now[name] is value
        else:
            assert now[name] == value, name


OPS = ["solve", "refined", "fallback", "update", "downdate", "apply_update",
       "apply_refactorize", "apply_auto", "update_cost", "residual_norm", "pickle"]


class TestNothingMoves:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(8, 40), density=st.floats(0.05, 0.3), seed=st.integers(0, 10**6),
           engine=st.sampled_from(["rl", "rlb"]),
           dtype=st.sampled_from([np.float64, np.float32]),
           steps=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10**6)),
                          min_size=1, max_size=8))
    def test_any_sequence_of_public_calls(self, n, density, seed, engine, dtype, steps):
        plan = repro.plan(random_spd(n, density=density, seed=seed))
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        first = plan.factorize(engine=engine, dtype=dtype)
        pool = [(first, _snapshot(first), None)]  # (factor, snapshot, the W it added)
        for op, pick in steps:
            factor, _, added = pool[pick % len(pool)]
            # inside the structure of the factor's own plan: a re-planned
            # factor's (apply_refactorize, apply_auto) is not ``plan``'s
            own = factor.plan
            W = structured_update(own.symb, own.perm, [int(pick % n)], seed=pick, scale=0.3)
            new = None
            if op == "solve":
                factor.solve(b)
                factor.solve(np.stack([b, -b], axis=1), workers=2)
            elif op == "refined":
                factor.solve_refined(b)
            elif op == "fallback":  # an fp32 chain that cannot converge falls back
                factor.solve_refined(b, tol=0.0, max_iter=1)
            elif op == "update":
                new = factor.update(W), W
            elif op == "downdate" and added is not None:  # back to the parent's matrix
                new = factor.downdate(added), None
            elif op.startswith("apply_"):
                new = factor.apply(W, policy=op[len("apply_"):]), None
            elif op == "update_cost":
                factor.update_cost(W)
            elif op == "residual_norm":
                factor.residual_norm(factor.solve(b), b)
            elif op == "pickle":
                new = pickle.loads(pickle.dumps(factor)), added
            if new is not None:
                pool.append((new[0], _snapshot(new[0]), new[1]))
            for kept, snapshot, _ in pool:
                _check(kept, snapshot)
        for kept, _, _ in pool:
            assert_read_only(kept, "pool")
