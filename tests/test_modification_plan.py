"""One modification, planned once (:func:`repro.numeric.updown._modification_plan`).

Pins what "once" means on the update path: the containment verdict that
prices a modification is the one that admits or refuses its sweep (drawn
patterns, ranks 1-4, empty / contained / uncontained columns); the three
doors of a sweep — copy-on-write ``Factor.update``, in-place
``rank_k_update``, k sequential ``rank1_update`` — write the same bits; one
``apply`` gathers ``W`` once, plans it once and walks each root's path once,
directly and behind a served session; the sweep calls its segment kernel
once per (rank, path supernode); ``apply`` re-analyzes for a grown pattern
and for nothing else.
"""

from __future__ import annotations

import asyncio
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.api
from repro.numeric import (
    column_structure,
    rank1_update,
    rank_k_update,
    updown,
)
from repro.serving import Gateway
from repro.sparse import grid_laplacian, random_spd
from repro.update import structured_update


def draw_W(symb, perm, kinds, rng):
    """``W`` in the original ordering, one column per entry of ``kinds``:
    ``"empty"``, ``"contained"`` (a root and rows of its column structure) or
    ``"uncontained"`` (a root and a row outside it, when one exists).
    Returns ``(W, contained)``."""
    n = symb.n
    Wp = np.zeros((n, len(kinds)))
    contained = True
    for r, kind in enumerate(kinds):
        if kind == "empty":
            continue
        j0 = int(rng.integers(n))
        Wp[j0, r] = 0.5 + rng.random()
        struct = column_structure(symb, j0)
        if kind == "contained":
            take = struct[rng.random(struct.size) < 0.6]
            Wp[take, r] = 0.1 * rng.standard_normal(take.size)
            continue
        outside = np.setdiff1d(np.arange(j0 + 1, n), struct)
        if outside.size:
            Wp[rng.choice(outside), r] = 0.1
            contained = False
    W = np.empty_like(Wp)
    W[perm] = Wp
    return W, contained


KINDS = st.lists(st.sampled_from(["empty", "contained", "uncontained"]),
                 min_size=1, max_size=4)


class TestOneVerdictOneSweep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 40), st.floats(0.05, 0.4), st.integers(0, 10 ** 6), KINDS)
    def test_priced_verdict_is_the_sweeps(self, n, density, seed, kinds):
        plan = repro.plan(random_spd(n, density=density, seed=seed))
        factor = plan.factorize(engine="rl")
        W, contained = draw_W(plan.symb, plan.perm, kinds, np.random.default_rng(seed))
        cost = factor.update_cost(W)
        assert cost.contained == contained
        if not contained:
            with pytest.raises(ValueError, match="new fill"):
                factor.update(W)
            applied = factor.apply(W, policy="auto")  # never raises: refactorizes
            assert applied.result.extra["applied_policy"] == "refactorize"
            b = np.ones(n)
            assert applied.residual_norm(applied.solve(b), b) < 1e-10
            return
        updated = factor.update(W)
        assert updated.result.extra["update_cols"] == cost.path_cols
        # the same bits through the in-place doors, on copies of the factor
        Wp = W[plan.perm]
        block, single = copy.deepcopy(factor.storage), copy.deepcopy(factor.storage)
        paths = [rank1_update(single, Wp[:, r]) for r in range(Wp.shape[1])]
        assert rank_k_update(block, Wp) == sorted(set().union(*paths))
        for got, a, b in zip(updated.storage.panels, block.panels, single.panels):
            assert np.array_equal(got, a) and np.array_equal(got, b)


class Counters:
    """Call counts of the update path's derivations, patched in for a test."""

    def __init__(self, monkeypatch):
        self.calls = {}
        for owner, name in ((repro.api.Factor, "_permuted_W"),
                            (repro.api, "_modification_plan"),
                            (updown, "path_union"),
                            (updown, "solve_reach"),
                            (updown, "column_structure"),
                            (updown, "_sweep_segment")):
            monkeypatch.setattr(owner, name, self._counting(name, getattr(owner, name)))

    def _counting(self, name, fn):
        self.calls[name] = 0

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def check_one_apply(self, k):
        assert self.calls["_permuted_W"] == 1, "W is gathered once"
        assert self.calls["_modification_plan"] == 1, "containment is evaluated once"
        assert self.calls["column_structure"] <= k
        assert self.calls["path_union"] <= k and self.calls["solve_reach"] <= k
        self.calls = dict.fromkeys(self.calls, 0)


class TestOnce:
    @pytest.mark.parametrize("policy", ["auto", "update", "refactorize"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_apply_on_the_64_grid(self, monkeypatch, policy, k):
        plan = repro.plan(grid_laplacian((64, 64)))
        factor = plan.factorize(engine="rl")
        n = plan.n
        W = structured_update(plan.symb, plan.perm, [n // 2 + 7 * i for i in range(k)],
                              nent=4, seed=k, scale=0.1)
        counters = Counters(monkeypatch)
        factor.apply(W, policy=policy)
        counters.check_one_apply(k)
        factor.update(W)
        counters.check_one_apply(k)

    def test_served_update_on_the_24_grid(self, monkeypatch):
        A = grid_laplacian((24, 24))
        plan = repro.plan(A)
        W = structured_update(plan.symb, plan.perm, [A.n // 2, (3 * A.n) // 4],
                              nent=4, seed=2, scale=0.1)
        b = np.ones(A.n)
        counters = Counters(monkeypatch)
        with plan.serve(engine="rlb_par", workers=2) as session:
            base = session.submit(A.data).result(timeout=60)
            session.submit_update(base, W, b=b).result(timeout=60)
        counters.check_one_apply(2)

        async def go():
            async with Gateway(workers=2) as gw:
                await gw.submit(A)
                counters.calls = dict.fromkeys(counters.calls, 0)
                return await gw.submit_update(repro.pattern_fingerprint(A), W, b)

        asyncio.run(go())
        counters.check_one_apply(2)


class TestOneKernelCallPerSegment:
    """The sweep calls its segment kernel once per (rank, supernode on that
    rank's path) — not once per path column — through every door."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_update_on_the_64_grid(self, monkeypatch, k):
        plan = repro.plan(grid_laplacian((64, 64)))
        factor = plan.factorize(engine="rl")
        W = structured_update(plan.symb, plan.perm, [7 + 11 * i for i in range(k)],
                              nent=4, seed=k, scale=0.1)
        mod = updown._modification_plan(plan.symb, W[plan.perm])
        segments = sum(np.unique(plan.symb.col2sn[path]).size for path in mod.paths)
        assert segments < sum(path.size for path in mod.paths)
        counters = Counters(monkeypatch)
        factor.update(W)
        assert counters.calls["_sweep_segment"] == segments
        rank_k_update(copy.deepcopy(factor.storage), W[plan.perm])
        assert counters.calls["_sweep_segment"] == 2 * segments


class TestApplyReanalyzesForGrowthOnly:
    @pytest.fixture()
    def factor(self):
        return repro.plan(grid_laplacian((7, 6, 3))).factorize(engine="rl")

    @pytest.fixture()
    def analyses(self, monkeypatch):
        calls = []
        real = repro.api.plan

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.api, "plan", counted)
        return calls

    def test_a_bad_option_is_not_a_grown_pattern(self, factor, analyses):
        w = np.zeros(factor.n)
        w[0] = 0.3
        with pytest.raises(ValueError, match="not accepted"):
            factor.apply(w, policy="refactorize", bogus=1)
        assert analyses == []

    def test_non_finite_values_are_not_a_grown_pattern(self, factor, analyses):
        w = np.zeros(factor.n)
        w[0] = 1e200  # finite, but w wᵀ overflows in the materialized matrix
        with np.errstate(over="ignore"), pytest.raises(repro.NonFiniteValuesError) as ei:
            factor.apply(w, policy="refactorize")
        assert ei.value.what == "values" and analyses == []

    def test_a_grown_pattern_is_analyzed_once(self, factor, analyses):
        w = np.zeros(factor.n)
        w[0] = w[factor.n - 1] = 0.3  # (0, n-1) is outside the grid's pattern
        applied = factor.apply(w, policy="refactorize")
        assert len(analyses) == 1
        assert applied.plan is not factor.plan
        with pytest.raises(repro.api.PatternMismatchError):
            factor.plan.factorize(applied.matrix)

