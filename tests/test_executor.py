"""Threaded task-DAG executor tests: bit-determinism against the serial
engines for every worker count, edge-case DAG shapes (single supernode,
chain etree, more workers than tasks), exception propagation, and the
symbolic-cache fast path under refactorization."""

import numpy as np
import pytest

import repro
from repro.dense import NotPositiveDefiniteError
from repro.numeric import (
    factorize_executor,
    factorize_rl_cpu,
    factorize_rlb_cpu,
)
from repro.sparse import grid_laplacian, random_spd, tridiagonal
from repro.symbolic import analyze, task_ranges
from tests.conftest import assert_factor_matches, assert_measured

GRANULARITIES = ["coarse", "fine"]
SERIAL = {"coarse": factorize_rl_cpu, "fine": factorize_rlb_cpu}


def assert_same_panels(res, ref):
    assert len(res.storage.panels) == len(ref.storage.panels)
    for p, q in zip(res.storage.panels, ref.storage.panels):
        assert np.array_equal(p, q)


@pytest.fixture(scope="module")
def system():
    return analyze(grid_laplacian((7, 6, 3)))


class TestCorrectness:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_dense_reference(self, system, granularity, workers):
        res = factorize_executor(
            system.symb, system.matrix, workers=workers, granularity=granularity
        )
        assert_factor_matches(res, system)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_result_metadata(self, system, granularity):
        res = factorize_executor(system.symb, system.matrix, workers=2, granularity=granularity)
        assert res.extra["workers"] == 2
        assert res.extra["backend"] == "threads"
        assert res.extra["granularity"] == granularity
        assert res.extra["wall_seconds"] > 0.0
        # measured, not modeled, in either precision
        for dtype in (np.float64, np.float32):
            res = factorize_executor(
                system.symb, system.matrix, workers=2, granularity=granularity, dtype=dtype
            )
            assert_measured(res)

    def test_rejects_bad_arguments(self, system):
        with pytest.raises(ValueError, match="granularity"):
            factorize_executor(system.symb, system.matrix, granularity="huge")
        with pytest.raises(ValueError, match="workers"):
            factorize_executor(system.symb, system.matrix, workers=0)


class TestDeterminism:
    """The reduction-order contract: bit-identical factors for any worker
    count, equal to the serial engine of the same granularity."""

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_bit_identical_to_serial(self, system, granularity, workers):
        ref = SERIAL[granularity](system.symb, system.matrix)
        res = factorize_executor(
            system.symb, system.matrix, workers=workers, granularity=granularity
        )
        assert_same_panels(res, ref)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_repeated_runs_identical(self, system, granularity):
        one = factorize_executor(system.symb, system.matrix, workers=4, granularity=granularity)
        two = factorize_executor(system.symb, system.matrix, workers=4, granularity=granularity)
        assert_same_panels(one, two)


class TestEdgeCases:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_single_supernode(self, granularity):
        # a dense SPD matrix collapses to very few supernodes; force one
        sys1 = analyze(random_spd(12, density=1.0), merge=True, growth_cap=10.0)
        assert sys1.symb.nsup == 1
        res = factorize_executor(sys1.symb, sys1.matrix, workers=4, granularity=granularity)
        assert_factor_matches(res, sys1)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_chain_etree_no_parallelism(self, granularity):
        # tridiagonal + natural order: every supernode depends on the
        # previous one, so the DAG is a pure chain and the ready queue never
        # holds more than one task
        sysc = analyze(tridiagonal(24), ordering="natural", merge=False, refine=False)
        parent = sysc.symb.sn_parent
        assert all(parent[s] == s + 1 for s in range(sysc.symb.nsup - 1))
        ref = SERIAL[granularity](sysc.symb, sysc.matrix)
        res = factorize_executor(sysc.symb, sysc.matrix, workers=4, granularity=granularity)
        assert_same_panels(res, ref)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_more_workers_than_tasks(self, granularity):
        sys1 = analyze(grid_laplacian((4, 3, 2)))
        workers = 8 * (sys1.symb.nsup + 1)
        res = factorize_executor(sys1.symb, sys1.matrix, workers=workers, granularity=granularity)
        assert_factor_matches(res, sys1)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_non_spd_raises_like_serial(self, granularity):
        bad = analyze(grid_laplacian((6, 6, 2)).shift_diagonal(-100.0))
        with pytest.raises(NotPositiveDefiniteError):
            SERIAL[granularity](bad.symb, bad.matrix)
        with pytest.raises(NotPositiveDefiniteError):
            factorize_executor(bad.symb, bad.matrix, workers=4, granularity=granularity)


class TestSolverIntegration:
    @pytest.mark.parametrize("method", ["rl_par", "rlb_par"])
    def test_solve_through_driver(self, method):
        A = grid_laplacian((6, 5, 3))
        factor = repro.plan(A).factorize(engine=method, workers=3)
        x_true = np.arange(1, A.n + 1, dtype=np.float64)
        b = A.matvec(x_true)
        x = factor.solve(b)
        assert np.allclose(x, x_true, atol=1e-8)

    @pytest.mark.parametrize(
        ("method", "plan_key"),
        [("rl_par", "executor_coarse"), ("rlb_par", "executor_fine")],
    )
    def test_refactorize_reuses_executor_plan(self, method, plan_key):
        A = grid_laplacian((6, 5, 3))
        splan = repro.plan(A)
        splan.factorize(engine=method, workers=2)
        # the plan lives on the partition it was built for
        memo = task_ranges(splan.symb).memo
        plan = memo[plan_key]
        rng = np.random.default_rng(3)
        data = A.data * (1.0 + 0.01 * rng.random(A.data.size))
        data[A.indptr[:-1]] += 0.5
        res = splan.factorize(data, engine=method, workers=2).result
        # the DAG plan (and everything beneath it) must be reused, not rebuilt
        assert memo[plan_key] is plan
        serial = SERIAL["coarse" if method == "rl_par" else "fine"](
            splan.symb, splan._permuted_matrix(data)
        )
        assert_same_panels(res, serial)
