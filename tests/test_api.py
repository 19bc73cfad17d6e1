"""Staged ``plan → Factor`` pipeline API tests.

Covers :mod:`repro.api`: error paths (pattern mismatch, unknown engine,
workers on serial engines), ``Factor`` conveniences (``logdet``,
``diag``, ``solve_refined``, ``residual_norm``) and same-pattern
batches — :meth:`SymbolicPlan.factorize_batch` is a loop of
``factorize`` on every backend, bit for bit, returning the list of
factors, and non-SPD propagation names the offending batch index.
"""

import numpy as np
import pytest

import repro
from repro.api import SymbolicPlan
from repro.dense.kernels import NotPositiveDefiniteError
from repro.gpu.costmodel import MachineModel
from repro.numeric.result import cpu_cost
from repro.sparse import SymmetricCSC, grid_laplacian
from repro.symbolic import task_ranges
from tests.conftest import MODEL_FIELDS, engine_of, force_cut, rows_of


@pytest.fixture(scope="module")
def base_matrix():
    return grid_laplacian((6, 5, 3))


@pytest.fixture(scope="module")
def base_plan(base_matrix):
    return repro.plan(base_matrix)


@pytest.fixture(scope="module")
def value_batch(base_matrix):
    """8 same-pattern SPD value perturbations (a parameter sweep)."""
    rng = np.random.default_rng(11)
    datas = []
    for _ in range(8):
        d = base_matrix.data * (1.0 + 0.02 * rng.random(base_matrix.data.size))
        d[base_matrix.indptr[:-1]] += 0.5
        datas.append(d)
    return datas


class TestPlan:
    def test_plan_returns_symbolic_plan(self, base_plan, base_matrix):
        assert isinstance(base_plan, SymbolicPlan)
        assert base_plan.n == base_matrix.n
        assert base_plan.nsup == base_plan.symb.nsup
        assert base_plan.matrix is base_matrix

    def test_plan_forwards_analyze_kwargs(self, base_matrix):
        p_nd = repro.plan(base_matrix, ordering="nd")
        p_mindeg = repro.plan(base_matrix, ordering="mindeg")
        assert not np.array_equal(p_nd.perm, p_mindeg.perm)

    def test_factorize_does_not_mutate_plan(self, base_plan, value_batch):
        data_before = base_plan.matrix.data.copy()
        symb_before = base_plan.symb
        base_plan.factorize(value_batch[0], engine="rl")
        assert np.array_equal(base_plan.matrix.data, data_before)
        assert base_plan.symb is symb_before

    @staticmethod
    def _empty_plan():
        # the default plan amalgamates an empty partition
        A = SymmetricCSC(0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64),
                         np.empty(0))
        plan = repro.plan(A)
        assert plan.nsup == 0 and plan.symb.snptr.tolist() == [0]
        return plan

    @pytest.mark.parametrize("engine", repro.engine_names())
    def test_empty_matrix_plans_factorizes_and_solves(self, engine):
        plan = self._empty_plan()
        assert plan.factorize(engine=engine).solve(np.empty(0)).shape == (0,)

    def test_empty_matrix_serves(self):
        plan = self._empty_plan()
        with plan.serve(workers=2) as session:
            x = session.submit_solve(np.empty(0), np.empty(0)).result()
        assert x.shape == (0,)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_matrix_refines(self, dtype):
        """An empty ``b`` has nothing to refine: its residual is 0.0 and the
        refined answer is the plain solve's empty array, fp32 included."""
        factor = self._empty_plan().factorize(engine="rl", dtype=dtype)
        b = np.empty(0)
        x = factor.solve_refined(b)
        assert x.shape == (0,) and x.dtype == np.float64
        assert factor.residual_norm(x, b) == 0.0
        extra = dict(factor.result.extra)
        out = factor.solve_refined(b, return_info=True)
        assert out.converged and out.residual_norms == [0.0]
        assert out.fallback is None and factor.result.extra == extra

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_block_refines(self, base_plan, dtype):
        """An ``(n, 0)`` block: what ``solve`` returns, ``solve_refined`` and
        ``residual_norm`` return too."""
        factor = base_plan.factorize(engine="rl", dtype=dtype)
        B = np.empty((base_plan.n, 0))
        assert factor.solve(B).shape == (base_plan.n, 0)
        X = factor.solve_refined(B)
        assert X.shape == (base_plan.n, 0)
        assert factor.residual_norm(X, B) == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("empty", ["matrix", "block"])
    def test_empty_refined_serves(self, base_plan, dtype, empty):
        plan = self._empty_plan() if empty == "matrix" else base_plan
        b = np.empty(0) if empty == "matrix" else np.empty((plan.n, 0))
        with plan.serve(workers=2) as session:
            x = session.submit_solve(None, b, refine=True, dtype=dtype).result(timeout=60)
        assert x.shape == b.shape
        assert np.array_equal(x, plan.factorize(engine="rl", dtype=dtype).solve_refined(b))

    def test_symbolic_reused_across_factorizations(self, base_plan,
                                                   value_batch):
        f1 = base_plan.factorize(value_batch[0], engine="rl")
        f2 = base_plan.factorize(value_batch[1], engine="rl")
        assert f1.storage.symb is f2.storage.symb is base_plan.symb


class TestFactor:
    def test_solve_matches_truth(self, base_plan, base_matrix):
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(base_matrix.n)
        b = base_matrix.matvec(x_true)
        factor = base_plan.factorize(engine="rlb")
        x = factor.solve(b)
        assert np.allclose(x, x_true, atol=1e-8)
        assert factor.residual_norm(x, b) < 1e-10

    def test_block_solve(self, base_plan, base_matrix):
        rng = np.random.default_rng(1)
        X_true = rng.standard_normal((base_matrix.n, 4))
        B = base_matrix.matvec(X_true)
        factor = base_plan.factorize(engine="rl")
        X = factor.solve(B)
        assert X.shape == B.shape
        assert np.allclose(X, X_true, atol=1e-7)

    def test_oversized_rhs_rejected(self, base_plan, base_matrix):
        # b[perm] fancy-indexing must not silently truncate a long RHS
        factor = base_plan.factorize(engine="rl")
        with pytest.raises(ValueError, match="shape"):
            factor.solve(np.ones(base_matrix.n + 7))
        with pytest.raises(ValueError, match="shape"):
            factor.solve(np.ones(3))

    def test_factor_survives_caller_buffer_mutation(self, base_plan,
                                                    base_matrix,
                                                    value_batch):
        # buffer-reusing time stepping: mutating the values array after
        # factorize must not corrupt the (immutable) factor
        vals = value_batch[0].copy()
        factor = base_plan.factorize(vals, engine="rl")
        x_true = np.arange(1, base_matrix.n + 1, dtype=np.float64)
        b = factor.matrix.matvec(x_true)
        vals *= 10.0
        x = factor.solve_refined(b, tol=1e-12)
        assert np.allclose(x, x_true, atol=1e-7)
        assert factor.residual_norm(x, b) < 1e-10

    def test_solve_does_not_clobber_rhs(self, base_plan, base_matrix):
        b = np.ones(base_matrix.n)
        keep = b.copy()
        base_plan.factorize(engine="rl").solve(b)
        assert np.array_equal(b, keep)

    def test_solve_refined(self, base_plan, base_matrix):
        rng = np.random.default_rng(2)
        x_true = rng.standard_normal(base_matrix.n)
        b = base_matrix.matvec(x_true)
        factor = base_plan.factorize(engine="rl")
        x = factor.solve_refined(b, tol=1e-14)
        assert np.allclose(x, x_true, atol=1e-9)
        info = factor.solve_refined(b, tol=1e-14, return_info=True)
        assert info.residual_norms[-1] <= 1e-12 or info.converged

    def test_logdet_and_diag(self, base_plan, base_matrix):
        factor = base_plan.factorize(engine="rl")
        dense = base_matrix.to_dense()
        sign, ref = np.linalg.slogdet(dense)
        assert sign > 0
        assert abs(factor.logdet() - ref) < 1e-8 * abs(ref)
        # diag() is diag(L) mapped to the original ordering; squared and
        # assembled it must reproduce det through the permuted factor
        d = factor.diag()
        assert d.shape == (base_matrix.n,)
        assert np.all(d > 0)
        assert abs(2.0 * np.log(d).sum() - ref) < 1e-8 * abs(ref)

    def test_factor_values_used(self, base_plan, value_batch):
        """The factor matrix carries the values it was factored from."""
        factor = base_plan.factorize(value_batch[0], engine="rl")
        assert np.array_equal(factor.matrix.data, value_batch[0])


class TestErrorPaths:
    def test_pattern_mismatch_rejected(self, base_plan):
        other = grid_laplacian((5, 6, 3))
        with pytest.raises(ValueError, match="pattern"):
            base_plan.factorize(other)

    def test_wrong_length_rejected(self, base_plan):
        with pytest.raises(ValueError, match="shape"):
            base_plan.factorize(np.ones(3))

    def test_unknown_engine(self, base_plan):
        with pytest.raises(ValueError, match="unknown engine"):
            base_plan.factorize(engine="lu")

    def test_unknown_engine_in_batch(self, base_plan, value_batch):
        with pytest.raises(ValueError, match="unknown engine"):
            base_plan.factorize_batch(value_batch, engine="lu")

    def test_workers_rejected_for_serial_engine(self, base_plan):
        message = "workers= is not accepted by engine 'rl'; accepted by: .*rl_par"
        with pytest.raises(ValueError, match=message):
            base_plan.factorize(engine="rl", workers=2)
        with pytest.raises(ValueError, match=message):
            base_plan.factorize_batch([None], engine="rl", workers=2)

    def test_batch_pattern_mismatch_rejected(self, base_plan, value_batch):
        bad = list(value_batch) + [grid_laplacian((5, 6, 3))]
        with pytest.raises(ValueError, match="pattern"):
            base_plan.factorize_batch(bad, engine="rlb_par")

    def test_legacy_memory_planner_call_shape_fails_loudly(self,
                                                           base_plan,
                                                           base_matrix):
        # pre-1.2 repro.plan was the device-memory planner; those call
        # shapes must hit a pointed migration error, not die deep inside
        # the symbolic pipeline
        with pytest.raises(TypeError, match="memory_plan"):
            repro.plan(base_plan.symb)
        with pytest.raises(TypeError, match="memory_plan"):
            repro.plan(base_matrix, device_memory=1 << 20)


class TestFactorizeBatch:
    @pytest.mark.parametrize("engine", ["rl_par", "rlb_par"])
    def test_bit_identical_to_serial_refactorize_loop(self, base_matrix,
                                                      value_batch, engine):
        """The acceptance contract: batched factors == a serial
        ``refactorize`` loop, bit for bit, for every batch member."""
        plan = repro.plan(base_matrix)
        batch = plan.factorize_batch(value_batch, engine=engine, workers=4)
        assert isinstance(batch, list)
        assert len(batch) == len(value_batch)
        serial = "rl" if engine == "rl_par" else "rlb"
        for i, data in enumerate(value_batch):
            ref = plan.factorize(data, engine=serial)
            assert len(batch[i].storage.panels) == len(ref.storage.panels)
            for p, q in zip(batch[i].storage.panels, ref.storage.panels):
                assert np.array_equal(p, q)

    def test_batch_accepts_matrices_and_none(self, base_plan, base_matrix,
                                             value_batch):
        B = SymmetricCSC(base_matrix.n, base_matrix.indptr,
                         base_matrix.indices, value_batch[0], check=False)
        batch = base_plan.factorize_batch([None, B, value_batch[1]],
                                          engine="rlb_par", workers=2)
        assert np.array_equal(batch[0].matrix.data, base_matrix.data)
        assert np.array_equal(batch[1].matrix.data, value_batch[0])
        assert np.array_equal(batch[2].matrix.data, value_batch[1])

    def test_serial_engine_fallback_loop(self, base_plan, value_batch):
        batch = base_plan.factorize_batch(value_batch[:3], engine="rl")
        ref = base_plan.factorize(value_batch[1], engine="rl")
        for p, q in zip(batch[1].storage.panels, ref.storage.panels):
            assert np.array_equal(p, q)

    def test_empty_batch(self, base_plan):
        assert base_plan.factorize_batch([], engine="rlb_par") == []

    def test_batch_results_metadata(self, base_plan, value_batch):
        batch = base_plan.factorize_batch(value_batch[:4], engine="rlb_par",
                                          workers=2)
        for f in batch:
            # a batch member's report is a lone factorize's report
            assert "batch_index" not in f.result.extra
            assert f.result.wall_seconds > 0

    @pytest.fixture(scope="class")
    def cut_plan(self, base_matrix):
        """The module's pattern cut into several task ranges, so the
        threads and process backends run real task graphs."""
        with pytest.MonkeyPatch.context() as patch:
            force_cut(patch, "mixed")
            plan = repro.plan(base_matrix)
            assert len(task_ranges(plan.symb)) > 1
        return plan

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("family,backend",
                             rows_of(["rl", "rlb"], [None, "threads", "process", "gpu"]))
    def test_batch_is_a_loop_of_factorize(self, cut_plan, value_batch,
                                          family, backend, dtype):
        """Panel for panel, ``factorize_batch(values, **kw)`` is
        ``[factorize(v, **kw) for v in values]`` on every backend and in
        either precision; two non-SPD matrices raise the lower position."""
        kw = {"engine": engine_of(family, backend), "dtype": dtype}
        if backend in ("threads", "process"):
            kw["workers"] = 2
        values = value_batch[:3]
        batch = cut_plan.factorize_batch(values, **kw)
        assert len(batch) == len(values)
        for data, got in zip(values, batch):
            want = cut_plan.factorize(data, **kw)
            assert got.engine == want.engine
            assert len(got.storage.panels) == len(want.storage.panels)
            for p, q in zip(got.storage.panels, want.storage.panels):
                assert p.dtype == q.dtype == dtype
                assert np.array_equal(p, q)
        bad = [d.copy() for d in value_batch[:4]]
        bad[1][:] = 0.0
        bad[3][:] = 0.0
        with pytest.raises(NotPositiveDefiniteError) as exc_info:
            cut_plan.factorize_batch(bad, **kw)
        assert exc_info.value.batch_index == 1

    def test_logdets(self, base_plan, value_batch):
        batch = base_plan.factorize_batch(value_batch[:3], engine="rl_par",
                                          workers=2)
        for f in batch:
            ld = f.logdet()
            sign, ref = np.linalg.slogdet(f.matrix.to_dense())
            assert sign > 0
            assert abs(ld - ref) < 1e-8 * abs(ref)


class TestBatchNotSpd:
    @pytest.mark.parametrize("engine", ["rl_par", "rlb_par", "rl"])
    def test_non_spd_surfaces_batch_index(self, base_plan, value_batch,
                                          engine):
        bad = [d.copy() for d in value_batch[:5]]
        bad[3][:] = 0.0  # singular at batch position 3
        kwargs = {"workers": 2} if engine.endswith("_par") else {}
        with pytest.raises(NotPositiveDefiniteError) as exc_info:
            base_plan.factorize_batch(bad, engine=engine, **kwargs)
        assert exc_info.value.batch_index == 3
        assert "batch matrix 3" in str(exc_info.value)


    @pytest.mark.parametrize("engine", ["rl_par", "rlb_par"])
    def test_two_non_spd_report_the_lower_index(self, base_plan,
                                                value_batch, engine):
        """The loop stops at the first failing matrix, so the batch raises
        the lowest failing position, however the workers interleaved
        inside each factorization."""
        bad = [d.copy() for d in value_batch[:5]]
        bad[1][:] = 0.0
        bad[3][:] = 0.0
        for _ in range(20):
            with pytest.raises(NotPositiveDefiniteError) as exc_info:
                base_plan.factorize_batch(bad, engine=engine, workers=3)
            assert exc_info.value.batch_index == 1


class TestImmutability:
    def test_factor_has_no_mutators(self, base_plan):
        factor = base_plan.factorize(engine="rl")
        assert not hasattr(factor, "update_values")
        assert not hasattr(factor, "refactorize")
        with pytest.raises(AttributeError):
            factor.result = None  # __slots__ + property: read-only


@pytest.fixture
def walks(monkeypatch):
    """The families of every kernel-stream walk (one per pricing) made
    while the test runs."""
    from repro.numeric import result

    seen = []
    walker = result.kernel_stream

    def counting(symb, family):
        seen.append(family)
        return walker(symb, family)

    monkeypatch.setattr(result, "kernel_stream", counting)
    return seen


class TestPricedOnce:
    def test_walker_runs_once_per_family_and_itemsize(self, base_matrix,
                                                      value_batch, walks):
        """The modeled report is pattern-only and priced on first read: a
        serial row walks each (family, itemsize) once, when a model field
        is first read; factorizing, later reads and later same-pattern
        factorizations walk nothing, and the measured rows never price."""
        plan = repro.plan(base_matrix)
        first = plan.factorize(engine="rl")
        again = plan.factorize(value_batch[0], engine="rl")
        plan.factorize_batch(value_batch[:4], engine="rlb_par", workers=2)
        assert walks == []
        assert (again.result.cpu_times_by_threads
                == first.result.cpu_times_by_threads)
        assert walks == ["rl"]
        plan.factorize(engine="rl_par", workers=2)
        assert plan.factorize(engine="rlb").result.modeled_seconds > 0
        assert walks == ["rl", "rlb"]
        # a new itemsize is a new (single) walk, at the first read
        batch = plan.factorize_batch(value_batch[:2], engine="rl",
                                     dtype=np.float32)
        plan.factorize(engine="rl_par", workers=2, dtype=np.float32)
        assert walks == ["rl", "rlb"]
        assert all(f.result.kernel_count == batch[0].result.kernel_count
                   for f in batch)
        assert walks == ["rl", "rlb", "rl"]

    def test_first_read_walks_once_then_nothing(self, base_matrix,
                                                value_batch, walks):
        plan = repro.plan(base_matrix)
        factor = plan.factorize(engine="rlb")
        assert walks == []
        seconds = factor.result.modeled_seconds
        assert walks == ["rlb"]
        fields = [getattr(factor.result, name) for name in MODEL_FIELDS]
        assert fields[0] == seconds
        again = plan.factorize(value_batch[0], engine="rlb").result
        assert [getattr(again, name) for name in MODEL_FIELDS] == fields
        assert walks == ["rlb"]

    def test_update_keeps_an_unread_report_unpriced(self, base_matrix,
                                                    walks):
        plan = repro.plan(base_matrix)
        factor = plan.factorize(engine="rl")
        W = np.zeros(base_matrix.n)
        W[3] = 0.5  # W W^T is one diagonal entry: inside the pattern
        updated = factor.update(W)
        assert walks == []
        assert updated.result.extra["update_rank"] == 1
        assert updated.result.modeled_seconds == factor.result.modeled_seconds
        assert walks == ["rl"]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("family", ["rl", "rlb"])
    @pytest.mark.parametrize("machine", [None, MachineModel(dilation=20.0)],
                             ids=["default", "dilated"])
    def test_lazy_fields_equal_eager_cpu_cost(self, base_matrix, family,
                                              dtype, machine):
        kwargs = {} if machine is None else {"machine": machine}
        report = repro.plan(base_matrix).factorize(
            engine=family, dtype=dtype, **kwargs).result
        # priced on a plan of its own, so no memo is shared with the report
        cost = cpu_cost(repro.plan(base_matrix).symb, family, machine,
                        itemsize=np.dtype(dtype).itemsize)
        eager = (cost.seconds, dict(cost.times), cost.best_threads,
                 cost.flops, cost.kernel_count, cost.assembly_bytes)
        assert tuple(getattr(report, name) for name in MODEL_FIELDS) == eager


class TestBatchTaskCount:
    def test_tasks_is_per_matrix_dag_size(self, base_plan, value_batch):
        # extra["tasks"] must mean the same thing as in a single
        # factorize_executor run: one matrix's DAG size, not the pool total
        single = base_plan.factorize(value_batch[0], engine="rlb_par",
                                     workers=1)
        batch = base_plan.factorize_batch(value_batch[:4], engine="rlb_par",
                                          workers=2)
        for f in batch:
            assert f.result.extra["tasks"] == single.result.extra["tasks"]
