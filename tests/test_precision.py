"""Mixed-precision lane tests.

Covers the ``dtype=`` precision lane end to end: fp32 factors
bit-identical across serial engines, the threaded/process task-DAG
backends and every worker count; typed rejection of unsupported dtypes
(:class:`~repro.dense.kernels.UnsupportedDtypeError`) and of engines
outside the RL/RLB lane; fp64-accuracy recovery of
:meth:`~repro.api.Factor.solve_refined` on fp32 factors; the
stall-detected fp64-refactorize fallback (bitwise equal to the fp64
oracle); itemsize-aware cost-model and ``plan_nbytes`` accounting; and
the CLI/serving precision knobs.
"""

import asyncio
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

import repro
from repro.cli import main as cli_main
from repro.dense import kernels
from repro.dense.kernels import UnsupportedDtypeError, check_dtype
from repro.gpu.costmodel import CpuModel, GpuModel, MachineModel
from repro.numeric import (
    FactorStorage,
    factorize_executor,
    factorize_process,
    factorize_rl_cpu,
    factorize_rlb_cpu,
)
from repro.numeric.registry import serial_twin
from repro.numeric.threshold import DEFAULT_STALL_RATIO, refinement_stalled
from repro.serving import Gateway, plan_nbytes
from repro.solve import refine, triangular
from repro.sparse import SymmetricCSC, grid_laplacian, random_spd
from repro.symbolic import analyze
from repro.update import UpdatedMatrix


@pytest.fixture(scope="module")
def system():
    return analyze(grid_laplacian((7, 6, 3)))


@pytest.fixture(scope="module")
def base_matrix():
    return grid_laplacian((6, 5, 3))


@pytest.fixture(scope="module")
def fp32_plan(base_matrix):
    return repro.plan(base_matrix)


def graded_matrix(spread=5.0):
    """An SPD matrix with a wide, graded diagonal scaling: fp32 can
    factorize it, but the factor is too rough for refinement to reach
    fp64 accuracy — the recipe behind the stall-fallback tests."""
    A = grid_laplacian((8, 8, 4))
    n = A.n
    d = np.logspace(0, -spread, n)
    data = A.data.copy()
    for j in range(n):
        lo, hi = A.indptr[j], A.indptr[j + 1]
        data[lo:hi] = A.data[lo:hi] * d[A.indices[lo:hi]] * d[j]
    return SymmetricCSC(n, A.indptr, A.indices, data)


class TestStallDetector:
    def test_needs_two_residuals(self):
        assert not refinement_stalled([])
        assert not refinement_stalled([1e-3])

    def test_contracting_sequence_never_stalls(self):
        assert not refinement_stalled([1e-3, 1e-7, 1e-11])

    def test_flat_sequence_stalls(self):
        assert refinement_stalled([1e-9, 9e-10])

    def test_zero_residual_never_stalls(self):
        assert not refinement_stalled([1e-9, 0.0])

    def test_ratio_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            refinement_stalled([1.0, 1.0], ratio=0.0)
        with pytest.raises(ValueError, match="ratio"):
            refinement_stalled([1.0, 1.0], ratio=-1.0)

    def test_ratio_is_the_contraction_bar(self):
        # one step shrank the residual 4x: a stall at ratio 0.5 it is not,
        # but a demanding ratio 0.1 calls it one
        assert not refinement_stalled([1e-6, 2.5e-7], ratio=0.5)
        assert refinement_stalled([1e-6, 2.5e-7], ratio=0.1)
        assert DEFAULT_STALL_RATIO == 0.5


class TestDtypeValidation:
    def test_check_dtype_accepts_lane(self):
        assert check_dtype(np.float64) == np.dtype(np.float64)
        assert check_dtype("float32") == np.dtype(np.float32)

    @pytest.mark.parametrize("bad", [np.float16, np.complex128, np.int32])
    def test_check_dtype_rejects(self, bad):
        with pytest.raises(UnsupportedDtypeError):
            check_dtype(bad)

    def test_unsupported_is_a_type_error(self):
        assert issubclass(UnsupportedDtypeError, TypeError)

    def test_storage_from_matrix_rejects_fp16(self, system):
        with pytest.raises(UnsupportedDtypeError, match="float16"):
            FactorStorage.from_matrix(system.symb, system.matrix,
                                      dtype=np.float16)

    def test_scatter_rejects_mismatched_values(self, system):
        # SymmetricCSC itself coerces to fp64, so exercise the guard with
        # a raw matrix-like carrying fp16 values
        A = system.matrix

        class Raw:
            n = A.n
            indptr = A.indptr
            indices = A.indices
            data = A.data.astype(np.float16)

        with pytest.raises(UnsupportedDtypeError):
            FactorStorage.from_matrix(system.symb, Raw())

    def test_api_factorize_rejects_complex(self, base_matrix):
        with pytest.raises(UnsupportedDtypeError):
            repro.plan(base_matrix).factorize(dtype=np.complex128)

    def test_serve_rejects_unsupported_dtype(self, base_matrix):
        # serve() only admits task-DAG engines (all in the precision
        # lane), so its dtype guard is the UnsupportedDtypeError path
        with pytest.raises(UnsupportedDtypeError):
            repro.plan(base_matrix).serve(engine="rlb_par",
                                          dtype=np.float16)


class TestComplexInputRefused:
    """A complex right-hand side, value array or update matrix is refused
    with :class:`UnsupportedDtypeError` at every door it enters by; numpy's
    cast would keep the real part and only warn, and the answer would be
    the real part's (a relative residual of 1.0 against the complex ``b``)."""

    @staticmethod
    def _doors(plan, factor, cplx):
        """``door name -> call`` feeding ``cplx(real_array)`` into one door."""
        from repro.solve import forward_solve, solve_factored

        A = plan.matrix
        n = A.n
        b, W = np.ones(n), 0.1 * np.eye(n)[:, :1]
        vals = A.data * 1.01

        def session(call):
            with plan.serve(workers=2) as s:
                return call(s).result(timeout=60)

        def gateway(call):
            async def go():
                async with Gateway(workers=1) as gw:
                    fp = await gw.register(A)
                    await gw.submit(A)  # the base factor submit_update needs
                    try:
                        return await call(gw, fp)
                    finally:
                        assert gw.stats().in_flight == 0

            return asyncio.run(go())

        return {
            "solve": lambda: factor.solve(cplx(b)),
            "solve_workers": lambda: factor.solve(cplx(b), workers=2),
            "solve_refined": lambda: factor.solve_refined(cplx(b)),
            "residual_norm": lambda: factor.residual_norm(b, cplx(b)),
            "solve_factored": lambda: solve_factored(factor.storage, cplx(b)),
            "forward_solve": lambda: forward_solve(factor.storage, cplx(b)),
            "factorize": lambda: plan.factorize(cplx(vals)),
            "factorize_batch": lambda: plan.factorize_batch([vals, cplx(vals)]),
            "SymmetricCSC": lambda: SymmetricCSC(n, A.indptr, A.indices, cplx(A.data)),
            "from_coo": lambda: SymmetricCSC.from_coo(2, [0, 1], [0, 1], cplx(np.ones(2))),
            "update": lambda: factor.update(cplx(W)),
            "downdate": lambda: factor.downdate(cplx(W)),
            "apply": lambda: factor.apply(cplx(W)),
            "update_cost": lambda: factor.update_cost(cplx(W)),
            "session.submit": lambda: session(lambda s: s.submit(cplx(vals))),
            "session.submit_solve": lambda: session(lambda s: s.submit_solve(vals, cplx(b))),
            "session.submit_update": lambda: session(lambda s: s.submit_update(factor, cplx(W))),
            "gateway.submit": lambda: gateway(lambda gw, fp: gw.submit(A, cplx(b))),
            "gateway.submit_values": lambda: gateway(
                lambda gw, fp: gw.submit_values(fp, cplx(vals))),
            "gateway.submit_update": lambda: gateway(
                lambda gw, fp: gw.submit_update(fp, cplx(W))),
        }

    DOORS = ("solve", "solve_workers", "solve_refined", "residual_norm", "solve_factored",
             "forward_solve", "factorize", "factorize_batch", "SymmetricCSC", "from_coo",
             "update", "downdate", "apply", "update_cost", "session.submit",
             "session.submit_solve", "session.submit_update", "gateway.submit",
             "gateway.submit_values", "gateway.submit_update")

    @pytest.mark.parametrize("kind", [np.complex128, np.complex64])
    @pytest.mark.parametrize("door", DOORS)
    def test_refused(self, fp32_plan, door, kind):
        factor = fp32_plan.factorize(engine="rl")
        call = self._doors(fp32_plan, factor, lambda x: (x * (1 + 1j)).astype(kind))[door]
        with warnings.catch_warnings():
            # numpy's ComplexWarning: the real part was kept on the way
            warnings.filterwarnings("error", message="Casting complex values to real")
            with pytest.raises(UnsupportedDtypeError, match="complex"):
                call()

    def test_the_real_doors_still_serve(self, fp32_plan):
        """The guard refuses complex input only: every door above answers
        its real twin."""
        factor = fp32_plan.factorize(engine="rl")
        doors = self._doors(fp32_plan, factor, lambda x: x)
        assert sorted(doors) == sorted(self.DOORS)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="Casting complex values to real")
            for door, call in doors.items():
                assert call() is not None, door
        b = np.ones(fp32_plan.n)
        assert np.array_equal(doors["solve"](), factor.solve(b))


class TestStorageDtype:
    def test_default_is_fp64(self, system):
        st = FactorStorage.from_matrix(system.symb, system.matrix)
        assert st.dtype == np.float64 and st.itemsize == 8

    def test_fp32_panels_half_the_bytes(self, system):
        st64 = FactorStorage.from_matrix(system.symb, system.matrix)
        st32 = FactorStorage.from_matrix(system.symb, system.matrix,
                                         dtype=np.float32)
        assert st32.dtype == np.float32 and st32.itemsize == 4
        assert all(p.dtype == np.float32 for p in st32.panels)
        b64 = sum(p.nbytes for p in st64.panels)
        b32 = sum(p.nbytes for p in st32.panels)
        assert b32 * 2 == b64

    def test_fp32_scatter_matches_downcast(self, system):
        st32 = FactorStorage.from_matrix(system.symb, system.matrix,
                                         dtype=np.float32)
        st64 = FactorStorage.from_matrix(system.symb, system.matrix)
        for p32, p64 in zip(st32.panels, st64.panels):
            assert np.array_equal(p32, p64.astype(np.float32))


def _panels(res):
    return res.storage.panels


class TestFp32BitIdentity:
    """The determinism contract extends to the fp32 lane: same kernels,
    same reduction order, single-precision BLAS — every backend and
    worker count reproduces the serial fp32 factor bit for bit."""

    @pytest.fixture(scope="class")
    def serial32(self, system):
        return {
            "coarse": factorize_rl_cpu(system.symb, system.matrix,
                                       dtype=np.float32),
            "fine": factorize_rlb_cpu(system.symb, system.matrix,
                                      dtype=np.float32),
        }

    def test_serial_engines_store_fp32(self, serial32):
        for res in serial32.values():
            assert all(p.dtype == np.float32 for p in _panels(res))

    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_executor_matches_serial(self, system, serial32, granularity,
                                     workers):
        res = factorize_executor(system.symb, system.matrix, workers=workers,
                                 granularity=granularity, dtype=np.float32)
        for p, q in zip(_panels(res), _panels(serial32[granularity])):
            assert np.array_equal(p, q)

    def test_process_backend_matches_serial(self, system, serial32):
        res = factorize_process(system.symb, system.matrix, workers=2,
                                dtype=np.float32)
        for p, q in zip(_panels(res), _panels(serial32["coarse"])):
            assert np.array_equal(p, q)

    @pytest.mark.parametrize("engine", ["rl_par", "rlb_par", "rl_gpu",
                                        "rlb_gpu_v2"])
    def test_api_engines_match_serial_twin(self, fp32_plan, engine):
        twin = serial_twin(engine)
        ref = fp32_plan.factorize(engine=twin, dtype=np.float32)
        res = fp32_plan.factorize(engine=engine, dtype=np.float32)
        assert res.dtype == np.float32
        for p, q in zip(_panels(res.result), _panels(ref.result)):
            assert np.array_equal(p, q)

    def test_fp32_differs_from_fp64(self, fp32_plan):
        f64 = fp32_plan.factorize(engine="rl")
        f32 = fp32_plan.factorize(engine="rl", dtype=np.float32)
        assert f64.dtype == np.float64
        assert not np.array_equal(_panels(f64.result)[0],
                                  _panels(f32.result)[0])


class TestRefinementRecovery:
    def test_fp32_direct_solve_is_fp32_rough(self, base_matrix, fp32_plan):
        f32 = fp32_plan.factorize(dtype=np.float32)
        b = np.cos(np.arange(base_matrix.n))
        assert 1e-8 < f32.residual_norm(f32.solve(b), b) < 1e-3

    def test_refined_recovers_fp64_accuracy(self, base_matrix, fp32_plan):
        f32 = fp32_plan.factorize(dtype=np.float32)
        b = np.cos(np.arange(base_matrix.n))
        extra = dict(f32.result.extra)
        out = f32.solve_refined(b, return_info=True)
        assert out.converged and not out.stalled
        assert f32.residual_norm(out.x, b) <= 1e-12
        assert out.fallback is None and f32.result.extra == extra

    def test_refined_matches_fp64_quality(self, base_matrix, fp32_plan):
        b = np.sin(np.arange(base_matrix.n))
        f64 = fp32_plan.factorize()
        f32 = fp32_plan.factorize(dtype=np.float32)
        r64 = f64.residual_norm(f64.solve_refined(b), b)
        r32 = f32.residual_norm(f32.solve_refined(b), b)
        assert r32 <= max(10 * r64, 1e-13)


class TestStallFallback:
    @pytest.fixture(scope="class")
    def graded(self):
        return graded_matrix(5.0)

    @pytest.fixture(scope="class")
    def rhs(self, graded):
        return np.random.default_rng(42).standard_normal(graded.n)

    def test_stall_triggers_fp64_refactorize(self, graded, rhs):
        plan = repro.plan(graded)
        f32 = plan.factorize(dtype=np.float32)
        extra = dict(f32.result.extra)
        out = f32.solve_refined(rhs, return_info=True)
        fb = out.fallback
        assert f32.result.extra == extra  # the factor is not written
        assert fb["reason"] == "stalled"
        assert fb["from_dtype"] == "float32"
        assert len(fb["residual_norms"]) >= 2
        # the recovered answer is bitwise the fp64 oracle's
        oracle = plan.factorize().solve_refined(rhs, return_info=True)
        assert np.array_equal(out.x, oracle.x)
        assert f32.residual_norm(out.x, rhs) <= 1e-10

    def test_fallback_off_returns_stalled_result(self, graded, rhs):
        f32 = repro.plan(graded).factorize(dtype=np.float32)
        extra = dict(f32.result.extra)
        out = f32.solve_refined(rhs, return_info=True, fallback=False)
        assert out.stalled and not out.converged
        assert out.fallback is None and f32.result.extra == extra

    def test_fallback_records_threaded_twin(self, graded, rhs):
        f32 = repro.plan(graded).factorize(engine="rlb_par", workers=2,
                                           dtype=np.float32)
        extra = dict(f32.result.extra)
        assert f32.solve_refined(rhs, return_info=True).fallback["engine"] == "rlb"
        assert f32.result.extra == extra

    def test_fp64_factor_unaffected_by_default(self, graded, rhs):
        f64 = repro.plan(graded).factorize()
        extra = dict(f64.result.extra)
        out = f64.solve_refined(rhs, return_info=True)
        assert not out.stalled
        assert out.fallback is None and f64.result.extra == extra


#: out-of-range refinement arguments: each raises ValueError at every door
BAD_REFINEMENT = [{"max_iter": -3}, {"tol": float("nan")}, {"tol": -1e-14},
                  {"tol": float("inf")}]
BAD_STALL = BAD_REFINEMENT + [{"stall_ratio": 0.0}, {"stall_ratio": -1.0}]


def _id(case):
    ((key, value),) = case.items()
    return f"{key}={value}"


class TestRefinementArguments:
    """Every refinement door refuses an out-of-range argument before it
    solves, where they once served a plain solve (``max_iter < 0``), ran
    every step and refactorized in fp64 (``tol`` NaN or negative), or
    accepted a non-positive ``stall_ratio`` on a chain that converged at
    its first residual (``tol=1e-6`` on an fp64 factor)."""

    @pytest.mark.parametrize("bad", BAD_STALL, ids=_id)
    def test_refine(self, fp32_plan, base_matrix, bad):
        f64 = fp32_plan.factorize()
        b = np.ones(base_matrix.n)
        with pytest.raises(ValueError, match=next(iter(bad))):
            refine(base_matrix, f64.storage, fp32_plan.perm, b, **{"tol": 1e-6, **bad})

    @pytest.mark.parametrize("bad", BAD_STALL, ids=_id)
    def test_factor_solve_refined(self, fp32_plan, base_matrix, bad):
        # at tol=1e-6 an fp64 chain converges at its first residual, before
        # it would read a stall ratio; an fp32 one would refactorize in fp64
        dtype = np.float64 if "stall_ratio" in bad else np.float32
        factor = fp32_plan.factorize(dtype=dtype)
        extra = dict(factor.result.extra)
        with pytest.raises(ValueError, match=next(iter(bad))):
            factor.solve_refined(np.ones(base_matrix.n), **{"tol": 1e-6, **bad})
        assert factor.result.extra == extra

    @pytest.mark.parametrize("bad", BAD_REFINEMENT, ids=_id)
    def test_submit_solve(self, fp32_plan, base_matrix, bad):
        with fp32_plan.serve(engine="rlb_par", workers=2, dtype=np.float32) as session:
            with pytest.raises(ValueError, match=next(iter(bad))):
                session.submit_solve(None, np.ones(base_matrix.n), refine=True, **bad)
            assert session.submitted == 0


class TestAccounting:
    def test_scaled_bytes_itemsize(self):
        m = MachineModel()
        # same entry count → same dilation ramp; fp32 still moves half
        # the bytes of the fp64 object
        assert (m.scaled_bytes(800, itemsize=8)
                == 2 * m.scaled_bytes(400, itemsize=4))

    def test_fp_speedup_gates_on_itemsize(self):
        m = MachineModel()
        assert CpuModel().fp32_speedup == 2.0
        assert GpuModel().fp32_speedup == 2.0
        assert m.cpu_fp_speedup(4) == 2.0 and m.cpu_fp_speedup(8) == 1.0
        assert m.gpu_fp_speedup(4) == 2.0 and m.gpu_fp_speedup(8) == 1.0

    def test_modeled_seconds_drop_in_fp32(self, system):
        f64 = factorize_rl_cpu(system.symb, system.matrix)
        f32 = factorize_rl_cpu(system.symb, system.matrix, dtype=np.float32)
        assert f32.modeled_seconds < f64.modeled_seconds
        assert f32.kernel_count == f64.kernel_count

    def test_plan_nbytes_dtype_lane(self, base_matrix):
        plan = repro.plan(base_matrix)
        base = plan_nbytes(plan)
        nnz = int(plan.symb.factor_nnz_dense())
        assert plan_nbytes(plan, dtype=np.float64) == base + 8 * nnz
        assert plan_nbytes(plan, dtype=np.float32) == base + 4 * nnz


class TestServingPrecision:
    def test_session_dtype_and_override(self, base_matrix, fp32_plan):
        ref32 = fp32_plan.factorize(engine="rlb", dtype=np.float32)
        ref64 = fp32_plan.factorize(engine="rlb")
        with fp32_plan.serve(engine="rlb_par", workers=2,
                             dtype=np.float32) as session:
            got32 = session.submit().result()
            got64 = session.submit(dtype=np.float64).result()
        assert got32.dtype == np.float32 and got64.dtype == np.float64
        for p, q in zip(_panels(got32.result), _panels(ref32.result)):
            assert np.array_equal(p, q)
        for p, q in zip(_panels(got64.result), _panels(ref64.result)):
            assert np.array_equal(p, q)

    def test_dtype_override_prices_nothing(self, base_matrix, monkeypatch):
        """A per-submission fp32 override on an fp64 threaded session runs
        the serial twin like every submission and prices nothing on the
        way: no thread walks a kernel stream and nothing is written to
        ``symb.cache()["cpu_cost"]`` until the report is read — once, as
        the direct ``rlb`` factor's is."""
        from repro.numeric import result

        walks = []
        walker = result.kernel_stream

        def recording(symb, family):
            walks.append(family)
            return walker(symb, family)

        monkeypatch.setattr(result, "kernel_stream", recording)
        plan = repro.plan(base_matrix)
        with plan.serve(engine="rlb_par", workers=2) as session:
            session.submit().result()
            got = session.submit(dtype=np.float32).result()
        assert got.dtype == np.float32 and got.engine == "rlb"
        assert walks == [] and "cpu_cost" not in plan.symb.cache()
        want = plan.factorize(engine="rlb", dtype=np.float32).result
        assert got.result.modeled_seconds == want.modeled_seconds
        assert walks == ["rlb"]

    def test_gateway_dtype_bit_identical(self, base_matrix):
        b = np.cos(np.arange(base_matrix.n))

        async def go():
            async with Gateway(engine="rlb_par", workers=2,
                               dtype=np.float32) as gw:
                return await gw.submit(base_matrix, b, tenant="t")

        x = asyncio.run(go())
        oracle = repro.plan(base_matrix).factorize(engine="rlb",
                                                   dtype=np.float32)
        assert np.array_equal(x, oracle.solve(b))


class TestCliPrecision:
    def test_factorize_reports_precision(self, capsys):
        assert cli_main(["factorize", "Fault_639", "--engine", "rlb_par",
                         "--workers", "2", "--dtype", "fp32"]) == 0
        assert "float32" in capsys.readouterr().out

    def test_solve_reports_refined_residual(self, capsys):
        assert cli_main(["solve", "Fault_639", "--engine", "rl",
                         "--dtype", "fp32"]) == 0
        out = capsys.readouterr().out
        assert "precision = float32" in out and "refined residual" in out

    def test_parser_rejects_unknown_dtype(self):
        with pytest.raises(SystemExit):
            from repro.cli import build_parser
            build_parser().parse_args(["factorize", "x", "--dtype", "fp8"])


class TestRefinementWorkPrecision:
    """A refining chain solves in the factor's own dtype — the compiled
    fp32 walk (or ``strtrs`` and fp32 products on the fp32 panels), each
    right-hand side scaled to unit max-norm before the cast — while ``x``
    and the residuals stay fp64; a plain solve keeps its float64 buffer."""

    @pytest.fixture()
    def f32(self, fp32_plan):
        return fp32_plan.factorize(dtype=np.float32)

    @staticmethod
    def _spy(monkeypatch, storage):
        """Record every Python-walk ``?trtrs`` call as ``(routine, panel is
        the factor's own memory, right-hand side dtype)`` and every compiled
        solve's buffer dtype."""
        calls, compiled = [], []

        def spied(routine):
            def call(a, b, **kw):
                calls.append((routine, np.shares_memory(a, storage.arena), b.dtype))
                return routine(a, b, **kw)

            return call

        routines = {dt: spied(fn) for dt, fn in kernels._TRTRS.items()}
        monkeypatch.setattr(kernels, "_TRTRS", routines)
        real = triangular._compiled

        def spied_compiled(storage, y, sweeps):
            compiled.append(y.dtype)
            return real(storage, y, sweeps)

        monkeypatch.setattr(triangular, "_compiled", spied_compiled)
        return calls, compiled

    def test_refinement_solves_in_fp32_on_the_panels(self, monkeypatch, f32, base_matrix):
        b = np.cos(np.arange(base_matrix.n))
        calls, compiled = self._spy(monkeypatch, f32.storage)
        out = f32.solve_refined(b, return_info=True)
        assert out.converged and out.x.dtype == np.float64
        if triangular.serial_body(f32.storage, np.float32) == "compiled":
            assert calls == [] and compiled and set(compiled) == {np.dtype(np.float32)}
        else:
            assert compiled == [] and calls
            assert set(calls) == {(lapack.strtrs, True, np.dtype(np.float32))}

    def test_plain_solve_keeps_the_float64_buffer(self, monkeypatch, f32, base_matrix):
        """An fp32 factor under a float64 buffer solves in float64: ONE
        compiled call over its exactly upcast panels, or, without a
        library, the Python walk's ``dtrtrs`` on upcast diagonal blocks."""
        b = np.cos(np.arange(base_matrix.n))
        want = f32.solve(b)
        calls, compiled = self._spy(monkeypatch, f32.storage)
        assert np.array_equal(f32.solve(b), want)
        if triangular.serial_body(f32.storage) == "compiled":
            assert calls == [] and compiled == [np.dtype(np.float64)]
        else:
            assert compiled == [] and calls
            assert set(calls) == {(lapack.dtrtrs, False, np.dtype(np.float64))}

    def test_max_iter_zero_is_the_plain_solve(self, f32, base_matrix):
        """No residual was measured, so there is nothing to fall back from:
        the chain returns ``Factor.solve``'s bits and refactorizes nothing."""
        extra = dict(f32.result.extra)
        for b in (np.cos(np.arange(base_matrix.n)), np.ones((base_matrix.n, 2))):
            out = f32.solve_refined(b, max_iter=0, return_info=True)
            assert np.array_equal(out.x, f32.solve(b))
            assert out.residual_norms == [] and out.iterations == 0
            assert out.fallback is None and f32.result.extra == extra

    @pytest.mark.parametrize("scale", [1e-300, 1e-30, 1e30, 1e300])
    def test_rhs_scale_does_not_matter(self, f32, base_matrix, scale):
        """An unscaled fp32 cast of ``b`` would overflow (1e30, 1e300) or
        flush to zero (1e-300); scaled per column it converges as ``b``."""
        b = np.cos(np.arange(base_matrix.n))
        extra = dict(f32.result.extra)
        ref = f32.solve_refined(b, return_info=True)
        out = f32.solve_refined(b * scale, return_info=True)
        assert out.converged and out.iterations == ref.iterations
        assert out.residual_norms[-1] == pytest.approx(ref.residual_norms[-1], rel=0.5)
        assert f32.residual_norm(out.x, b * scale) <= 1e-14
        block = f32.solve_refined(np.column_stack([b, b * scale]), return_info=True)
        assert block.converged and block.iterations == ref.iterations
        assert out.fallback is None and block.fallback is None
        assert f32.result.extra == extra

    @pytest.mark.parametrize("shape", ["vector", "block"])
    def test_a_shorter_chain_is_a_prefix_of_a_longer_one(self, f32, base_matrix, shape):
        """One loop: the ``x`` of a ``k``-step chain is the iterate whose
        residual the ``k+1``-step chain measures next, bit for bit."""
        n = base_matrix.n
        b = np.cos(np.outer(np.arange(n), [1.0, 2.0]))
        if shape == "vector":
            b = b[:, 0].copy()
        short = refine(base_matrix, f32.storage, f32.plan.perm, b, tol=0.0, max_iter=2)
        long = refine(base_matrix, f32.storage, f32.plan.perm, b, tol=0.0, max_iter=3)
        assert short.iterations == 2 and long.iterations == 3
        assert short.residual_norms == long.residual_norms[:2]
        assert long.residual_norms[2] == repro.solve.relative_residual(base_matrix, short.x, b)
        assert long.residual_norms[2] < long.residual_norms[0]

    def test_zero_rhs_is_converged_zeros(self, f32, base_matrix):
        extra = dict(f32.result.extra)
        for b in (np.zeros(base_matrix.n), np.zeros((base_matrix.n, 2))):
            out = f32.solve_refined(b, return_info=True)
            assert out.converged and not out.x.any() and out.fallback is None
        assert f32.result.extra == extra


class TestResidualProduct:
    """``SymmetricCSC.matvec`` — the refinement residual — against a dense
    oracle on every operand layout; it caches no values."""

    @staticmethod
    def _check(A, x):
        want = A.to_dense() @ x
        got = A.matvec(x)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_operand_layouts(self, seed):
        A = random_spd(60, density=0.1, seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((A.n, 5))
        self._check(A, X[:, 0])
        self._check(A, X)
        self._check(A, np.asfortranarray(X))
        self._check(A, X[:, ::2])
        self._check(A, rng.standard_normal(2 * A.n)[::2])

    def test_one_by_one(self):
        A = SymmetricCSC(1, [0, 1], [0], [3.0])
        assert A.matvec(np.array([2.0])).tolist() == [6.0]
        assert A.matvec(np.array([[2.0, -1.0]])).tolist() == [[6.0, -3.0]]

    def test_stored_explicit_zeros(self):
        A = grid_laplacian((5, 4))
        data = A.data.copy()
        cols = np.flatnonzero(np.diff(A.indptr) > 1)
        data[A.indptr[cols] + 1] = 0.0  # the first off-diagonal entry of each
        Z = SymmetricCSC(A.n, A.indptr, A.indices, data)
        assert Z.nnz_lower == A.nnz_lower
        self._check(Z, np.arange(A.n, dtype=float))

    def test_updated_matrix(self):
        A = grid_laplacian((5, 4))
        rng = np.random.default_rng(3)
        U = UpdatedMatrix(UpdatedMatrix(A, rng.standard_normal((A.n, 2))),
                          0.1 * rng.standard_normal(A.n), downdate=True)
        self._check(U, rng.standard_normal(A.n))
        self._check(U, rng.standard_normal((A.n, 3)))

    def test_in_place_edit_shows_in_the_next_product(self):
        A = grid_laplacian((5, 4))
        x = np.linspace(-1.0, 1.0, A.n)
        self._check(A, x)
        A.data *= 3.0
        A.data[A.indptr[2] + 1] = 7.5
        self._check(A, x)
