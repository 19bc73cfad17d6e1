"""Failure-injection tests: every engine and the device discipline must
fail loudly and precisely, not corrupt state silently."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dense import NotPositiveDefiniteError
from repro.gpu import DeviceOutOfMemory, MachineModel, SimulatedGpu
from repro.gpu.device import Timeline
from repro.numeric import (
    factorize_rl_cpu,
    factorize_rl_gpu,
    factorize_rlb_cpu,
    factorize_rlb_gpu,
    gpu_snode_mask,
    scaled_panel_entries_array,
)
from repro.numeric.registry import resolve
from repro.sparse import SymmetricCSC, grid_laplacian
from repro.symbolic import analyze
from tests.conftest import writable_twin

ALL_ENGINES = [
    ("rl", factorize_rl_cpu, {}),
    ("rlb", factorize_rlb_cpu, {}),
    ("rl_gpu", factorize_rl_gpu, dict(device_memory=10 ** 13)),
    ("rlb_gpu_v1", factorize_rlb_gpu,
     dict(version=1, device_memory=10 ** 13)),
    ("rlb_gpu_v2", factorize_rlb_gpu,
     dict(version=2, device_memory=10 ** 13)),
]


def indefinite_system(j=None):
    """An analyzed system whose matrix is *not* positive definite: the
    diagonal entry of permuted column ``j`` flipped (default: the last,
    deep enough into the elimination to pass the early pivots)."""
    A = grid_laplacian((5, 5))
    system = analyze(A)
    B = system.matrix
    data = B.data.copy()
    if j is None:
        j = B.n - 1
    for p in range(B.indptr[j], B.indptr[j + 1]):
        if B.indices[p] == j:
            data[p] = -50.0
    bad = SymmetricCSC(B.n, B.indptr, B.indices, data)
    return system.symb, bad


class TestNotPositiveDefinite:
    @pytest.mark.parametrize("name,fn,kwargs", ALL_ENGINES,
                             ids=[e[0] for e in ALL_ENGINES])
    def test_engines_raise_on_indefinite(self, name, fn, kwargs):
        symb, bad = indefinite_system()
        with pytest.raises(NotPositiveDefiniteError):
            fn(symb, bad, **kwargs)

    @pytest.mark.parametrize("name", ["rl_gpu", "rlb_gpu_v2", "rlb_gpu_v1"])
    def test_device_out_of_memory_before_any_numerics(self, name):
        """A gpu row walks its modeled schedule before it factors: with the
        first pivot broken on a host-path supernode and only the largest
        supernode offloaded onto a device too small for its panel, the row
        raises DeviceOutOfMemory (a property of the pattern), not the
        pivot's NotPositiveDefiniteError."""
        symb, bad = indefinite_system(0)
        largest = float(scaled_panel_entries_array(
            MachineModel(), np.diff(symb.rowptr) * np.diff(symb.snptr)).max())
        offload = gpu_snode_mask(symb, largest)
        assert offload.any() and not offload[0]
        spec, kwargs = resolve(name, threshold=largest, device_memory=16)
        with pytest.raises(NotPositiveDefiniteError):
            factorize_rl_cpu(symb, bad)
        with pytest.raises(DeviceOutOfMemory):
            spec.fn(symb, bad, **kwargs)

    def test_pivot_index_reported(self):
        symb, bad = indefinite_system()
        with pytest.raises(NotPositiveDefiniteError) as ei:
            factorize_rl_cpu(symb, bad)
        assert ei.value.pivot >= 0


class TestDeviceDiscipline:
    def test_use_after_free_raises(self):
        gpu = SimulatedGpu(10 ** 9, machine=MachineModel(),
                           timeline=Timeline())
        buf = gpu.h2d(8 * 4 * 4)
        gpu.free(buf)
        with pytest.raises(RuntimeError, match="freed"):
            gpu.potrf(buf, 4)

    def test_kernel_after_blocking_d2h_raises(self):
        """Reading a buffer on the device after it was handed back to the
        host is a transfer-ordering bug; the simulator catches it."""
        gpu = SimulatedGpu(10 ** 9, machine=MachineModel(),
                           timeline=Timeline())
        buf = gpu.h2d(8 * 4 * 4)
        gpu.d2h(buf)
        with pytest.raises(RuntimeError, match="host"):
            gpu.potrf(buf, 4)

    def test_keep_on_device_snapshot_allows_reuse(self):
        gpu = SimulatedGpu(10 ** 9, machine=MachineModel(),
                           timeline=Timeline())
        buf = gpu.h2d(8 * 4 * 4)
        handle = gpu.d2h_async(buf)
        gpu.wait(handle, keep_on_device=True)
        gpu.potrf(buf, 4)  # must not raise

    def test_double_free_is_idempotent(self):
        gpu = SimulatedGpu(10 ** 9, machine=MachineModel(),
                           timeline=Timeline())
        buf = gpu.h2d(8 * 4 * 4)
        gpu.free(buf)
        gpu.free(buf)
        assert gpu.used == 0.0

    def test_oom_leaves_accounting_consistent(self):
        gpu = SimulatedGpu(1000, machine=MachineModel(), timeline=Timeline())
        with pytest.raises(DeviceOutOfMemory) as ei:
            gpu.h2d(8 * 64 * 64)
        assert ei.value.requested > ei.value.free
        assert gpu.used == 0.0  # failed alloc must not leak


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, bad):
        """NaN/Inf never reaches a kernel: ``plan.factorize``,
        ``factorize_batch`` (naming the batch position) and
        ``Gateway.submit`` raise the typed error, and the gateway keeps
        serving."""
        import asyncio

        import repro
        from repro.serving import Gateway

        A = grid_laplacian((4, 4))
        plan = repro.plan(A)
        values = A.data.copy()
        values[3] = bad
        with pytest.raises(repro.NonFiniteValuesError) as ei:
            plan.factorize(values, engine="rl")
        assert isinstance(ei.value, ValueError)
        assert ei.value.count == 1 and ei.value.batch_index is None
        with pytest.raises(repro.NonFiniteValuesError) as ei:
            plan.factorize_batch([A.data, A.data, values], engine="rl_par",
                                 workers=2)
        assert ei.value.batch_index == 2
        assert "batch matrix 2" in str(ei.value)
        b = np.ones(A.n)

        async def go():
            async with Gateway(workers=2) as gw:
                good = await gw.submit(A, b)
                with pytest.raises(repro.NonFiniteValuesError):
                    await gw.submit(
                        SymmetricCSC(A.n, A.indptr, A.indices, values,
                                     check=False), b)
                again = await gw.submit(A, b)
                return good, again, gw.stats()

        good, again, stats = asyncio.run(go())
        assert np.array_equal(good, again)
        assert stats.in_flight == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_update_vectors_refused(self, bad):
        """A NaN/Inf entry of ``W`` used to sweep NaN into the panels (the
        pivot test is false for NaN) and, through the gateway, into the
        pattern's base factor.  Every door refuses it where the values
        enter — ``update_cost`` alone ignores values — and a valid update
        after the refused one succeeds."""
        import asyncio

        import repro
        from repro.serving import Gateway
        from repro.update import structured_update

        A = grid_laplacian((6, 5))
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl")
        good = structured_update(plan.symb, plan.perm, [3, 11], nent=3, seed=1, scale=0.1)
        W = good.copy()
        W[np.flatnonzero(W[:, 1])[0], 1] = bad
        before = factor.storage.arena.copy()
        doors = [
            lambda: factor.update(W),
            lambda: factor.downdate(W),
            lambda: factor.apply(W),
            lambda: factor.apply(W, policy="refactorize"),
        ]
        for door in doors:
            with pytest.raises(repro.NonFiniteValuesError, match="update vectors") as ei:
                door()
            assert ei.value.count == 1 and ei.value.what == "update vectors"
        assert np.array_equal(factor.storage.arena, before)
        assert factor.update_cost(W) == factor.update_cost(good)  # pattern only
        b = np.ones(A.n)
        want = factor.update(good).solve(b)
        with plan.serve(engine="rl_par", workers=2) as session:
            with pytest.raises(repro.NonFiniteValuesError, match="update vectors"):
                session.submit_update(factor, W, b=b)
            assert np.array_equal(session.submit_update(factor, good, b=b).result(timeout=60), want)

        async def go():
            async with Gateway(workers=2, tenant_budget=1) as gw:
                fp = gw.fingerprint(A)
                base = await gw.submit(A)
                for rhs in (None, b):
                    with pytest.raises(repro.NonFiniteValuesError, match="update vectors"):
                        await gw.submit_update(fp, W, rhs)
                stats = gw.stats()
                return base, await gw.submit_update(fp, good, b), stats

        base, served, stats = asyncio.run(go())
        assert stats.in_flight == 0 and stats.updates == 0
        assert np.array_equal(served, base.update(good).solve(b))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_refused(self, bad):
        """A NaN/Inf right-hand side is refused once, where every solve door
        validates it — not solved ``max_iter`` times by a refinement whose
        every comparison is false, and never served.  The session and the
        gateway fail that request only."""
        import asyncio

        import repro
        from repro.serving import Gateway

        A = grid_laplacian((6, 5))
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl")
        good = np.ones(A.n)
        b = good.copy()
        b[4] = bad
        block = np.ones((A.n, 3))
        block[2, 1] = bad
        doors = [
            lambda: factor.solve(b),
            lambda: factor.solve(block, workers=2),
            lambda: factor.solve_refined(b),
        ]
        for door in doors:
            with pytest.raises(repro.NonFiniteValuesError) as ei:
                door()
            assert ei.value.count == 1
        want = factor.solve(good)
        with plan.serve(engine="rl_par", workers=2) as session:
            for refine in (False, True):
                with pytest.raises(repro.NonFiniteValuesError):
                    session.submit_solve(None, b, refine=refine)
            assert np.array_equal(session.submit_solve(None, good).result(timeout=60), want)

        async def go():
            async with Gateway(workers=2) as gw:
                with pytest.raises(repro.NonFiniteValuesError):
                    await gw.submit(A, b)
                return await gw.submit(A, good), gw.stats()

        served, stats = asyncio.run(go())
        assert np.allclose(served, want) and stats.in_flight == 0

    def test_non_finite_rhs_is_named(self):
        """The error says *what* is not finite: a vector is not "values"."""
        import repro

        A = grid_laplacian((6, 5))
        factor = repro.plan(A).factorize(engine="rl")
        b = np.ones(A.n)
        b[4] = np.nan
        with pytest.raises(repro.NonFiniteValuesError, match="right-hand side") as ei:
            factor.solve(b)
        assert ei.value.what == "right-hand side" and "values" not in str(ei.value)
        values = A.data.copy()
        values[0] = np.inf
        with pytest.raises(repro.NonFiniteValuesError, match="in the values") as ei:
            factor.plan.factorize(values)
        assert ei.value.what == "values"

    def test_one_validation_per_solve(self, monkeypatch):
        """A right-hand side is validated once at the door and the solution
        checked once on the way out — per ``Factor.solve`` and per step of
        ``solve_refined`` — not once per sweep (it was four times)."""
        import repro
        from repro import api
        from repro.solve import triangular

        calls = []
        for module in (api, triangular):
            def counted(x, what, _real=module.check_finite):
                calls.append(what)
                return _real(x, what)

            monkeypatch.setattr(module, "check_finite", counted)
        A = grid_laplacian((9, 8))
        plan = repro.plan(A)
        rng = np.random.default_rng(0)
        b, B = rng.standard_normal(A.n), rng.standard_normal((A.n, 3))
        factor = plan.factorize(engine="rl")
        calls.clear()
        for how in (dict(), dict(workers=2)):
            for rhs in (b, B):
                factor.solve(rhs, **how)
                assert calls == ["right-hand side", "solution"], how
                calls.clear()
        f32 = plan.factorize(engine="rl", dtype=np.float32)
        calls.clear()
        info = f32.solve_refined(b, tol=1e-13, return_info=True, fallback=False)
        steps = info.iterations if info.converged else info.iterations + 1
        assert steps >= 2  # the initial solve and at least one correction
        assert calls == ["right-hand side", "solution"] * steps
        calls.clear()
        with plan.serve(engine="rl_par", workers=2) as session:
            session.submit_solve(None, b).result(timeout=60)
        assert sorted(c for c in calls if c != "values") == ["right-hand side", "solution"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", ["leaf", "inner"])
    def test_overflowing_sweep_raises_the_typed_solution_error(self, where):
        """A pivot overwritten in place with 1e-320: the forward sweep
        overflows.  Every lane raises the typed error naming the *solution*
        (it used to surface as "values contain N non-finite entries" from the
        backward sweep's entry check) and serves again once repaired."""
        import repro

        A = grid_laplacian((6, 5, 2))
        plan = repro.plan(A)
        factor = writable_twin(plan.factorize(engine="rl"))  # a returned factor is read-only
        parents = plan.symb.sn_parent
        leaves = np.bincount(parents[parents >= 0], minlength=plan.symb.nsup) == 0
        s = int(np.flatnonzero(leaves if where == "leaf" else ~leaves)[0])
        b = np.ones(A.n)
        want = factor.solve(b)
        panel = factor.storage.panels[s]
        kept = panel[0, 0]
        for how in (dict(), dict(workers=2)):
            panel[0, 0] = 1e-320
            with pytest.raises(repro.NonFiniteValuesError, match="solution") as ei:
                factor.solve(b, **how)
            assert ei.value.what == "solution" and ei.value.count > 0
            with pytest.raises(repro.NonFiniteValuesError, match="solution"):
                factor.solve_refined(b)
            panel[0, 0] = kept
            assert np.array_equal(factor.solve(b, **how), want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_solution_fails_one_request_only(self):
        """Finite (denormal) values whose factor overflows the solve: the
        session and the gateway fail that request with the typed solution
        error and keep serving."""
        import asyncio

        import repro
        from repro.serving import Gateway

        A = grid_laplacian((6, 5))
        plan = repro.plan(A)
        b = np.ones(A.n)
        tiny = A.data * 1e-310
        want = plan.factorize(engine="rl").solve(b)
        with plan.serve(engine="rl_par", workers=2) as session:
            for refine in (False, True):
                bad = session.submit_solve(tiny, b, refine=refine)
                good = session.submit_solve(None, b, refine=refine)
                exc = bad.exception(timeout=60)
                assert isinstance(exc, repro.NonFiniteValuesError) and exc.what == "solution"
                assert np.allclose(good.result(timeout=60), want)

        async def go():
            async with Gateway(workers=2) as gw:
                with pytest.raises(repro.NonFiniteValuesError, match="solution"):
                    await gw.submit(SymmetricCSC(A.n, A.indptr, A.indices, tiny, check=False), b)
                return await gw.submit(A, b), gw.stats()

        served, stats = asyncio.run(go())
        assert np.allclose(served, want) and stats.in_flight == 0

    @pytest.mark.parametrize("workers", [2.5, "2", 2.0, None])
    def test_non_integral_workers_refused(self, workers):
        """``workers=2.5`` used to run two workers silently: every door that
        takes a worker count refuses a non-integer with ``TypeError``
        (``None`` — and integers, NumPy's included — keep working)."""
        import asyncio

        import repro
        from repro.numeric import ProcessPool
        from repro.serving import Gateway

        async def gateway(w):
            async with Gateway(workers=w):
                pass

        A = grid_laplacian((4, 4))
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl")
        doors = [
            lambda w: plan.factorize(engine="rl_par", workers=w),
            lambda w: plan.factorize_batch([A.data], engine="rl_par", workers=w),
            lambda w: plan.serve(workers=w).close(),
            lambda w: factor.solve(np.ones(A.n), workers=w),
            lambda w: asyncio.run(gateway(w)),
            lambda w: ProcessPool(w).close(),
        ]
        if workers is None:
            doors.pop()  # the default is the core count: no pool for this check
            for door in doors:
                door(None)
                door(np.int64(2))
            return
        for door in doors:
            with pytest.raises(TypeError):
                door(workers)

    def test_dimension_mismatch(self):
        sy_small = analyze(grid_laplacian((4, 4)))
        other = grid_laplacian((5, 5))
        with pytest.raises(ValueError):
            factorize_rl_cpu(sy_small.symb, other)

    def test_matrix_outside_structure_rejected(self):
        """Storage scatter must refuse entries the symbolic phase never
        predicted (a corrupted pipeline, not a user error to paper over)."""
        from repro.numeric.storage import FactorStorage

        system = analyze(grid_laplacian((4, 4)))
        A = grid_laplacian((4, 4))  # unpermuted: entries off-structure
        # build a matrix with a full first column — certainly off-structure
        import scipy.sparse as sp

        n = system.symb.n
        D = sp.eye(n, format="csc") * 4.0
        D = D.tolil()
        D[:, 0] = 1.0
        D[0, :] = 1.0
        D[0, 0] = 10.0
        bad = SymmetricCSC.from_scipy(D.tocsc())
        with pytest.raises(ValueError):
            FactorStorage.from_matrix(system.symb, bad)
