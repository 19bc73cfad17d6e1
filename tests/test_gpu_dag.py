"""Tests for the GPU offload engines — the paper's host loops over the
supernodes.

* ``rl_gpu`` / ``rlb_gpu_v2`` / ``rlb_gpu_v1`` are bit-identical to their
  serial twins ``rl`` / ``rlb`` — whole arenas, fp64 and fp32 — for every
  threshold, through every entry point
  (:func:`factorize_rl_gpu` / :func:`factorize_rlb_gpu`, the registry);
* the modeled seconds, transfer counts and
  :class:`~repro.gpu.device.DeviceOutOfMemory` accounting are pinned, as
  data, by ``tests/test_gpu_golden.py``;
* every gpu row releases all device memory it allocated;
* trace lanes of the device render next to the host lane;
* the coarse and fine DAGs at one task per supernode (the singleton cut)
  follow the pattern's updates;
* ``gpu_snode_mask`` edge cases (0 / inf / empty / singleton / NaN /
  negative) are well-formed or rejected.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.gpu import DeviceOutOfMemory, Tracer
from repro.numeric import factorize_rl_gpu, factorize_rlb_gpu, gpu_snode_mask
from repro.numeric.executor import dag_plan
from repro.numeric.registry import get_engine, resolve, serial_twin
from repro.sparse import grid_laplacian, random_spd, tridiagonal, vector_stencil
from repro.symbolic import analyze, trivial_ranges
from tests.conftest import arrow_spd, assert_factor_matches, \
    capture_devices, two_component_spd

BIG = 10 ** 15

GPU = {
    "coarse": factorize_rl_gpu,
    "fine": lambda s, m, **kw: factorize_rlb_gpu(s, m, version=2, **kw),
}


@pytest.fixture(scope="module")
def system():
    return analyze(vector_stencil((5, 5, 4), 3, seed=4))


@pytest.fixture(scope="module")
def grid_system():
    return analyze(grid_laplacian((9, 9, 3)))


def _bit_identical(a, b, symb):
    return all(np.array_equal(a.storage.panel(s), b.storage.panel(s))
               for s in range(symb.nsup))


#: gpu row -> the serial row whose factor it must repeat, byte for byte
TWINS = {"rl_gpu": "rl", "rlb_gpu_v2": "rlb", "rlb_gpu_v1": "rlb"}


class TestBitIdentity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", sorted(TWINS))
    def test_matches_serial_twin(self, system, grid_system, name, dtype):
        """Every gpu row, in either precision, all offloaded and a CPU/GPU
        split, on the vector stencil and on the 9x9x3 grid: the whole arena,
        dead space included, is its serial twin's; each fp64 factor also
        against the dense reference."""
        spec, twin = get_engine(name), get_engine(TWINS[name])
        for sy in (system, grid_system):
            ref = twin.fn(sy.symb, sy.matrix, dtype=dtype).storage.arena
            for threshold in (0, 50_000):
                res = spec.fn(sy.symb, sy.matrix, **spec.fixed, dtype=dtype,
                              threshold=threshold, device_memory=BIG)
                arena = res.storage.arena
                assert arena.dtype == ref.dtype == dtype
                assert arena.tobytes() == ref.tobytes()
                if dtype == np.float64:
                    assert_factor_matches(res, sy)

    def test_method_names(self, system):
        for version in (1, 2):
            res = factorize_rlb_gpu(system.symb, system.matrix,
                                    version=version, device_memory=BIG)
            assert res.method == f"rlb_gpu_v{version}"
        assert GPU["coarse"](system.symb, system.matrix,
                             device_memory=BIG).method == "rl_gpu"
        with pytest.raises(ValueError, match="version"):
            factorize_rlb_gpu(system.symb, system.matrix, version=3)

    def test_unknown_granularity(self, system):
        """The gpu rows are loops, not task graphs: no granularity."""
        for name in ("rl_gpu", "rlb_gpu_v2", "rlb_gpu_v1"):
            with pytest.raises(ValueError, match="granularity= is not accepted"):
                resolve(name, granularity="huge")


class TestModeledTimeParity:
    @pytest.mark.parametrize("granularity,seconds", [
        ("coarse", 0.08338973894239704), ("fine", 0.6460361237346575)])
    def test_ci_grid_repeats_the_hand_rolled_numbers(self, granularity,
                                                     seconds):
        """The 20x20x6 grid (447 supernodes, five times the golden table's
        largest pattern): modeled seconds with everything offloaded, and
        the allocation a 2 KiB device refuses, as the hand-rolled loops
        printed them on the commit that deleted them —
        exact, a drift is a changed schedule."""
        ci = analyze(grid_laplacian((20, 20, 6)))
        res = GPU[granularity](ci.symb, ci.matrix, threshold=0,
                               device_memory=BIG)
        assert res.modeled_seconds == seconds
        with pytest.raises(DeviceOutOfMemory) as oom:
            GPU[granularity](ci.symb, ci.matrix, threshold=0,
                             device_memory=2048)
        assert (oom.value.requested, oom.value.free) == (4800.0, 2048.0)


class TestMemoryParity:
    def test_all_memory_released(self, system, monkeypatch):
        """Every gpu row frees every buffer it allocated, everything
        offloaded."""
        made = capture_devices(monkeypatch)
        for name in ("rl_gpu", "rlb_gpu_v2", "rlb_gpu_v1"):
            spec, kwargs = resolve(name, threshold=0, device_memory=BIG)
            spec.fn(system.symb, system.matrix, **kwargs)
        assert len(made) == 3
        assert all(gpu.used == 0 and gpu.stats.peak_memory > 0 for gpu in made)


class TestTraceLanes:
    def test_single_device_lanes_match_hand_rolled(self, system):
        tracer = Tracer()
        factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                         device_memory=BIG, tracer=tracer)
        assert {e.lane for e in tracer.events} == {"cpu", "gpu", "copy_in",
                                                  "copy_out"}


class TestRegistryAndApi:
    def test_engines_registered(self):
        assert get_engine("rl_gpu").backend == "gpu"
        assert get_engine("rlb_gpu_v2").granularity == "fine"
        for name, twin in TWINS.items():
            assert get_engine(name).family == get_engine(twin).family
            assert serial_twin(name) == twin

    def test_v1_refactorizes_on_its_serial_twin(self):
        """``rlb_gpu_v1``'s factor is ``rlb``'s body, so a v1 factor's
        ``apply(policy="refactorize")`` runs ``rlb`` — not the simulated
        device — and gives ``rlb``'s bits."""
        import repro

        A = grid_laplacian((6, 5))
        plan = repro.plan(A)
        W = np.linspace(0.1, 1.0, A.n)[:, None]
        v1 = plan.factorize(engine="rlb_gpu_v1", device_memory=BIG)
        got = v1.apply(W, policy="refactorize")
        want = plan.factorize(engine="rlb").apply(W, policy="refactorize")
        assert got.engine == want.engine == "rlb"
        for p, q in zip(got.storage.panels, want.storage.panels, strict=True):
            assert np.array_equal(p, q)

    def test_plan_factorize_backend(self, system):
        import repro

        A = vector_stencil((5, 5, 4), 3, seed=4)
        plan = repro.plan(A)
        f_thr = plan.factorize(engine="rlb_par", workers=2)
        f_gpu = plan.factorize(engine="rlb_gpu_v2", device_memory=BIG)
        assert f_thr.engine == "rlb_par"
        assert f_gpu.engine == "rlb_gpu_v2"
        assert _bit_identical(f_thr.result, f_gpu.result, plan.symb)
        with pytest.raises(ValueError, match="devices"):
            plan.factorize(engine="rl", devices=2)
        with pytest.raises(ValueError, match="workers"):
            plan.factorize(engine="rl_gpu", workers=2)
        # the row is named, never re-targeted: backend= is one more option
        # no engine takes
        with pytest.raises(ValueError) as want:
            resolve("rlb", backend="gpu")
        assert str(want.value) == "backend= is not accepted by engine 'rlb'; accepted by: no engine"
        with pytest.raises(ValueError) as got:
            plan.factorize(engine="rlb", backend="gpu")
        assert str(got.value) == str(want.value)


DAG_PATTERNS = {
    "grid": lambda: grid_laplacian((8, 8, 3)),
    "vec": lambda: vector_stencil((5, 5, 4), 3, seed=7),
    "random": lambda: random_spd(120, density=0.05, seed=3),
    "tridiag": lambda: tridiagonal(16),
    "arrow": lambda: arrow_spd(12),
    "two_component": lambda: two_component_spd(6),
}


@pytest.fixture(scope="module", params=sorted(DAG_PATTERNS))
def dag_symb(request):
    return analyze(DAG_PATTERNS[request.param]()).symb


class TestFactorizationGraphs:
    """The task DAGs at one task per supernode: ``dag_plan`` over the
    singleton cut."""

    def test_coarse_task_per_snode(self, dag_symb):
        plan = dag_plan(dag_symb, "coarse", trivial_ranges(dag_symb))
        assert plan.ntasks == dag_symb.nsup
        assert list(plan.ranges.bounds) == list(range(dag_symb.nsup + 1))

    def test_fine_task_per_snode(self, dag_symb):
        """No task of its own for a block pair: a supernode's pairs run in
        its own task and are parked for their owners."""
        plan = dag_plan(dag_symb, "fine", trivial_ranges(dag_symb))
        assert plan.ntasks == dag_symb.nsup == len(plan.incoming)

    def test_coarse_edges_follow_updates(self, dag_symb):
        plan = dag_plan(dag_symb, "coarse", trivial_ranges(dag_symb))
        for s in range(dag_symb.nsup):
            below = dag_symb.snode_below_rows(s)
            owners = set(np.unique(dag_symb.col2sn[below]).tolist())
            assert set(plan.children[s]) == owners
            assert plan.indeg[s] == sum(s in kids for kids in plan.children)

    def test_fine_edges_follow_updates(self, dag_symb):
        """A supernode feeds the owners of its blocks, each once, and every
        pair it parks is pulled by its owner's task."""
        plan = dag_plan(dag_symb, "fine", trivial_ranges(dag_symb))
        for s in range(dag_symb.nsup):
            below = dag_symb.snode_below_rows(s)
            owners = set(np.unique(dag_symb.col2sn[below]).tolist())
            assert sorted(plan.children[s]) == sorted(owners)
            assert plan.indeg[s] == sum(s in kids for kids in plan.children)
            for slot in plan.pair_ids[s]:
                owner = plan.targets[slot][0]
                assert owner in owners and slot in plan.incoming[owner]


class TestRefinement:
    def test_solve_refined_is_refine(self, grid_system):
        import repro
        from repro.solve import refine

        A = grid_laplacian((9, 9, 3))
        factor = repro.plan(A).factorize(engine="rl")
        b = np.random.default_rng(2).standard_normal(A.n)
        ref = refine(A, factor.storage, factor.plan.perm, b, tol=1e-30, max_iter=3)
        out = factor.solve_refined(b, tol=1e-30, max_iter=3, return_info=True)
        assert np.array_equal(out.x, ref.x)
        assert out.residual_norms == ref.residual_norms and out.iterations == 3

    def test_serving_refine_chain(self, grid_system):
        import repro
        from repro.sparse import spd_value_sweep

        A = grid_laplacian((9, 9, 3))
        plan = repro.plan(A)
        datas = spd_value_sweep(A, 3, seed=5)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(A.n)
        with plan.serve(engine="rlb_par", workers=3) as session:
            futs = [session.submit_solve(d, b, refine=True, tol=1e-30,
                                         max_iter=2) for d in datas]
            xs = [f.result() for f in futs]
        for d, x in zip(datas, xs):
            ref = plan.factorize(d, engine="rlb").solve_refined(
                b, tol=1e-30, max_iter=2)
            assert np.array_equal(x, ref)


class TestThresholdVectorization:
    def test_matches_scalar_loop(self, system):
        from repro.gpu import MachineModel
        from repro.numeric import gpu_snode_mask, scaled_panel_entries_array

        machine = MachineModel()
        symb = system.symb
        m = np.diff(symb.rowptr)
        w = np.diff(symb.snptr)
        scalar = np.array([machine.scaled_panel_entries(int(e))
                           for e in m * w])
        vec = scaled_panel_entries_array(machine, m * w)
        assert np.allclose(vec, scalar, rtol=1e-12)
        for thr in (0, 50_000, 200_000, 10 ** 14):
            mask = gpu_snode_mask(symb, thr, machine=machine)
            assert mask.dtype == np.bool_
            assert np.array_equal(mask, scalar >= thr)

    def test_clamps(self):
        from repro.gpu import MachineModel
        from repro.numeric import scaled_panel_entries_array

        machine = MachineModel()
        out = scaled_panel_entries_array(
            machine, np.array([0.0, machine.entries_lo / 2,
                               machine.entries_hi * 10]))
        assert out[0] == 0.0
        assert out[1] == machine.entries_lo / 2  # below the ramp: sigma=1
        assert out[2] == pytest.approx(
            machine.entries_hi * 10 * machine.dilation ** 2)


class TestMaskEdgeCases:
    """gpu_snode_mask degenerate inputs."""

    def test_zero_offloads_everything(self, system):
        mask = gpu_snode_mask(system.symb, 0)
        assert mask.dtype == np.bool_
        assert mask.shape == (system.symb.nsup,)
        assert mask.all()

    def test_inf_keeps_everything_on_cpu(self, system):
        mask = gpu_snode_mask(system.symb, float("inf"))
        assert not mask.any()

    def test_negative_rejected(self, system):
        with pytest.raises(ValueError, match=">= 0"):
            gpu_snode_mask(system.symb, -1)

    def test_nan_rejected(self, system):
        with pytest.raises(ValueError, match="NaN"):
            gpu_snode_mask(system.symb, float("nan"))

    def test_empty_pattern(self):
        symb = SimpleNamespace(rowptr=np.zeros(1, dtype=np.int64),
                               snptr=np.zeros(1, dtype=np.int64))
        mask = gpu_snode_mask(symb, 100.0)
        assert mask.dtype == np.bool_
        assert mask.shape == (0,)

    def test_singleton_supernode(self):
        symb = SimpleNamespace(rowptr=np.array([0, 4], dtype=np.int64),
                               snptr=np.array([0, 2], dtype=np.int64))
        assert gpu_snode_mask(symb, 0).tolist() == [True]
        assert gpu_snode_mask(symb, float("inf")).tolist() == [False]
        assert gpu_snode_mask(symb, 100.0).shape == (1,)
