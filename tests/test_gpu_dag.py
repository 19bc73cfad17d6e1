"""Tests for the GPU offload engines — the task DAGs on the stream backend.

* ``rl_gpu`` / ``rlb_gpu_v2`` are bit-identical to the serial CPU engines
  for every threshold, through every entry point (:func:`factorize_gpu_dag`,
  :func:`factorize_rl_gpu` / :func:`factorize_rlb_gpu`, the registry);
* the modeled seconds, transfer counts and
  :class:`~repro.gpu.device.DeviceOutOfMemory` accounting of the
  hand-rolled loops these engines replaced are pinned, as data, by
  ``tests/test_gpu_golden.py``;
* trace lanes of the stream backend render next to the host lane;
* the offloaded solve overlaps independent branches, charges panels at
  the factor's itemsize, keeps its pinned clock and is the clock
  ``offload_estimate`` reports;
* the coarse and fine DAGs at one task per supernode follow the pattern's
  updates;
* ``gpu_snode_mask`` edge cases (0 / inf / empty / singleton / NaN /
  negative) are well-formed or rejected.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.gpu import DeviceOutOfMemory, MachineModel, Tracer
from repro.numeric import (
    factorize_gpu_dag,
    factorize_rl_cpu,
    factorize_rl_gpu,
    factorize_rlb_cpu,
    factorize_rlb_gpu,
    gpu_snode_mask,
)
from repro.numeric.executor import GpuStreamBackend, dag_plan
from repro.numeric.registry import BACKENDS, backend_engine, get_engine, \
    serial_twin
from repro.sparse import grid_laplacian, random_spd, tridiagonal, vector_stencil
from repro.symbolic import analyze, trivial_ranges
from tests.conftest import arrow_spd, assert_factor_matches, two_component_spd

BIG = 10 ** 15

HAND_ROLLED = {
    "coarse": lambda s, m, thr: factorize_rl_gpu(
        s, m, threshold=thr, device_memory=BIG),
    "fine": lambda s, m, thr: factorize_rlb_gpu(
        s, m, version=2, threshold=thr, device_memory=BIG),
}
SERIAL = {"coarse": factorize_rl_cpu, "fine": factorize_rlb_cpu}


@pytest.fixture(scope="module")
def system():
    return analyze(vector_stencil((5, 5, 4), 3, seed=4))


@pytest.fixture(scope="module")
def grid_system():
    return analyze(grid_laplacian((9, 9, 3)))


def _bit_identical(a, b, symb):
    return all(np.array_equal(a.storage.panel(s), b.storage.panel(s))
               for s in range(symb.nsup))


class TestBitIdentity:
    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    @pytest.mark.parametrize("threshold", [0, 100_000, 10 ** 14])
    def test_matches_hand_rolled_twin(self, system, granularity, threshold):
        ref = HAND_ROLLED[granularity](system.symb, system.matrix, threshold)
        res = factorize_gpu_dag(system.symb, system.matrix,
                                granularity=granularity, threshold=threshold,
                                device_memory=BIG)
        assert _bit_identical(res, ref, system.symb)
        assert res.snodes_on_gpu == ref.snodes_on_gpu
        assert_factor_matches(res, system)

    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    def test_matches_serial_twin(self, system, grid_system, granularity):
        """All offloaded and a CPU/GPU split, on the vector stencil and on
        the 9x9x3 grid; each factor also against the dense reference."""
        for sy in (system, grid_system):
            ref = SERIAL[granularity](sy.symb, sy.matrix)
            for threshold in (0, 50_000):
                res = factorize_gpu_dag(sy.symb, sy.matrix,
                                        granularity=granularity,
                                        threshold=threshold, device_memory=BIG)
                assert _bit_identical(res, ref, sy.symb)
                assert_factor_matches(res, sy)

    def test_method_names(self, system):
        rl = factorize_gpu_dag(system.symb, system.matrix,
                               granularity="coarse", device_memory=BIG)
        rlb = factorize_gpu_dag(system.symb, system.matrix,
                                granularity="fine", device_memory=BIG)
        assert rl.method == "rl_gpu"
        assert rlb.method == "rlb_gpu_v2"

    def test_unknown_granularity(self, system):
        with pytest.raises(ValueError, match="granularity"):
            factorize_gpu_dag(system.symb, system.matrix, granularity="huge")


class TestModeledTimeParity:
    """Acceptance: modeled time within 5% of the hand-rolled schedules —
    the deterministic priority order reproduces them exactly, so the bound
    here is far tighter."""

    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    @pytest.mark.parametrize("threshold", [0, 100_000])
    def test_single_device_time_reproduced(self, system, granularity,
                                           threshold):
        ref = HAND_ROLLED[granularity](system.symb, system.matrix, threshold)
        res = factorize_gpu_dag(system.symb, system.matrix,
                                granularity=granularity, threshold=threshold,
                                device_memory=BIG)
        assert res.modeled_seconds == pytest.approx(ref.modeled_seconds,
                                                    rel=0.05)
        # the schedules are in fact identical, operation for operation
        assert res.modeled_seconds == pytest.approx(ref.modeled_seconds,
                                                    rel=1e-12)
        assert res.gpu_stats.transfers == ref.gpu_stats.transfers
        assert res.gpu_stats.peak_memory == ref.gpu_stats.peak_memory
        assert res.kernel_count == ref.kernel_count

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
        res = factorize_gpu_dag(ci.symb, ci.matrix, granularity=granularity,
                                threshold=0, device_memory=BIG)
        assert res.modeled_seconds == seconds
        with pytest.raises(DeviceOutOfMemory) as oom:
            factorize_gpu_dag(ci.symb, ci.matrix, granularity=granularity,
                              threshold=0, device_memory=2048)
        assert (oom.value.requested, oom.value.free) == (4800.0, 2048.0)

    def test_work_totals_match(self, system):
        ref = HAND_ROLLED["coarse"](system.symb, system.matrix, 0)
        res = factorize_gpu_dag(system.symb, system.matrix,
                                granularity="coarse", threshold=0,
                                device_memory=BIG)
        assert res.flops == pytest.approx(ref.flops, rel=1e-12)
        assert res.assembly_bytes == pytest.approx(ref.assembly_bytes,
                                                   rel=1e-12)


class TestMemoryParity:
    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    def test_oom_matches_hand_rolled(self, system, granularity):
        hand = {"coarse": factorize_rl_gpu,
                "fine": lambda s, m, **kw: factorize_rlb_gpu(s, m,
                                                             version=2,
                                                             **kw)}
        with pytest.raises(DeviceOutOfMemory) as ref:
            hand[granularity](system.symb, system.matrix, threshold=0,
                              device_memory=2048)
        with pytest.raises(DeviceOutOfMemory) as got:
            factorize_gpu_dag(system.symb, system.matrix,
                              granularity=granularity, threshold=0,
                              device_memory=2048)
        # same supernode, same allocation: identical accounting
        assert got.value.requested == ref.value.requested
        assert got.value.free == ref.value.free
        assert got.value.capacity == ref.value.capacity

    def test_all_memory_released(self, system):
        backend = GpuStreamBackend(device_memory=BIG)
        factorize_gpu_dag(system.symb, system.matrix, granularity="fine",
                          threshold=0, backend=backend)
        assert backend.gpu.used == 0


class TestTraceLanes:
    def test_single_device_lanes_match_hand_rolled(self, system):
        tracer = Tracer()
        factorize_gpu_dag(system.symb, system.matrix, granularity="coarse",
                          threshold=0, device_memory=BIG, tracer=tracer)
        assert {e.lane for e in tracer.events} == {"cpu", "gpu", "copy_in",
                                                  "copy_out"}


class TestRegistryAndApi:
    def test_engines_registered(self):
        assert get_engine("rl_gpu").backend == "gpu"
        assert get_engine("rlb_gpu_v2").granularity == "fine"
        assert serial_twin("rl_gpu") == "rl"
        assert serial_twin("rlb_gpu_v2") == "rlb"

    def test_backend_engine_mapping(self):
        assert BACKENDS["gpu"]["coarse"] == "rl_gpu"
        assert backend_engine("rl_par", "gpu") == "rl_gpu"
        assert backend_engine("rlb_gpu_v2", "threads") == "rlb_par"
        assert backend_engine("rl", "gpu") == "rl_gpu"
        with pytest.raises(ValueError, match="unknown backend"):
            backend_engine("rl_par", "quantum")
        with pytest.raises(ValueError, match="family"):
            backend_engine("multifrontal", "gpu")

    def test_plan_factorize_backend(self, system):
        import repro

        A = vector_stencil((5, 5, 4), 3, seed=4)
        plan = repro.plan(A)
        f_thr = plan.factorize(engine="rlb_par", backend="threads",
                               workers=2)
        f_gpu = plan.factorize(engine="rlb_par", backend="gpu",
                               device_memory=BIG)
        assert f_thr.engine == "rlb_par"
        assert f_gpu.engine == "rlb_gpu_v2"
        assert _bit_identical(f_thr.result, f_gpu.result, plan.symb)
        with pytest.raises(ValueError, match="devices"):
            plan.factorize(engine="rl", devices=2)
        with pytest.raises(ValueError, match="workers"):
            plan.factorize(engine="rl", backend="gpu", workers=2)

    def test_gpu_solve_mode_dispatch(self, system):
        import repro

        A = vector_stencil((5, 5, 4), 3, seed=4)
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl")
        rng = np.random.default_rng(0)
        b = rng.standard_normal((A.n, 3))
        x = factor.solve(b)
        assert np.array_equal(x, factor.solve(b, mode="gpu"))

    def test_offload_estimate(self, system):
        import repro

        A = vector_stencil((5, 5, 4), 3, seed=4)
        plan = repro.plan(A)
        est = plan.solve_plan().offload_estimate(k=4)
        assert est["rhs"] == 4
        assert est["cpu_seconds"] > 0 and est["gpu_seconds"] > 0
        assert est["recommended"] in ("cpu", "gpu")
        assert est["speedup_cold"] == pytest.approx(
            est["cpu_seconds"] / est["gpu_seconds"])


#: ``(seconds, kernel_calls, panel_h2d_bytes)`` of ``solve_factored_gpu_dag``
#: on an ``rl`` factor, as the solve graphs' clock printed them while it still
#: ran inside the graphs' numerics — exact: a drift is a changed schedule
SOLVE_CLOCK = {
    ("grid", "float64", False, 1): (0.031799848799272216, 614, 183188.35341714576),
    ("grid", "float64", False, 4): (0.0318008458467829, 614, 183188.35341714576),
    ("grid", "float64", True, 1): (0.03148764760625007, 614, 0.0),
    ("grid", "float64", True, 4): (0.031488644653760764, 614, 0.0),
    ("grid", "float32", False, 1): (0.03179874820276115, 614, 91594.17670857288),
    ("grid", "float32", False, 4): (0.031799745250271835, 614, 91594.17670857288),
    ("grid", "float32", True, 1): (0.03148764760625007, 614, 0.0),
    ("grid", "float32", True, 4): (0.031488644653760764, 614, 0.0),
    ("vec", "float64", False, 1): (0.005731427934743831, 110, 287215.85770651855),
    ("vec", "float64", False, 4): (0.005731712453235018, 110, 287215.85770651855),
    ("vec", "float64", True, 1): (0.005657577810249997, 110, 0.0),
    ("vec", "float64", True, 4): (0.005657862328741184, 110, 0.0),
    ("vec", "float32", False, 1): (0.005729502872496913, 110, 143607.92885325928),
    ("vec", "float32", False, 4): (0.0057297873909881005, 110, 143607.92885325928),
    ("vec", "float32", True, 1): (0.005657577810249997, 110, 0.0),
    ("vec", "float32", True, 4): (0.005657862328741184, 110, 0.0),
}
SOLVE_PATTERNS = {
    "grid": lambda: grid_laplacian((12, 12, 4)),
    "vec": lambda: vector_stencil((5, 5, 4), 3, seed=4),
}


class TestGpuSolveDag:
    def test_bit_identical_and_scales(self, grid_system):
        from repro.numeric import factorize_rl_cpu
        from repro.solve.gpu_solve import solve_factored_gpu_dag
        from repro.solve.triangular import solve_factored

        symb = grid_system.symb
        storage = factorize_rl_cpu(symb, grid_system.matrix).storage
        rng = np.random.default_rng(1)
        b = rng.standard_normal((symb.n, 2))
        ref = solve_factored(storage, b)
        tracer = Tracer()
        x, t, stats = solve_factored_gpu_dag(storage, b, tracer=tracer)
        assert np.array_equal(x, ref)
        assert stats["kind"] == "gpu_dag"
        # the graphs overlap independent branches on the copy and compute
        # engines: the clock is shorter than the sum of the same charges
        busy = sum(e.end - e.start for e in tracer.events
                   if e.lane in ("gpu", "copy_in", "copy_out"))
        assert t < busy
        shapes = [symb.panel_shape(s) for s in range(symb.nsup)]
        assert stats["kernel_calls"] == sum(2 + 2 * (m > w) for m, w in shapes)
        assert stats["panel_h2d_bytes"] == pytest.approx(
            sum(MachineModel().scaled_bytes(8.0 * m * w, 8) for m, w in shapes), rel=1e-12)

    def test_fp32_panels_upload_at_half_the_bytes(self):
        """An fp32 factor's panels cross the bus at four bytes an entry:
        the solve used to charge them as fp64."""
        import repro
        from repro.solve.gpu_solve import solve_factored_gpu_dag

        plan = repro.plan(grid_laplacian((12, 12, 4)))
        b = np.ones(plan.n)
        _, t64, s64 = solve_factored_gpu_dag(plan.factorize(engine="rl").storage, b)
        _, t32, s32 = solve_factored_gpu_dag(
            plan.factorize(engine="rl", dtype=np.float32).storage, b)
        assert s32["panel_h2d_bytes"] * 2 == s64["panel_h2d_bytes"] > 0
        assert t32 < t64

    def test_resident_factor_cheaper(self, grid_system):
        from repro.numeric import factorize_rl_cpu
        from repro.solve.gpu_solve import solve_factored_gpu_dag

        storage = factorize_rl_cpu(grid_system.symb,
                                   grid_system.matrix).storage
        b = np.ones(grid_system.symb.n)
        _, cold, _ = solve_factored_gpu_dag(storage, b)
        _, resident, _ = solve_factored_gpu_dag(storage, b,
                                                factor_resident=True)
        assert resident < cold

    @pytest.mark.parametrize("key", sorted(SOLVE_CLOCK), ids=lambda key: "-".join(
        (key[0], key[1], "resident" if key[2] else "cold", f"k{key[3]}")))
    def test_clock_is_pinned(self, key):
        import repro
        from repro.solve.gpu_solve import solve_factored_gpu_dag

        pattern, dtype, resident, k = key
        plan = repro.plan(SOLVE_PATTERNS[pattern]())
        factor = plan.factorize(engine="rl", dtype=np.dtype(dtype))
        B = np.ones(plan.n) if k == 1 else np.ones((plan.n, k))
        x, seconds, stats = solve_factored_gpu_dag(factor.storage, B, factor_resident=resident)
        assert (seconds, stats["kernel_calls"], stats["panel_h2d_bytes"]) == SOLVE_CLOCK[key]
        assert np.array_equal(factor.solve(B, mode="gpu"), factor.solve(B))

    @pytest.mark.parametrize("k", [1, 4])
    def test_offload_estimate_reads_the_solve_clock(self, k):
        """The pattern-only estimate and the offloaded solve of an fp64
        factor are one clock, cold and resident."""
        import repro
        from repro.solve.gpu_solve import solve_factored_gpu_dag

        plan = repro.plan(vector_stencil((5, 5, 4), 3, seed=4))
        storage = plan.factorize(engine="rl").storage
        B = np.ones((plan.n, k))
        est = plan.solve_plan().offload_estimate(k)
        assert est["gpu_seconds"] == solve_factored_gpu_dag(storage, B)[1]
        assert est["gpu_resident_seconds"] == solve_factored_gpu_dag(
            storage, B, factor_resident=True)[1]


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
    """The task DAGs the stream substrate schedules: ``dag_plan`` at one
    task per supernode."""

    def test_coarse_task_per_snode(self, dag_symb):
        plan = dag_plan(dag_symb, "coarse", trivial_ranges(dag_symb))
        assert plan.ntasks == dag_symb.nsup
        assert [plan.snode_of(t) for t in range(plan.ntasks)] == list(range(dag_symb.nsup))

    def test_fine_has_factor_plus_pairs(self, dag_symb):
        from repro.symbolic.blocks import snode_blocks

        plan = dag_plan(dag_symb, "fine", trivial_ranges(dag_symb))
        nblocks = [len(snode_blocks(dag_symb, s)) for s in range(dag_symb.nsup)]
        assert plan.ntasks == dag_symb.nsup + sum(b * (b + 1) // 2 for b in nblocks)

    def test_coarse_edges_follow_updates(self, dag_symb):
        plan = dag_plan(dag_symb, "coarse", trivial_ranges(dag_symb))
        for s in range(dag_symb.nsup):
            below = dag_symb.snode_below_rows(s)
            owners = set(np.unique(dag_symb.col2sn[below]).tolist())
            assert set(plan.children[s]) == owners
            assert plan.indeg[s] == sum(s in kids for kids in plan.children)

    def test_fine_pair_edges_target_owner_factor(self, dag_symb):
        nsup = dag_symb.nsup
        plan = dag_plan(dag_symb, "fine", trivial_ranges(dag_symb))
        feeders = [[] for _ in range(plan.ntasks)]
        for t, kids in enumerate(plan.children):
            for c in kids:
                feeders[c].append(t)
        for tid in range(nsup, plan.ntasks):
            source, upper, _ = plan.pairs[tid - nsup]
            assert feeders[tid] == [source] and plan.indeg[tid] == 1
            assert plan.children[tid] == (upper.owner,) and upper.owner < nsup


class TestRefinement:
    def test_refine_workers_bit_identical(self, grid_system):
        import repro

        A = grid_laplacian((9, 9, 3))
        plan = repro.plan(A)
        factor = plan.factorize(engine="rl")
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.n)
        ref = factor.solve_refined(b, tol=1e-30, max_iter=3)
        par = factor.solve_refined(b, tol=1e-30, max_iter=3, workers=3)
        assert np.array_equal(ref, par)

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
