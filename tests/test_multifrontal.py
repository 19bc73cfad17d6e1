"""Tests for the multifrontal engine (CPU and GPU-offloaded)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import DeviceOutOfMemory, MachineModel, SimulatedGpu
from repro.gpu.device import Timeline
from repro.numeric import (
    factorize_multifrontal,
    factorize_multifrontal_gpu,
    factorize_rl_cpu,
    front_relative_indices,
    peak_front_entries,
)
from repro.sparse import grid_laplacian, random_spd
from repro.symbolic import analyze

from tests.conftest import assert_factor_matches


@pytest.fixture(scope="module")
def grid_system():
    return analyze(grid_laplacian((7, 7, 3)))


class TestFrontRelativeIndices:
    def test_child_rows_land_on_themselves(self, grid_system):
        symb = grid_system.symb
        for c in range(symb.nsup):
            p = symb.sn_parent[c]
            if p < 0:
                continue
            rel = front_relative_indices(symb, c, p)
            prows = symb.snode_rows(p)
            np.testing.assert_array_equal(
                prows[rel], symb.snode_below_rows(c)
            )

    def test_rel_indices_strictly_increasing(self, grid_system):
        symb = grid_system.symb
        for c in range(symb.nsup):
            p = symb.sn_parent[c]
            if p < 0:
                continue
            rel = front_relative_indices(symb, c, p)
            if rel.size > 1:
                assert (np.diff(rel) > 0).all()


class TestMultifrontalCpu:
    def test_factor_matches_dense_reference(self, grid_system):
        res = factorize_multifrontal(grid_system.symb, grid_system.matrix)
        assert_factor_matches(res, grid_system)

    def test_matches_rl_factor_exactly(self, grid_system):
        """All engines share storage layout; factors agree to roundoff."""
        mf = factorize_multifrontal(grid_system.symb, grid_system.matrix)
        rl = factorize_rl_cpu(grid_system.symb, grid_system.matrix)
        for s in range(grid_system.symb.nsup):
            np.testing.assert_allclose(
                mf.storage.panel(s), rl.storage.panel(s),
                rtol=0, atol=1e-9,
            )

    def test_random_spd(self):
        system = analyze(random_spd(90, density=0.06, seed=11))
        res = factorize_multifrontal(system.symb, system.matrix)
        assert_factor_matches(res, system)

    def test_result_metadata(self, grid_system):
        res = factorize_multifrontal(grid_system.symb, grid_system.matrix)
        assert res.method == "multifrontal"
        assert res.total_snodes == grid_system.symb.nsup
        assert res.modeled_seconds > 0
        assert res.best_threads in res.cpu_times_by_threads
        assert res.extra["peak_stack_bytes"] > 0
        assert res.extra["peak_front_entries"] == peak_front_entries(
            grid_system.symb
        )

    def test_peak_stack_below_total_update_bytes(self, grid_system):
        """The stack never holds more than the sum of all update matrices
        (and for a tree with real depth, strictly less)."""
        symb = grid_system.symb
        res = factorize_multifrontal(symb, grid_system.matrix)
        total = sum(
            (symb.panel_shape(s)[0] - symb.panel_shape(s)[1]) ** 2 * 8
            for s in range(symb.nsup)
        )
        assert 0 < res.extra["peak_stack_bytes"] <= total

    def test_flops_match_rl(self, grid_system):
        """Same partial-factorization kernels as RL -> same modeled flops."""
        mf = factorize_multifrontal(grid_system.symb, grid_system.matrix)
        rl = factorize_rl_cpu(grid_system.symb, grid_system.matrix)
        assert mf.flops == pytest.approx(rl.flops, rel=1e-12)


class TestMultifrontalGpu:
    def test_factor_matches_dense_reference(self, grid_system):
        res = factorize_multifrontal_gpu(
            grid_system.symb, grid_system.matrix, threshold=0,
            device_memory=10 ** 12,
        )
        assert_factor_matches(res, grid_system)

    def test_threshold_splits_work(self, grid_system):
        res = factorize_multifrontal_gpu(
            grid_system.symb, grid_system.matrix,
            threshold=50_000, device_memory=10 ** 12,
        )
        assert 0 <= res.snodes_on_gpu <= res.total_snodes
        assert_factor_matches(res, grid_system)

    def test_all_cpu_when_threshold_huge(self, grid_system):
        res = factorize_multifrontal_gpu(
            grid_system.symb, grid_system.matrix,
            threshold=10 ** 18, device_memory=10 ** 12,
        )
        assert res.snodes_on_gpu == 0
        assert res.gpu_stats.kernels == 0
        assert_factor_matches(res, grid_system)

    def test_out_of_memory_on_tiny_device(self, grid_system):
        """A device too small for the largest front must raise."""
        with pytest.raises(DeviceOutOfMemory):
            factorize_multifrontal_gpu(
                grid_system.symb, grid_system.matrix,
                threshold=0, device_memory=1024,
            )

    def test_device_memory_returned_to_zero(self, grid_system):
        machine = MachineModel()
        gpu = SimulatedGpu(10 ** 12, machine=machine, timeline=Timeline())
        factorize_multifrontal_gpu(
            grid_system.symb, grid_system.matrix,
            threshold=0, machine=machine, device=gpu,
        )
        assert gpu.used == 0.0
        assert gpu.stats.peak_memory > 0

    def test_gpu_front_working_set_exceeds_rl(self, grid_system):
        """The multifrontal device working set (m^2 front) is at least the
        RL update matrix (b^2) for every supernode."""
        symb = grid_system.symb
        m = np.diff(symb.rowptr)
        w = np.diff(symb.snptr)
        assert (m * m >= (m - w) ** 2).all()

    def test_modeled_time_positive_and_counts(self, grid_system):
        res = factorize_multifrontal_gpu(
            grid_system.symb, grid_system.matrix,
            threshold=0, device_memory=10 ** 12,
        )
        assert res.modeled_seconds > 0
        assert res.snodes_on_gpu == res.total_snodes
        assert res.gpu_stats.transfers >= 2 * res.total_snodes
        assert res.method == "multifrontal_gpu"


class TestSolverIntegration:
    @pytest.mark.parametrize("method", ["multifrontal", "multifrontal_gpu"])
    def test_solver_driver(self, method):
        import repro

        A = grid_laplacian((6, 6, 2))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(A.n)
        factor = repro.plan(A).factorize(engine=method)
        x = factor.solve(b)
        assert factor.residual_norm(x, b) < 1e-10
