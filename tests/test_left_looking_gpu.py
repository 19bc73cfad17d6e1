"""Tests for the CHOLMOD-style left-looking GPU variant (an ablation the
left-vs-right benchmark reads; not a registry row)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import DeviceOutOfMemory, MachineModel, SimulatedGpu
from repro.gpu.device import Timeline
from repro.numeric import factorize_left_looking_gpu, factorize_rl_cpu
from repro.solve import solve_factored
from repro.sparse import grid_laplacian, random_spd
from repro.symbolic import analyze

from tests.conftest import assert_factor_matches

BIG = 10 ** 13


@pytest.fixture(scope="module")
def system():
    return analyze(grid_laplacian((8, 8, 3)))


class TestCorrectness:
    @pytest.mark.parametrize("thr", [0, 50_000, 10 ** 18])
    def test_factor_matches_reference(self, system, thr):
        res = factorize_left_looking_gpu(system.symb, system.matrix,
                                         threshold=thr, device_memory=BIG)
        assert_factor_matches(res, system)

    def test_matches_rl(self, system):
        """The same panels as RL's; the strict upper triangle of a diagonal
        block is scratch that neither engine defines, so ``np.tril`` keeps
        the factor's lower trapezoid."""
        g = factorize_left_looking_gpu(system.symb, system.matrix,
                                       threshold=0, device_memory=BIG)
        c = factorize_rl_cpu(system.symb, system.matrix)
        for s in range(system.symb.nsup):
            np.testing.assert_allclose(np.tril(g.storage.panel(s)),
                                       np.tril(c.storage.panel(s)), atol=1e-12)

    def test_random_spd(self):
        system = analyze(random_spd(80, density=0.08, seed=13))
        res = factorize_left_looking_gpu(system.symb, system.matrix,
                                         threshold=0, device_memory=BIG)
        assert_factor_matches(res, system)

    def test_flops_match_rl(self, system):
        """Left-looking pulls the same GEMM flops RL pushes (modulo the
        assembly organisation); totals agree with the RL flop count to the
        SYRK-vs-GEMM double-counting factor."""
        ll = factorize_left_looking_gpu(system.symb, system.matrix,
                                        threshold=0, device_memory=BIG)
        rl = factorize_rl_cpu(system.symb, system.matrix)
        assert ll.flops == pytest.approx(rl.flops, rel=1.0)


class TestOffloadBehaviour:
    def test_threshold_huge_means_no_gpu(self, system):
        res = factorize_left_looking_gpu(system.symb, system.matrix,
                                         threshold=10 ** 18,
                                         device_memory=BIG)
        assert res.snodes_on_gpu == 0
        assert res.gpu_stats.kernels == 0

    def test_memory_freed_at_end(self, system):
        machine = MachineModel()
        gpu = SimulatedGpu(BIG, machine=machine, timeline=Timeline())
        factorize_left_looking_gpu(system.symb, system.matrix, threshold=0,
                                   machine=machine, device=gpu)
        assert gpu.used == 0.0

    def test_oom_on_tiny_device(self, system):
        with pytest.raises(DeviceOutOfMemory):
            factorize_left_looking_gpu(system.symb, system.matrix,
                                       threshold=0, device_memory=512)

    def test_retransfer_accounting(self, system):
        res = factorize_left_looking_gpu(system.symb, system.matrix,
                                         threshold=0, device_memory=BIG)
        # a descendant updating k ancestors uploads k times; with any
        # branching at all some panel re-uploads
        assert res.extra["h2d_retransfer_bytes"] >= 0
        assert res.gpu_stats.h2d_bytes > res.extra["h2d_retransfer_bytes"]

    def test_inflight_one_not_faster(self, system):
        t2 = factorize_left_looking_gpu(system.symb, system.matrix,
                                        threshold=0, device_memory=BIG,
                                        inflight=2).modeled_seconds
        t1 = factorize_left_looking_gpu(system.symb, system.matrix,
                                        threshold=0, device_memory=BIG,
                                        inflight=1).modeled_seconds
        assert t1 >= t2 - 1e-12


class TestSolverIntegration:
    def test_driver_method(self):
        A = grid_laplacian((6, 6, 2))
        system = analyze(A)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(A.n)
        res = factorize_left_looking_gpu(system.symb, system.matrix)
        x = np.empty_like(b)
        x[system.perm] = solve_factored(res.storage, b[system.perm])
        assert np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b) < 1e-10
