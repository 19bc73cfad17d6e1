"""GPU-offloaded engine tests: numerics identical to CPU, threshold
dispatch, memory failures, schedule statistics."""

import numpy as np
import pytest

from repro.gpu import DeviceOutOfMemory, MachineModel
from repro.numeric import (
    factorize_rl_cpu,
    factorize_rl_gpu,
    factorize_rlb_gpu,
    gpu_snode_mask,
)
from repro.sparse import grid_laplacian, vector_stencil
from repro.symbolic import analyze
from tests.conftest import assert_factor_matches, capture_devices

BIG_MEM = 10 ** 15


@pytest.fixture(scope="module")
def system():
    return analyze(vector_stencil((5, 5, 4), 3, seed=4))


GPU_VARIANTS = [
    ("rl_gpu", lambda s, m, **kw: factorize_rl_gpu(s, m, **kw)),
    ("rlb_gpu_v1", lambda s, m, **kw: factorize_rlb_gpu(s, m, version=1, **kw)),
    ("rlb_gpu_v2", lambda s, m, **kw: factorize_rlb_gpu(s, m, version=2, **kw)),
]


class TestNumericalEquivalence:
    @pytest.mark.parametrize("name,fn", GPU_VARIANTS,
                             ids=[v[0] for v in GPU_VARIANTS])
    @pytest.mark.parametrize("threshold", [0, 50_000, 10 ** 14])
    def test_matches_dense_any_threshold(self, system, name, fn, threshold):
        res = fn(system.symb, system.matrix, threshold=threshold,
                 device_memory=BIG_MEM)
        assert_factor_matches(res, system)
        assert res.method == name

    @pytest.mark.parametrize("name,fn", GPU_VARIANTS,
                             ids=[v[0] for v in GPU_VARIANTS])
    def test_identical_to_cpu_factor(self, system, name, fn):
        cpu = factorize_rl_cpu(system.symb, system.matrix)
        gpu = fn(system.symb, system.matrix, device_memory=BIG_MEM)
        # same arithmetic, same order => bitwise-comparable panels (up to
        # tiny reassociation in RLB's tiled updates)
        for s in range(system.symb.nsup):
            a, b = cpu.storage.panel(s), gpu.storage.panel(s)
            m, w = system.symb.panel_shape(s)
            tri = np.tril_indices(w)
            assert np.allclose(a[:w, :w][tri], b[:w, :w][tri], atol=1e-11)
            assert np.allclose(a[w:, :], b[w:, :], atol=1e-11)


class TestThresholdDispatch:
    def test_zero_threshold_all_offloaded(self, system):
        res = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                               device_memory=BIG_MEM)
        assert res.snodes_on_gpu == system.symb.nsup

    def test_huge_threshold_none_offloaded(self, system):
        res = factorize_rl_gpu(system.symb, system.matrix,
                               threshold=10 ** 15, device_memory=BIG_MEM)
        assert res.snodes_on_gpu == 0
        assert res.gpu_stats.transfers == 0

    def test_count_matches_mask(self, system):
        mm = MachineModel()
        thr = 200_000
        res = factorize_rl_gpu(system.symb, system.matrix, threshold=thr,
                               machine=mm, device_memory=BIG_MEM)
        assert res.snodes_on_gpu == int(
            gpu_snode_mask(system.symb, thr, machine=mm).sum())

    def test_rlb_versions_same_snode_split(self, system):
        v1 = factorize_rlb_gpu(system.symb, system.matrix, version=1,
                               device_memory=BIG_MEM)
        v2 = factorize_rlb_gpu(system.symb, system.matrix, version=2,
                               device_memory=BIG_MEM)
        assert v1.snodes_on_gpu == v2.snodes_on_gpu

    def test_bad_version(self, system):
        with pytest.raises(ValueError):
            factorize_rlb_gpu(system.symb, system.matrix, version=3)


class TestMemoryBehaviour:
    def test_rl_oom_on_tiny_device(self, system):
        with pytest.raises(DeviceOutOfMemory):
            factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                             device_memory=1024)

    def test_v2_uses_less_memory_than_v1(self, system):
        v1 = factorize_rlb_gpu(system.symb, system.matrix, version=1,
                               threshold=0, device_memory=BIG_MEM)
        v2 = factorize_rlb_gpu(system.symb, system.matrix, version=2,
                               threshold=0, device_memory=BIG_MEM)
        assert v2.gpu_stats.peak_memory <= v1.gpu_stats.peak_memory

    def test_v2_not_above_rl_memory(self, system):
        # the paper's Table II motivation: v2's footprint is bounded by
        # RL's (no full update matrix on the device)
        rl = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                              device_memory=BIG_MEM)
        v2 = factorize_rlb_gpu(system.symb, system.matrix, version=2,
                               threshold=0, device_memory=BIG_MEM)
        assert v2.gpu_stats.peak_memory <= rl.gpu_stats.peak_memory * 1.01

    def test_all_memory_released(self, system, monkeypatch):
        """Every gpu row, everything offloaded and a CPU/GPU split."""
        made = capture_devices(monkeypatch)
        for threshold in (0, 50_000):
            for _, fn in GPU_VARIANTS:
                fn(system.symb, system.matrix, threshold=threshold,
                   device_memory=BIG_MEM)
        assert len(made) == 2 * len(GPU_VARIANTS)
        assert all(gpu.used == 0 for gpu in made)


class TestScheduleStatistics:
    def test_rl_transfer_count(self, system):
        # three transfers per offloaded supernode with below rows, two for
        # terminal supernodes (no update matrix)
        res = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                               device_memory=BIG_MEM)
        symb = system.symb
        with_below = sum(1 for s in range(symb.nsup)
                         if symb.snode_below_rows(s).size)
        expected = 3 * with_below + 2 * (symb.nsup - with_below)
        assert res.gpu_stats.transfers == expected

    def test_v1_single_update_transfer_per_snode(self, system):
        res = factorize_rlb_gpu(system.symb, system.matrix, version=1,
                                threshold=0, device_memory=BIG_MEM)
        symb = system.symb
        from repro.symbolic import snode_blocks

        with_pairs = sum(1 for s in range(symb.nsup)
                         if snode_blocks(symb, s))
        # h2d + panel d2h per snode, + one batched update transfer when
        # the supernode has any block pair
        assert res.gpu_stats.transfers == 2 * symb.nsup + with_pairs

    def test_v2_transfer_count(self, system):
        from repro.symbolic import snode_blocks

        res = factorize_rlb_gpu(system.symb, system.matrix, version=2,
                                threshold=0, device_memory=BIG_MEM)
        symb = system.symb
        pairs = sum(len(snode_blocks(symb, s)) * (len(snode_blocks(symb, s)) + 1) // 2
                    for s in range(symb.nsup))
        assert res.gpu_stats.transfers == 2 * symb.nsup + pairs

    def test_modeled_time_positive_and_finite(self, system):
        for _, fn in GPU_VARIANTS:
            res = fn(system.symb, system.matrix, device_memory=BIG_MEM)
            assert 0 < res.modeled_seconds < 1e4

    def test_gpu_only_slower_than_thresholded_on_small_problem(self):
        # the paper's core finding: offloading *everything* loses on
        # matrices dominated by small supernodes
        A = grid_laplacian((10, 10, 3))
        system = analyze(A)
        all_gpu = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                                   device_memory=BIG_MEM)
        thresholded = factorize_rl_gpu(system.symb, system.matrix,
                                       device_memory=BIG_MEM)
        assert thresholded.modeled_seconds < all_gpu.modeled_seconds
