"""Tests for the multi-GPU RL extension: ``rl_gpu`` at ``devices=N`` (the
stream backend's least-loaded placement over N simulated devices)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import DeviceOutOfMemory
from repro.numeric import factorize_rl_gpu
from repro.sparse import grid_laplacian
from repro.symbolic import analyze

from tests.conftest import assert_factor_matches

BIG = 10 ** 15


@pytest.fixture(scope="module")
def system():
    return analyze(grid_laplacian((9, 9, 3)))


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("thr", [0, 50_000, 10 ** 18])
    def test_factor_matches_reference(self, system, k, thr):
        res = factorize_rl_gpu(system.symb, system.matrix,
                                    devices=k, threshold=thr,
                                    device_memory=BIG)
        assert_factor_matches(res, system)

    def test_matches_rl_gpu_factor_exactly(self, system):
        mg = factorize_rl_gpu(system.symb, system.matrix,
                                   devices=2, device_memory=BIG)
        sg = factorize_rl_gpu(system.symb, system.matrix, device_memory=BIG)
        for s in range(system.symb.nsup):
            np.testing.assert_array_equal(mg.storage.panel(s),
                                          sg.storage.panel(s))

    def test_invalid_device_count(self, system):
        with pytest.raises(ValueError):
            factorize_rl_gpu(system.symb, system.matrix, devices=0)


class TestScheduling:
    def test_single_device_close_to_rl_gpu(self, system):
        """devices=1 IS single-GPU RL: the host-coupled schedule."""
        mg = factorize_rl_gpu(system.symb, system.matrix, devices=1,
                              threshold=0, device_memory=BIG)
        sg = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                              device_memory=BIG)
        assert mg.modeled_seconds == sg.modeled_seconds

    def test_monotone_in_devices(self, system):
        times = [
            factorize_rl_gpu(system.symb, system.matrix, devices=k,
                                  threshold=0,
                                  device_memory=BIG).modeled_seconds
            for k in (1, 2, 4, 8)
        ]
        for a, b in zip(times, times[1:]):
            assert b <= a + 1e-12

    def test_speedup_bounded_by_devices(self, system):
        t1 = factorize_rl_gpu(system.symb, system.matrix, devices=1,
                                   threshold=0,
                                   device_memory=BIG).modeled_seconds
        t4 = factorize_rl_gpu(system.symb, system.matrix, devices=4,
                                   threshold=0,
                                   device_memory=BIG).modeled_seconds
        assert t1 / t4 <= 4.0 + 1e-9

    def test_gain_exists_at_zero_threshold(self, system):
        """With every supernode offloaded, tree parallelism gives >1 gain."""
        t1 = factorize_rl_gpu(system.symb, system.matrix, devices=1,
                                   threshold=0,
                                   device_memory=BIG).modeled_seconds
        t4 = factorize_rl_gpu(system.symb, system.matrix, devices=4,
                                   threshold=0,
                                   device_memory=BIG).modeled_seconds
        assert t4 < t1

    def test_device_stats_consistent(self, system):
        res = factorize_rl_gpu(system.symb, system.matrix,
                                    devices=3, threshold=0,
                                    device_memory=BIG)
        busy = res.extra["device_busy_seconds"]
        counts = res.extra["device_task_counts"]
        assert len(busy) == len(counts) == 3
        assert sum(counts) == res.snodes_on_gpu == system.symb.nsup
        assert all(b >= 0 for b in busy)
        assert max(busy) <= res.modeled_seconds + 1e-12


class TestMemory:
    def test_oversized_task_raises(self, system):
        with pytest.raises(DeviceOutOfMemory):
            factorize_rl_gpu(system.symb, system.matrix, devices=4,
                                  threshold=0, device_memory=1024)

    def test_more_devices_do_not_fix_oom(self, system):
        """The paper's nlpkkt120-style failure is a single-task working set;
        extra devices cannot split one update matrix."""
        res1 = None
        try:
            factorize_rl_gpu(system.symb, system.matrix, devices=1,
                                  threshold=0, device_memory=2048)
        except DeviceOutOfMemory as e:
            res1 = e.requested
        assert res1 is not None
        with pytest.raises(DeviceOutOfMemory):
            factorize_rl_gpu(system.symb, system.matrix, devices=8,
                                  threshold=0, device_memory=2048)
