"""Tests for the device-memory planner, validated against simulated peaks."""

from __future__ import annotations

import pytest

from repro.gpu import DeviceOutOfMemory
from repro.numeric import (
    DEFAULT_DEVICE_MEMORY,
    factorize_rl_gpu,
    factorize_rlb_gpu,
    plan,
    predict_peak_device_bytes,
)
from repro.sparse import get_entry, grid_laplacian
from repro.symbolic import analyze

BIG = 10 ** 15


@pytest.fixture(scope="module")
def system():
    return analyze(grid_laplacian((9, 9, 3)))


def measured_peak(system, fn, **kwargs):
    res = fn(system.symb, system.matrix, device_memory=BIG, **kwargs)
    return res.gpu_stats.peak_memory


class TestPredictions:
    @pytest.mark.parametrize("thr", [0, 20_000, 100_000])
    def test_rl_prediction_is_exact(self, system, thr):
        pred = predict_peak_device_bytes(system.symb, method="rl_gpu",
                                         threshold=thr)
        meas = measured_peak(system, factorize_rl_gpu, threshold=thr)
        assert pred == pytest.approx(meas, rel=1e-12)

    @pytest.mark.parametrize("thr", [0, 20_000])
    def test_rlb_v2_prediction_upper_bounds(self, system, thr):
        pred = predict_peak_device_bytes(system.symb, method="rlb_gpu_v2",
                                         threshold=thr)
        meas = measured_peak(system, factorize_rlb_gpu, version=2,
                             threshold=thr)
        assert meas <= pred + 1e-9
        assert pred <= 2.0 * meas + 1e-9  # bound stays tight-ish

    @pytest.mark.parametrize("thr", [0, 20_000])
    def test_rlb_v1_prediction_upper_bounds(self, system, thr):
        pred = predict_peak_device_bytes(system.symb, method="rlb_gpu_v1",
                                         threshold=thr)
        meas = measured_peak(system, factorize_rlb_gpu, version=1,
                             threshold=thr)
        assert meas <= pred + 1e-9

    def test_no_offload_means_zero(self, system):
        assert predict_peak_device_bytes(system.symb, method="rl_gpu",
                                         threshold=10 ** 18) == 0.0

    def test_unknown_method(self, system):
        with pytest.raises(ValueError):
            predict_peak_device_bytes(system.symb, method="bogus")

    def test_rl_needs_at_least_rlb_v2(self, system):
        """RL's full update matrix can never need less device memory than
        v2's in-flight blocks (same threshold)."""
        rl = predict_peak_device_bytes(system.symb, method="rl_gpu",
                                       threshold=0)
        v2 = predict_peak_device_bytes(system.symb, method="rlb_gpu_v2",
                                       threshold=0)
        assert rl >= v2 - 1e-9


class TestPlan:
    def test_nlpkkt120_reproduces_paper_decision(self):
        """The paper's Table I/II story as a static decision: RL does not
        fit the default device, RLB v2 does."""
        sy = analyze(get_entry("nlpkkt120").builder())
        mp = plan(sy.symb)
        assert "rl_gpu" not in mp.feasible
        assert "rlb_gpu_v2" in mp.feasible
        assert mp.recommended == "rlb_gpu_v2"
        # and the simulation agrees with both verdicts
        with pytest.raises(DeviceOutOfMemory):
            factorize_rl_gpu(sy.symb, sy.matrix,
                             device_memory=DEFAULT_DEVICE_MEMORY)
        factorize_rlb_gpu(sy.symb, sy.matrix, version=2,
                          device_memory=DEFAULT_DEVICE_MEMORY)

    def test_everything_fits_big_device(self, system):
        mp = plan(system.symb, device_memory=BIG)
        assert mp.recommended == "rl_gpu"
        assert set(mp.feasible) == {"rl_gpu", "rlb_gpu_v2", "rlb_gpu_v1"}

    def test_nothing_fits_tiny_device(self, system):
        mp = plan(system.symb, device_memory=1.0,
                  thresholds={m: 0 for m in
                              ("rl_gpu", "rlb_gpu_v2", "rlb_gpu_v1")})
        assert mp.feasible == []
        assert mp.recommended is None

    def test_headroom(self, system):
        mp = plan(system.symb, device_memory=BIG)
        for m in mp.feasible:
            assert 0.0 <= mp.headroom(m) <= 1.0
