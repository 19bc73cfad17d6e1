"""Tests of the benchmark harness machinery (benchmarks/harness.py)."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))

from harness import SUITE_NAMES, run_matrix  # noqa: E402


@pytest.fixture(scope="module")
def curlcurl_run():
    return run_matrix("CurlCurl_2")


class TestHarness:
    def test_suite_names(self):
        assert len(SUITE_NAMES) == 21

    def test_matrix_run_fields(self, curlcurl_run):
        r = curlcurl_run
        assert r.name == "CurlCurl_2"
        assert r.nsup > 0
        assert r.cpu_best_seconds == min(r.rl_cpu.modeled_seconds,
                                         r.rlb_cpu.modeled_seconds)
        assert r.analyze_seconds >= 0.0

    def test_speedup_helper(self, curlcurl_run):
        r = curlcurl_run
        s = r.speedup(r.rl_gpu)
        assert s == pytest.approx(
            r.cpu_best_seconds / r.rl_gpu.modeled_seconds)
        assert r.speedup(None) is None

    def test_profile_times(self, curlcurl_run):
        t = curlcurl_run.times_for_profile()
        assert set(t) == {"RL_C", "RLB_C", "RL_G", "RLB_G"}
        assert all(v is None or v > 0 for v in t.values())

    def test_cache_hit(self, curlcurl_run):
        again = run_matrix("CurlCurl_2")
        assert again is curlcurl_run

    def test_prebuilt_system_short_circuit(self):
        from repro.sparse import get_entry
        from repro.symbolic import analyze

        system = analyze(get_entry("CurlCurl_2").builder())
        r = run_matrix("CurlCurl_2", use_cache=False, system=system)
        assert r.nsup == system.nsup


class TestCalibrate:
    def test_prices_are_the_harness_runs(self, curlcurl_run):
        """``calibrate.evaluate`` prices with the product's own walks: at
        the default machine it repeats the harness's (Tables I/II) seconds
        and speedups on CurlCurl_2, and reports nlpkkt120's RL as out of
        device memory, as Table I does."""
        import calibrate

        from repro.gpu import MachineModel

        names = ("CurlCurl_2", "nlpkkt120")
        got = calibrate.evaluate({n: calibrate.extract(n) for n in names},
                                 MachineModel())
        r, c = curlcurl_run, got["CurlCurl_2"]
        assert c["cpu_best"] == r.cpu_best_seconds
        assert c["rl_g"] == r.rl_gpu.modeled_seconds
        assert c["rlb_g"] == r.rlb_gpu.modeled_seconds
        assert calibrate.speedup(c, "rl_g") == r.speedup(r.rl_gpu)
        assert calibrate.speedup(c, "rlb_g") == r.speedup(r.rlb_gpu)
        assert got["nlpkkt120"]["rl_g"] is None
        assert calibrate.speedup(got["nlpkkt120"], "rl_g") is None
        assert got["nlpkkt120"]["rlb_g"] > 0
