"""Dolan–Moré performance profile tests (Figure 3 machinery)."""

import numpy as np
import pytest

from repro.analysis import (
    format_table,
    performance_profile,
    render_ascii,
)


class TestProfileMath:
    def test_single_method_all_ones(self):
        p = performance_profile({"a": [1.0, 2.0, 3.0]})
        assert np.allclose(p.curves["a"], 1.0)
        assert np.allclose(p.ratios["a"], 1.0)

    def test_dominant_method(self):
        times = {"fast": [1.0, 1.0], "slow": [2.0, 4.0]}
        p = performance_profile(times)
        assert p.curves["fast"][0] == 1.0  # wins every problem at tau=0
        assert p.curves["slow"][0] == 0.0
        assert p.curves["slow"][-1] == 1.0  # eventually reaches all
        assert p.winner() == "fast"

    def test_crossover(self):
        # a wins problem 0 narrowly, loses problem 1 badly
        times = {"a": [1.0, 8.0], "b": [1.5, 1.0]}
        p = performance_profile(times)
        assert p.curves["a"][0] == 0.5
        assert p.curves["b"][0] == 0.5
        # log2 ratio of a on problem 1 is 3 => a completes at tau >= 3
        idx = np.searchsorted(p.taus, 3.0)
        assert p.curves["a"][min(idx, p.taus.size - 1)] <= 1.0
        assert p.area("b") > p.area("a")

    def test_failures_cap_profile(self):
        times = {"a": [1.0, None], "b": [2.0, 1.0]}
        p = performance_profile(times)
        assert p.curves["a"][-1] == 0.5  # never solves problem 1
        assert p.curves["b"][-1] == 1.0
        assert np.isinf(p.ratios["a"][1])

    def test_ratio_values(self):
        times = {"a": [2.0], "b": [6.0]}
        p = performance_profile(times)
        assert p.ratios["b"][0] == pytest.approx(3.0)

    def test_tau_grid(self):
        p = performance_profile({"a": [1.0], "b": [2.0]}, tau_max=5.0,
                                num=11)
        assert p.taus.size == 11
        assert p.taus[-1] == 5.0

    def test_errors(self):
        with pytest.raises(ValueError):
            performance_profile({})
        with pytest.raises(ValueError):
            performance_profile({"a": []})
        with pytest.raises(ValueError):
            performance_profile({"a": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(ValueError, match="no method"):
            performance_profile({"a": [None], "b": [None]})

    def test_monotone_curves(self):
        rng = np.random.default_rng(0)
        times = {m: rng.uniform(0.5, 5.0, size=12).tolist()
                 for m in "abcd"}
        p = performance_profile(times)
        for ys in p.curves.values():
            assert (np.diff(ys) >= 0).all()


class TestRendering:
    def test_ascii_contains_legend(self):
        p = performance_profile({"RL_G": [1.0, 2.0], "RLB_G": [1.5, 1.8]})
        art = render_ascii(p)
        assert "RL_G" in art and "RLB_G" in art
        assert "log2(ratio)" in art

    def test_format_table(self):
        text = format_table(["a", "bb"], [(1, None), ("x", 22)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "--" in text
