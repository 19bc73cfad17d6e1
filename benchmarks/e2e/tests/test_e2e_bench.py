"""Tier-1 guard of the end-to-end benchmark (``benchmarks/e2e``).

Nothing here asserts a speed: the smoke runs use tiny sizes and the fewest
rounds that sample every pattern.  What is checked is the plumbing — the
declared workload × metric pairs are all emitted under legal names, the
estimator and the comparator do what the README says, the replay-equality
assertions hold, and a run writes nothing outside ``benchmarks/e2e/out/``.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E.parent))

from e2e import compare, estimator, metrics  # noqa: E402
from e2e.spans import Spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(*args, cwd=ROOT, script=E2E / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)


# ----------------------------------------------------------------------
# declarations
# ----------------------------------------------------------------------
def test_benchmark_json_is_what_the_declarations_say():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()


def test_declarations_meet_the_contract():
    spec = metrics.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # set-up carries the largest bound
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# estimator
# ----------------------------------------------------------------------
def test_fastest_quarter_discards_the_slow_three_quarters():
    samples = [5.0, 1.0, 9.0, 2.0, 7.0, 8.0, 6.0, 3.0]
    assert estimator.fastest_quarter(samples) == pytest.approx(1.5)
    assert estimator.fastest_quarter(samples, higher_is_better=True) == pytest.approx(8.5)
    assert estimator.fastest_quarter([4.0, 2.0]) == 2.0      # never fewer than one
    with pytest.raises(ValueError):
        estimator.fastest_quarter([])


def test_fastest_quarter_ignores_a_slow_phase():
    quiet = [1.0 + 0.01 * i for i in range(12)]
    assert estimator.fastest_quarter(quiet + [1.6] * 12) == pytest.approx(sum(quiet[:6]) / 6)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert estimator.highest_resolved_percentile(19) is None
    assert estimator.highest_resolved_percentile(20) == 50
    assert estimator.highest_resolved_percentile(100) == 90
    assert estimator.highest_resolved_percentile(1000) == 99
    s = estimator.summarize(list(range(1, 101)))
    assert s["n"] == 100 and s["tail_p"] == 90 and s["tail"] == pytest.approx(90.1)
    assert s["median"] == 50.5 and s["value"] == 13.0


def test_spread_is_the_quartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert estimator.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


# ----------------------------------------------------------------------
# comparator
# ----------------------------------------------------------------------
def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, [1.30, 1.31, 1.29, 1.30], "lower", 0.15)[0] == "REGRESSION"
    assert compare.verdict(steady, [1.05, 1.06, 1.04, 1.05], "lower", 0.15)[0] == "within bound"
    assert compare.verdict(steady, [0.80, 0.81, 0.79, 0.80], "lower", 0.15)[0] == "improved"
    # a rate: lower is worse
    assert compare.verdict(steady, [0.70, 0.71, 0.69, 0.70], "higher", 0.15)[0] == "REGRESSION"
    noisy = [1.0, 1.5, 0.8, 1.3]
    # spread beyond the bound: never "unchanged", even at equal medians ...
    assert compare.verdict(noisy, noisy, "lower", 0.15)[0] == "unresolved"
    # ... nor a regression ...
    assert compare.verdict(noisy, [2.0, 2.6, 1.7, 2.4], "lower", 0.15)[0] == "unresolved"
    # ... unless every new run beats every old run
    assert compare.verdict(noisy, [0.5, 0.7, 0.4, 0.6], "lower", 0.15)[0] == "improved"


def _set(values_by_metric, layer_values=None):
    runs = []
    for i in range(4):
        runs.append({"workload": "w", "seed": i, "trace": 0, "correct": True,
                     "metrics": {k: {"value": v[i], "unit": "s"}
                                 for k, v in values_by_metric.items()}})
    if layer_values:
        runs.append({"workload": "w", "seed": 0, "trace": 1, "correct": True,
                     "metrics": {k: {"value": v, "unit": "s"} for k, v in layer_values.items()}})
    return {"machine": {}, "runs": runs}


def test_report_names_the_layer_that_moved_and_fails_on_regression(capsys):
    old = _set({"refactor_solve_s": [1.0, 1.01, 0.99, 1.0]},
               {"numeric.assembly_s": 0.2, "dense.syrk_s": 0.5})
    new = _set({"refactor_solve_s": [1.4, 1.41, 1.39, 1.4]},
               {"numeric.assembly_s": 0.6, "dense.syrk_s": 0.5})
    assert compare.report(old, new, sys.stdout) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "numeric.assembly_s +200.0%" in out
    assert compare.report(old, old, sys.stdout) == 0
    assert "REGRESSION" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_the_span_minus_its_children():
    spans = Spans()
    with spans.span("api.plan", request="r1") as parent:
        with spans.span("ordering.nd"):
            pass
        with spans.span("symbolic.etree") as child:
            pass
    assert spans.rows[1][3] == 0 and spans.rows[2][3] == 0      # parent index
    assert child[4] == "r1"                                     # request id inherited
    own = spans.self_times()
    total = parent[2] - parent[1]
    children = sum(r[2] - r[1] for r in spans.rows[1:])
    assert own[0] == pytest.approx(total - children)
    assert set(spans.layers()) == {"api", "ordering", "symbolic"}
    assert len(spans.chrome_trace()) == 3


# ----------------------------------------------------------------------
# the benchmark itself, at smoke size
# ----------------------------------------------------------------------
def _git_status():
    done = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"], cwd=ROOT,
                          text=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return None if done.returncode else set(done.stdout.splitlines())


@pytest.fixture(scope="module")
def smoke_results():
    """Every workload, untraced and traced, at smoke size."""
    before = _git_status()
    results = {}
    for w in metrics.benchmark_json()["workloads"]:
        for trace in (0, 1):
            done = run_benchmark("--workload", w["name"], "--seed", "7", "--seconds", "0",
                                 "--trace", str(trace), "--smoke")
            assert done.returncode == 0, done.stderr
            results[w["name"], trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return results, before, _git_status()


def test_every_declared_pair_is_emitted(smoke_results):
    results, _, _ = smoke_results
    for (workload, trace), result in results.items():
        assert set(result) == RESULT_KEYS, workload
        declared = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
        assert tuple(result["metrics"]) == declared, workload
        for name, m in result["metrics"].items():
            assert NAME.fullmatch(name) and m["unit"] == metrics.UNITS[name]
            assert isinstance(m["value"], float) and m["value"] == m["value"]
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_every_answer_checked_and_replays_equal(smoke_results):
    """``failed`` counts wrong answers and the two replay-equality
    assertions (stage replay ≡ ``repro.analyze``, kernel replay ≡ engine
    panels), so zero failures means they all held."""
    results, _, _ = smoke_results
    for key, result in results.items():
        assert result["correct"] is True and result["failed"] == 0, key
        assert result["attempted"] >= 50, key


def test_nothing_written_outside_out(smoke_results):
    _, before, after = smoke_results
    if before is None:
        pytest.skip("not a git checkout")
    assert after - before == set()
    assert any((E2E / "out").glob("*.trace.json"))


def test_refuses_to_run_without_the_repository(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files there is no program to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", "cold_mix", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path,
                         script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
