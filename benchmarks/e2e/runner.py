"""Orchestration: one workload per process, metrics out of the samples.

``main`` with ``--workload`` runs that workload in this process and prints
its result as the last line of standard output (the driver's protocol);
without it, every workload runs in its own subprocess — clean peak RSS, no
lazily warmed cache leaking from one workload into the next — and
``--sets N`` repeats that N times, the sets taking turns, and compares them with
:mod:`compare` (the A/A self-check).
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from e2e import compare, estimator, machine, metrics
from e2e.workloads import BY_NAME, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"

SETUPS = 3          # from-scratch set-ups per run; setup_s is their median
SETUP_PROBES = 8    # probe samples before, between and after the set-ups
MIN_ROUNDS = 8      # rounds of an untraced run, whatever --seconds says
#: the fewest rounds that send a cold request to every served pattern: what a
#: smoke run makes, and the least a traced run makes
SMOKE_ROUNDS = 3


class MetricMissing(RuntimeError):
    """A declared metric had no sample: the run is not a result."""


def _fq(samples, name):
    if not samples:
        raise MetricMissing(name)
    return estimator.fastest_quarter(samples)


def _sum_over_patterns(per_pattern, name, npatterns):
    """Σ over served patterns of each pattern's fastest-quarter mean."""
    if len(per_pattern) < npatterns:
        raise MetricMissing(f"{name}: {len(per_pattern)} of {npatterns} patterns sampled")
    return sum(_fq(s, name) for s in per_pattern.values())


def to_reference(name, measured, speed):
    """A measured value in the reference machine's units (``machine.py``):
    times are multiplied by ``speed``, rates divided, the rest unchanged."""
    unit = metrics.UNITS[name]
    if unit in ("s", "ms", "us"):
        return measured * speed
    if unit in ("1/s", "GFLOP/s"):
        return measured / speed
    return measured


def gateway_latencies(gw, kind, clients=1):
    """``{pattern: [milliseconds]}`` of every ``kind`` request sent while
    ``clients`` clients were in the loop."""
    per_pattern = defaultdict(list)
    for k, m, _, seconds, _, c in gw["records"]:
        if k == kind and c == clients:
            per_pattern[m].append(seconds * 1e3)
    return per_pattern


def summarize_latencies(per_pattern):
    """Summary of a gateway latency.  One pattern's requests are samples of
    one quantity; the served patterns differ in size and family, so the
    fastest quarter of the pooled samples would be the cheapest pattern's.
    The value is the mean over the requests of each one's pattern's
    fastest-quarter latency; median and tail are over the pooled samples."""
    pooled = [x for s in per_pattern.values() for x in s]
    summary = estimator.summarize(pooled)
    summary["value"] = sum(len(s) * estimator.fastest_quarter(s)
                           for s in per_pattern.values()) / len(pooled)
    return summary


def setup_median(setups, key):
    """Median over the set-ups of ``key`` in reference seconds, and the
    median as measured."""
    return (statistics.median(s[key] * s["speed"] for s in setups),
            statistics.median(s[key] for s in setups))


def end_to_end(bench, setups):
    """``(values, detail)`` of every end-to-end metric: values in reference
    units, detail the measured summaries printed beside them."""
    from e2e.bench import DIRECT

    detail = {"peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
              "cold_solve_s": {"value": _sum_over_patterns(bench.cold["total"], "cold_solve_s",
                                                           len(bench.served)),
                               "n": sum(len(s) for s in bench.cold["total"].values())}}
    gw = bench.gateway
    sampled = {name: bench.samples[name] for name in DIRECT}
    sampled["gateway_req_per_s"] = gw["block_rates"][2]
    for name, samples in sampled.items():
        if not samples:
            raise MetricMissing(name)
        detail[name] = estimator.summarize(
            samples, higher_is_better=metrics.BETTER[name] == "higher")
    for name, kind in (("gateway_hit_ms", "hit"), ("gateway_miss_ms", "miss"),
                       ("gateway_update_ms", "update")):
        per_pattern = gateway_latencies(gw, kind)
        if not per_pattern:
            raise MetricMissing(name)
        detail[name] = summarize_latencies(per_pattern)
    speed = bench.probe.speed(bench.round_marks[0])
    values = {name: to_reference(name, d["value"], speed) for name, d in detail.items()}
    values["setup_s"], measured = setup_median(setups, "setup_s")
    detail["setup_s"] = {"value": measured, "n": len(setups)}
    return values, detail


def _stage_sums(spans, name):
    """``{pattern: [Σ seconds of spans called name in one cold request]}``
    over the traced cold requests (request id ``cold#<pattern>#<round>``)."""
    per_request = defaultdict(float)
    for n, t0, t1, _, request in spans.rows:
        if n == name and request and request.startswith("cold#"):
            per_request[request] += t1 - t0
    out = defaultdict(list)
    for request, seconds in per_request.items():
        out[int(request.split("#")[1])].append(seconds)
    return out


def per_layer(bench, battery, setups, direct_s):
    """Values of every per-layer metric of a traced run, times and rates in
    reference units."""
    from e2e.bench import DIRECT, TRACED

    S, spans, npat = bench.samples, bench.spans, len(bench.served)
    probe, marks = bench.probe, bench.round_marks
    speed = probe.speed(marks[0])
    v = {}

    # measured times first (reference units), then what is derived from them
    v["sparse.fingerprint_s"] = _sum_over_patterns(
        bench.cold["fingerprint" + TRACED], "sparse.fingerprint_s", npat)
    for metric in ("sparse.permute_s", "ordering.nd_s", "symbolic.etree_s",
                   "symbolic.postorder_s", "symbolic.colcounts_s", "symbolic.supernodes_s",
                   "symbolic.symbfact_s", "symbolic.amalgamate_s",
                   "symbolic.partition_refinement_s", "symbolic.scatter_plan_s"):
        v[metric] = _sum_over_patterns(_stage_sums(spans, metric[:-2]), metric, npat)
    v["symbolic.first_factor_extra_s"] = _sum_over_patterns(
        bench.cold["first_factor_extra"], "symbolic.first_factor_extra_s", npat)
    v["symbolic.solve_schedule_s"] = _sum_over_patterns(
        bench.cold["solve_schedule"], "symbolic.solve_schedule_s", npat)
    for key in ("sparse.gather_values_s", "dense.potrf_s", "dense.trsm_s", "dense.syrk_s",
                "dense.gemm_s", "numeric.scatter_s", "numeric.assembly_s",
                "numeric.factorize_rl_s", "numeric.factorize_rlb_s",
                "numeric.batch4_amortized_s", "numeric.update_sweep_s", "solve.forward_s",
                "solve.backward_s", "solve.rhs16_per_rhs_s", "solve.level_w2_s",
                "solve.refine_s", "serving.session_submit_solve_ms"):
        v[key] = _fq(S[key], key)
    v = {name: to_reference(name, seconds, speed) for name, seconds in v.items()}
    v["numeric.process_first_call_s"], _ = setup_median(setups, "process_first_call_s")

    def ref(key):
        """Reference seconds of a battery timing that is no metric itself."""
        return _fq(S[key], key) * speed

    for cls in ("potrf", "trsm", "syrk", "gemm"):
        v[f"dense.{cls}_gflops"] = battery.flops[cls] / v[f"dense.{cls}_s"] / 1e9
    rl_s, rlb_s = v["numeric.factorize_rl_s"], v["numeric.factorize_rlb_s"]
    blas_s = v["dense.potrf_s"] + v["dense.trsm_s"] + v["dense.syrk_s"]
    v["numeric.rl_gflops"] = sum(battery.flops[c] for c in ("potrf", "trsm", "syrk")) / rl_s / 1e9
    v["numeric.non_blas_share"] = 1.0 - blas_s / rl_s
    v["numeric.bookkeeping_s"] = rl_s - ref("numeric.replay_rl_s")
    v.update(battery.static_counts())
    v["numeric.threads_w1_us_per_task"] = ((ref("numeric.rl_par_w1_s") - rl_s)
                                           / v["numeric.tasks_coarse"] * 1e6)
    par_s = ref("numeric.rl_par_w2_s")
    v["numeric.threads_speedup_w2"] = rl_s / par_s
    v["numeric.threads_spread_penalty"] = ref("numeric.rl_par_w2_spread_s") / par_s
    v["numeric.threads_fine_speedup_w2"] = rlb_s / ref("numeric.rlb_par_w2_s")
    v["numeric.process_speedup_w2"] = rl_s / ref("numeric.rl_proc_w2_s")
    v["numeric.fp32_factor_speedup"] = rl_s / ref("numeric.factorize_rl_fp32_s")
    v["numeric.update_vs_refactor"] = v["numeric.update_sweep_s"] / rl_s
    v.update(battery.gpu_model(rl_s))

    # the machine itself: measured, never converted
    v["machine.dgemm_gflops"] = probe.dgemm_gflops()
    v["machine.pyloop_ms"] = probe.pyloop_ms()
    v["machine.probe_drift"] = probe.drift(marks)
    v["machine.speed"] = speed

    gw = bench.gateway
    v["serving.hit_rate"] = gw["hit_rate"]
    v["serving.evictions"] = gw["evictions"]
    plan_s = {m: _fq(s, "cold plan") for m, s in bench.cold["plan"].items()}
    alone = [r for r in gw["records"] if r[5] == 1]
    shares = [plan_s[r[1]] / r[3] for r in alone if r[0] == "miss"]
    if not shares:
        raise MetricMissing("serving.analysis_share_of_miss")
    v["serving.analysis_share_of_miss"] = statistics.median(shares)
    over = [(r[3] - direct_s[r[1]]) * 1e3 for r in alone if r[0] == "hit"]
    if not over:
        raise MetricMissing("serving.overhead_ms")
    v["serving.overhead_ms"] = statistics.median(over) * speed
    rates = gw["block_rates"]
    if not rates[1] or not rates[2]:
        raise MetricMissing("serving.two_client_gain")
    v["serving.two_client_gain"] = (estimator.fastest_quarter(rates[2], higher_is_better=True)
                                    / estimator.fastest_quarter(rates[1], higher_is_better=True))
    contended = [x for s in gateway_latencies(gw, "hit", clients=2).values() for x in s]
    if not contended:
        raise MetricMissing("serving.hit_p50_two_clients_ms")
    v["serving.hit_p50_two_clients_ms"] = estimator.percentile(contended, 50) * speed
    v["serving.hit_p90_two_clients_ms"] = estimator.percentile(contended, 90) * speed

    traced = sum(_fq(S[n + TRACED], n) for n in DIRECT) + _sum_over_patterns(
        bench.cold["total" + TRACED], "cold traced", npat)
    plain = sum(_fq(S[n], n) for n in DIRECT) + _sum_over_patterns(
        bench.cold["total"], "cold", npat)
    v["trace.overhead_ratio"] = traced / plain
    return v


def gateway_direct_twins(bench):
    """Per served pattern, the gateway's warm request run directly —
    ``plan.factorize(engine=<gateway engine>, workers=2).solve(b)`` — for
    ``serving.overhead_ms`` (fastest of three)."""
    from e2e.bench import GATEWAY_ENGINE, ONE_CPU, WORKERS, threads_on

    out = {}
    with threads_on(ONE_CPU):       # where the gateway's requests ran
        for m, (p, plan) in enumerate(zip(bench.served, bench.served_plans)):
            best = float("inf")
            for k in range(3):
                t0 = time.perf_counter()
                plan.factorize(p.values[k], engine=GATEWAY_ENGINE, workers=WORKERS).solve(
                    p.b, workers=WORKERS)
                best = min(best, time.perf_counter() - t0)
            out[m] = best
    return out


def stop_resource_tracker():
    """End multiprocessing's resource-tracker process (the shared-memory
    arenas of ``rl_proc`` start one) and wait for it, so the run leaves no
    process behind.  It would otherwise exit on its own only after this
    process has."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(name, seed, seconds, trace, smoke):
    """Run one workload in this process; returns the full report."""
    from e2e.bench import Bench
    from e2e.layers import LayerBattery
    from e2e.spans import Spans

    w = BY_NAME[name]
    spans = Spans() if trace else None
    bench = Bench(w, seed, smoke=smoke, spans=spans)
    probe = bench.probe
    setups = []
    probe.sample(SETUP_PROBES)
    for i in range(1 if smoke else SETUPS):
        if i:
            bench.teardown()
            gc.collect()
        setups.append(bench.setup())
        probe.sample(SETUP_PROBES)
        # a set-up is one contiguous stretch, not the best of many samples:
        # it is converted with the machine's typical speed right before and
        # after it (the median probe, not the fastest quarter)
        setups[-1]["speed"] = 1.0 / probe.slowdown(len(probe.samples) - 2 * SETUP_PROBES,
                                                   estimate=statistics.median)
    bench.references()
    try:
        if not trace:
            rounds = bench.measure(seconds, SMOKE_ROUNDS if smoke else MIN_ROUNDS)
            bench.check_update_against_scratch()
            values, detail = end_to_end(bench, setups)
            names = metrics.END_TO_END_NAMES
        else:
            battery = LayerBattery(bench)
            battery.check_replays()
            rounds = bench.measure(seconds, SMOKE_ROUNDS, battery=battery)
            values = per_layer(bench, battery, setups, gateway_direct_twins(bench))
            detail = {}
            names = metrics.PER_LAYER_NAMES
            spans.write(OUT, f"{name}.seed{seed}")
    finally:
        bench.teardown()
        stop_resource_tracker()
    missing = [n for n in names if n not in values]
    if missing:
        raise MetricMissing(", ".join(missing))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": bool(smoke), "rounds": rounds,
        "correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
        "failures": bench.failures,
        "metrics": {n: {"value": float(values[n]), "unit": metrics.UNITS[n]} for n in names},
        "detail": detail, "setups": setups,
        "speed": probe.speed(bench.round_marks[0]),
        "gateway": {k: bench.gateway[k] for k in
                    ("hits", "misses", "hit_rate", "evictions", "updates")},
        "machine": machine.stamp(),
    }


def print_report(report, file):
    """Every metric by name with its unit, in reference units; beside a
    sampled timing the measured value it was converted from, the measured
    median, the highest resolved percentile and the sample count."""
    speed = report["speed"]
    print(f"# {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']} rounds={report['rounds']} "
          f"gateway={report['gateway']}", file=file)
    print(f"# machine speed against the reference (machine.py): measured times x {speed:.4f}; "
          f"set-ups x {', '.join(format(s['speed'], '.4f') for s in report['setups'])}",
          file=file)
    for name, m in report["metrics"].items():
        d = report["detail"].get(name, {})
        extra = ""
        if "value" in d:
            extra += f"  measured {d['value']:.6g}"
        if "median" in d:
            extra += f"  median {d['median']:.6g}"
        if d.get("tail") is not None:
            extra += f"  p{d['tail_p']} {d['tail']:.6g}"
        if "n" in d:
            extra += f"  n={d['n']}"
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:8s}{extra}", file=file)
    for line in report["failures"]:
        print("FAILED", line, file=file)


def result_line(report):
    """The driver's last-line JSON object."""
    return json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")})


# ----------------------------------------------------------------------
# all workloads, sets
# ----------------------------------------------------------------------
def run_subprocess(name, seed, seconds, trace, smoke):
    """One workload in a fresh interpreter; returns its report."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report.{name}.seed{seed}.trace{int(trace)}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--report", str(path)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(path.read_text())


def run_sets(nsets, seeds, seconds, smoke):
    """``nsets`` sets, each every workload × every seed untraced plus one
    traced run per workload on the first seed.  The sets take turns run by
    run, so a slow phase of the sandbox lands in all of them."""
    sets = [{"machine": machine.stamp(), "seconds": seconds, "runs": []} for _ in range(nsets)]
    for w in WORKLOADS:
        for seed in seeds:
            for i, data in enumerate(sets):
                for trace in ((0, 1) if seed == seeds[0] else (0,)):
                    print(f"[set {i + 1}/{nsets}] {w.name} seed={seed} trace={trace}",
                          file=sys.stderr, flush=True)
                    data["runs"].append(run_subprocess(w.name, seed, seconds, trace, smoke))
    return sets


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS))
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, three rounds: checks the plumbing, measures nothing")
    ap.add_argument("--report", type=pathlib.Path, help="also write the full report here")
    ap.add_argument("--sets", type=int, default=1,
                    help="without --workload: run this many interleaved sets and compare them")
    ap.add_argument("--runs", type=int, default=3, help="seeds per workload in a set")
    args = ap.parse_args(argv)

    if args.workload:
        report = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        print_report(report, sys.stdout)
        if args.report:
            args.report.write_text(json.dumps(report, indent=1))
        print(result_line(report))
        return 0

    seeds = list(range(args.seed, args.seed + args.runs))
    sets = run_sets(max(1, args.sets), seeds, args.seconds, args.smoke)
    for i, data in enumerate(sets):
        (OUT / f"set_{i}.json").write_text(json.dumps(data))
    if len(sets) == 1:
        for report in sets[0]["runs"]:
            print_report(report, sys.stdout)
        return 0 if all(r["correct"] for r in sets[0]["runs"]) else 1
    status = 0
    for i in range(1, len(sets)):
        print(f"\n== A/A: set 0 vs set {i} ==")
        status |= compare.report(sets[0], sets[i], sys.stdout)
    return status
