"""Metric declarations: the single source ``BENCHMARK.json`` is written from.

``python3 benchmarks/e2e/metrics.py`` prints the ``BENCHMARK.json`` these
declarations imply (the test suite asserts the committed file equals it).
Beyond what that file may hold, each per-layer metric records here which
end-to-end metric it should **move**, on which workload — written down
before anything was measured, so a later change can be checked against it.

Layer prefix = the ``repro`` subpackage the time is spent in.  Analysis
metrics (``sparse.fingerprint_s``, ``ordering.*``, ``symbolic.*_s``) are sums
over the workload's six served patterns: they decompose ``cold_solve_s``.
``dense.*``, ``numeric.*``, ``solve.*`` and the exact counts are taken on the
primary pattern: they decompose the ``refactor_*`` metrics.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 18

#: bound of every wall-clock metric: the most the contract allows.  In this
#: sandbox's noisy spells the run-to-run spread of a timing reaches 10-16 %
#: even in reference seconds (README.md, A/A sets); no tighter bound holds.
TIMING = 0.25

#: (name, unit, better, bound, definition)
END_TO_END = (
    ("setup_s", "s", "lower", TIMING,
     "median of three from-scratch set-ups: seeded inputs, repro.plan of the primary and "
     "the six served patterns, first factorization, process pool, one warm-up of every "
     "direct request"),
    ("peak_rss_mb", "MB", "lower", 0.15, "peak resident set of the benchmark process"),
    ("cold_solve_s", "s", "lower", TIMING,
     "sum over the six served patterns of pattern_fingerprint → repro.plan → "
     "factorize('rl') → solve on a fresh pattern object"),
    ("refactor_solve_s", "s", "lower", TIMING,
     "plan.factorize(values, engine='rl').solve(b) on the primary pattern"),
    ("refactor_solve_rlb_s", "s", "lower", TIMING, "the same with engine='rlb'"),
    ("refactor_solve_threads_s", "s", "lower", TIMING,
     "the same with engine='rl_par', workers=2"),
    ("refactor_solve_process_s", "s", "lower", TIMING,
     "the same with engine='rl_proc', workers=2, pool warm"),
    ("refactor_refined_fp32_s", "s", "lower", TIMING,
     "factorize(dtype=float32) + solve_refined(tol=1e-12): time to a solution of "
     "stated accuracy"),
    ("solve_rhs16_s", "s", "lower", TIMING, "16-column block solve on a warm factor"),
    ("update_solve_s", "s", "lower", TIMING, "rank-2 factor.update(W).solve(b)"),
    ("gateway_req_per_s", "1/s", "higher", TIMING,
     "closed loop, 2 clients: requests per second of a 24-pick block of the periodic "
     "traffic (fastest-quarter mean over the two-client blocks)"),
    ("gateway_hit_ms", "ms", "lower", TIMING,
     "closed loop, 1 client: latency of Gateway.submit(A, b) on a warm plan"),
    ("gateway_miss_ms", "ms", "lower", TIMING,
     "closed loop, 1 client: latency of a submit that waited for symbolic analysis"),
    ("gateway_update_ms", "ms", "lower", TIMING,
     "closed loop, 1 client: latency of rank-2 Gateway.submit_update(fp, W, b)"),
)

_COLD = "cold_solve_s (all workloads, cold_mix most), gateway_miss_ms"
_REFACTOR = "refactor_solve_s and refactor_refined_fp32_s on refactor_vec3d; ≈ none on " \
            "refactor_grid2d"
_OVERHEAD = "refactor_solve_s / refactor_solve_rlb_s, refactor_grid2d most"
_PARALLEL = "refactor_solve_threads_s / refactor_solve_process_s (refactor_grid2d most), " \
            "gateway_req_per_s"
_SOLVE = "the solve share of every refactor_* metric (about half on refactor_grid2d), " \
         "solve_rhs16_s, refactor_refined_fp32_s"
_UPDATE = "update_solve_s, gateway_update_ms"
_SERVING = "gateway_hit_ms, gateway_req_per_s (gateway_zipf most)"
_NONE = "nothing: says whether a run is comparable"
_MODEL = "no wall-clock metric: modeled, repeats exactly; keeps the model's error on record"

#: (name, unit, better, moves)
PER_LAYER = (
    ("machine.dgemm_gflops", "GFLOP/s", "higher", _NONE),
    ("machine.pyloop_ms", "ms", "lower", _NONE),
    ("machine.probe_drift", "ratio", "lower", _NONE),
    ("machine.speed", "ratio", "higher",
     "nothing: reference probe ÷ this run's; what measured times were multiplied by"),
    ("sparse.fingerprint_s", "s", "lower", _COLD + ", gateway_hit_ms"),
    ("sparse.permute_s", "s", "lower", _COLD),
    ("sparse.gather_values_s", "s", "lower", "refactor_solve_s on refactor_grid2d"),
    ("ordering.nd_s", "s", "lower", _COLD + "; none on refactor_* beyond setup_s"),
    ("symbolic.etree_s", "s", "lower", _COLD),
    ("symbolic.postorder_s", "s", "lower", _COLD),
    ("symbolic.colcounts_s", "s", "lower", _COLD),
    ("symbolic.supernodes_s", "s", "lower", _COLD),
    ("symbolic.symbfact_s", "s", "lower", _COLD),
    ("symbolic.amalgamate_s", "s", "lower", _COLD),
    ("symbolic.partition_refinement_s", "s", "lower", _COLD),
    ("symbolic.scatter_plan_s", "s", "lower", _COLD),
    ("symbolic.first_factor_extra_s", "s", "lower", _COLD),
    ("symbolic.solve_schedule_s", "s", "lower", _COLD),
    ("symbolic.nsup", "count", "lower", "exact; per-supernode overhead scales with it"),
    ("symbolic.factor_nnz", "count", "lower", "exact; peak_rss_mb, solve time"),
    ("symbolic.factor_flops", "count", "lower", "exact; every refactor_* metric"),
    ("symbolic.max_snode_cols", "count", "higher", "exact; how much BLAS-3 a pattern offers"),
    ("symbolic.solve_levels", "count", "lower", "exact; solve.level_w2_s"),
    ("dense.potrf_s", "s", "lower", _REFACTOR),
    ("dense.trsm_s", "s", "lower", _REFACTOR),
    ("dense.syrk_s", "s", "lower", _REFACTOR),
    ("dense.gemm_s", "s", "lower", "refactor_solve_rlb_s on refactor_vec3d"),
    ("dense.kernel_calls", "count", "lower", "exact; " + _OVERHEAD),
    ("dense.potrf_gflops", "GFLOP/s", "higher", _REFACTOR),
    ("dense.trsm_gflops", "GFLOP/s", "higher", _REFACTOR),
    ("dense.syrk_gflops", "GFLOP/s", "higher", _REFACTOR),
    ("dense.gemm_gflops", "GFLOP/s", "higher", "refactor_solve_rlb_s on refactor_vec3d"),
    ("numeric.scatter_s", "s", "lower", _OVERHEAD),
    ("numeric.assembly_s", "s", "lower", _OVERHEAD),
    ("numeric.factorize_rl_s", "s", "lower", "refactor_solve_s"),
    ("numeric.factorize_rlb_s", "s", "lower", "refactor_solve_rlb_s"),
    ("numeric.rl_gflops", "GFLOP/s", "higher", "refactor_solve_s"),
    ("numeric.non_blas_share", "ratio", "lower", _OVERHEAD),
    ("numeric.bookkeeping_s", "s", "lower", _OVERHEAD),
    ("numeric.tasks_coarse", "count", "lower", "exact; " + _PARALLEL),
    ("numeric.tasks_fine", "count", "lower", "exact; gateway_hit_ms"),
    ("numeric.threads_w1_us_per_task", "us", "lower", _PARALLEL),
    ("numeric.threads_speedup_w2", "ratio", "higher", "refactor_solve_threads_s"),
    ("numeric.threads_spread_penalty", "ratio", "lower",
     "nothing gated: rl_par on every CPU ÷ on one; the GIL regime the benchmark pins away"),
    ("numeric.threads_fine_speedup_w2", "ratio", "higher", _SERVING),
    ("numeric.process_speedup_w2", "ratio", "higher", "refactor_solve_process_s"),
    ("numeric.process_first_call_s", "s", "lower", "setup_s"),
    ("numeric.fp32_factor_speedup", "ratio", "higher", "refactor_refined_fp32_s"),
    ("numeric.batch4_amortized_s", "s", "lower", "gateway_req_per_s"),
    ("numeric.update_sweep_s", "s", "lower", _UPDATE),
    ("numeric.update_path_cols", "count", "lower", "exact; " + _UPDATE),
    ("numeric.update_vs_refactor", "ratio", "lower", _UPDATE),
    ("solve.forward_s", "s", "lower", _SOLVE),
    ("solve.backward_s", "s", "lower", _SOLVE),
    ("solve.rhs16_per_rhs_s", "s", "lower", "solve_rhs16_s"),
    ("solve.level_w2_s", "s", "lower", "gateway_hit_ms (sessions solve level-scheduled)"),
    ("solve.refine_s", "s", "lower", "refactor_refined_fp32_s"),
    ("solve.refine_iters", "count", "lower", "refactor_refined_fp32_s"),
    ("gpu.model_rl_gpu_speedup", "ratio", "higher", _MODEL),
    ("gpu.model_rlb_gpu_speedup", "ratio", "higher", _MODEL),
    ("gpu.model_cpu_error", "ratio", "lower", _MODEL),
    ("serving.hit_rate", "ratio", "higher", _SERVING),
    ("serving.evictions", "count", "lower", "gateway_miss_ms share of traffic"),
    ("serving.analysis_share_of_miss", "ratio", "lower", "gateway_miss_ms"),
    ("serving.overhead_ms", "ms", "lower", _SERVING),
    ("serving.session_submit_solve_ms", "ms", "lower", _SERVING),
    ("serving.two_client_gain", "ratio", "higher", "gateway_req_per_s"),
    ("serving.hit_p50_two_clients_ms", "ms", "lower", "gateway_req_per_s"),
    ("serving.hit_p90_two_clients_ms", "ms", "lower", "gateway_req_per_s"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: traced ÷ untraced request time"),
)

END_TO_END_NAMES = tuple(m[0] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER)
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
BETTER = {m[0]: m[2] for m in END_TO_END + PER_LAYER}
BOUNDS = {m[0]: m[3] for m in END_TO_END}


def benchmark_json():
    """The ``BENCHMARK.json`` object (exactly the contract's keys)."""
    from e2e.workloads import WORKLOADS

    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    import _bootstrap  # noqa: F401

    print(json.dumps(benchmark_json(), indent=2, ensure_ascii=False))
