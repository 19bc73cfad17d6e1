"""Ablation: what the asynchronous transfers buy.

The paper's RL-GPU schedule makes the factored-panel D2H *asynchronous*
("the CPU does not immediately require the data", §III) and RLB-v2 pipelines
per-block copies against the next block's kernel.  This bench disables each
overlap — a host-blocking panel copy for RL, a single in-flight buffer for
RLB-v2 — and reports the slowdown, alongside tracer-measured overlap seconds.
"""

from __future__ import annotations

from conftest import suite_names, write_result
from repro.analysis import format_table
from repro.gpu import Tracer
from repro.numeric import factorize_rl_gpu, factorize_rlb_gpu

BIG_MEM = 10 ** 15


def traced(fn, system, **kwargs):
    tracer = Tracer()
    res = fn(system.symb, system.matrix, tracer=tracer,
             device_memory=BIG_MEM, **kwargs)
    return res, tracer


def sweep(names):
    from conftest import get_system

    rows = []
    ratios_rl, ratios_rlb = [], []
    for name in names:
        sy = get_system(name)
        r_async, tr = traced(factorize_rl_gpu, sy)
        r_sync, _ = traced(factorize_rl_gpu, sy, async_panel_d2h=False)
        r_pipe, _ = traced(factorize_rlb_gpu, sy, version=2, inflight=2)
        r_serial, _ = traced(factorize_rlb_gpu, sy, version=2, inflight=1)
        rl_pen = r_sync.modeled_seconds / r_async.modeled_seconds - 1
        rlb_pen = r_serial.modeled_seconds / r_pipe.modeled_seconds - 1
        ratios_rl.append(rl_pen)
        ratios_rlb.append(rlb_pen)
        rows.append((
            name,
            f"{r_async.modeled_seconds:.4f}",
            f"{100 * rl_pen:+.1f}%",
            f"{100 * rlb_pen:+.1f}%",
            f"{1e3 * tr.overlap('gpu', 'copy_out'):.2f}",
        ))
    text = format_table(
        ["Matrix", "RL-GPU async (s)", "sync-panel penalty",
         "1-buffer RLB penalty", "gpu//copy_out overlap (ms)"],
        rows, title="Ablation: asynchronous-transfer overlap")
    return text, ratios_rl, ratios_rlb


def test_overlap_ablation(benchmark):
    names = [n for n in suite_names() if n != "nlpkkt120"][-5:]
    text, ratios_rl, ratios_rlb = benchmark.pedantic(
        lambda: sweep(names), rounds=1, iterations=1)
    write_result("ablation_overlap.txt", text)
    # disabling an overlap can never help
    assert all(r >= -1e-9 for r in ratios_rl)
    assert all(r >= -1e-9 for r in ratios_rlb)
    # and it visibly hurts somewhere in the large half of the suite
    assert max(ratios_rl + ratios_rlb) > 0.005
