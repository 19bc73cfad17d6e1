"""Trace the simulated machine: Gantt charts and overlap accounting.

Hands an event tracer to the offload engine, runs the paper's
RL-GPU schedule on a suite matrix, and shows

* an ASCII Gantt chart of the four lanes (host, compute stream, H2D/D2H
  copy engines),
* overlap statistics — how much of the asynchronous panel transfer hides
  under the SYRK (the paper's §III step 3),
* the async-vs-sync ablation: the same run with the panel copy made
  blocking, quantifying what the overlap bought,
* a Chrome/Perfetto trace file you can open in ``chrome://tracing``.

Run:  python examples/trace_timeline.py
"""

from repro.gpu import Tracer
from repro.numeric import factorize_rl_gpu
from repro.sparse import get_entry
from repro.symbolic import analyze

MATRIX = "Serena"


def traced_run(system, **kwargs):
    tracer = Tracer()
    res = factorize_rl_gpu(system.symb, system.matrix, tracer=tracer,
                           device_memory=10 ** 15, **kwargs)
    return res, tracer


def main():
    system = analyze(get_entry(MATRIX).builder())
    print(f"{MATRIX}: n = {system.symb.n}, "
          f"{system.symb.nsup} supernodes\n")

    res, tracer = traced_run(system)
    print("RL-GPU timeline (default threshold):")
    print(tracer.ascii_gantt(width=76))
    print()

    s = tracer.summary()
    print(f"GPU compute busy      : {1e3 * s['busy_gpu']:8.2f} ms")
    print(f"D2H engine busy       : {1e3 * s['busy_copy_out']:8.2f} ms")
    print(f"D2H hidden under GPU  : "
          f"{1e3 * s['overlap_gpu_copy_out']:8.2f} ms")
    print()

    res_sync, _ = traced_run(system, async_panel_d2h=False)
    gain = res_sync.modeled_seconds / res.modeled_seconds - 1
    print("Async-panel-D2H ablation (paper §III step 3):")
    print(f"  async (paper) : {res.modeled_seconds:.4f} s")
    print(f"  blocking      : {res_sync.modeled_seconds:.4f} s "
          f"({100 * gain:+.1f}%)")
    print()

    path = tracer.save_chrome_trace("rl_gpu_trace.json")
    print(f"Chrome trace written to {path} "
          "(open in chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    main()
