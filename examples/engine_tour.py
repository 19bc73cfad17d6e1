"""Engine tour: every factorization organisation on one matrix.

Runs every registry row once, under its one name — the paper's RL/RLB
(CPU + GPU), their task-DAG twins, and the left-looking and multifrontal
baselines with their GPU offloads — on one suite matrix, verifying that
every factor is identical,
then prints the modeled-time comparison, the per-kernel-class breakdown,
and the memory planner's feasibility report.

Run:  python examples/engine_tour.py [matrix-name]
"""

import sys

import numpy as np

import repro
from repro.analysis import breakdown, format_table, render_breakdowns
from repro.numeric.registry import ENGINES
from repro.sparse import get_entry

BIG_MEM = 10 ** 15


def main(name="Serena"):
    A = get_entry(name).builder()
    p = repro.plan(A)  # symbolic analysis, shared by every engine below
    symb = p.symb
    print(f"{name}: n = {symb.n}, {symb.nsup} supernodes, "
          f"{symb.factor_flops():.2e} factor flops  "
          f"[pattern {p.fingerprint}]\n")

    rows = []
    reference = None
    for engine, spec in ENGINES.items():
        kwargs = {"device_memory": BIG_MEM} if "device_memory" in spec.accepts else {}
        res = p.factorize(engine=engine, **kwargs).result
        L = res.storage.to_dense_lower()
        if reference is None:
            reference = L
        err = np.abs(L - reference).max()
        assert err < 1e-8, f"{engine} disagrees with reference ({err})"
        gpu = (f"{res.snodes_on_gpu}/{res.total_snodes}"
               if res.snodes_on_gpu else "--")
        rows.append((engine, f"{res.modeled_seconds:.4f}",
                     str(res.kernel_count), gpu))
    print(format_table(
        ["engine", "modeled s", "BLAS calls", "snodes on GPU"], rows,
        title="All engines, identical factors"))
    print()

    bs = [breakdown(symb, method=m)
          for m in ("rl", "rlb", "rl_gpu", "rlb_gpu")]
    print(render_breakdowns(bs, title="Where the modeled time goes "
                                      "(resource seconds per class)"))
    print()

    mp = repro.memory_plan(symb)
    print(f"Memory planner at the default device "
          f"({mp.device_memory / 2**20:.0f} MiB):")
    for m, need in mp.predictions.items():
        tag = "fits" if m in mp.feasible else "DOES NOT FIT"
        print(f"  {m:<18} predicted peak {need / 2**20:7.1f} MiB  [{tag}]")
    print(f"  recommended engine: {mp.recommended}")


if __name__ == "__main__":
    main(*sys.argv[1:])
