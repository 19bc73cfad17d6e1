"""Extension: offloading the *solve* phase — where is the crossover?

The paper offloads only the factorization.  The solve sweeps are
memory-bound and mostly sequential, so a GPU solve must amortize its
transfer and launch floor over many right-hand sides (the device clock is
the solve graphs', which overlap independent branches).  This bench sweeps the RHS count k
and reports the smallest k at which the GPU solve (factor already resident
on the device, the best case) beats the best-over-threads CPU solve.
"""

from __future__ import annotations

import numpy as np

from conftest import suite_names, write_result
from repro.analysis import format_table
from repro.numeric import factorize_rl_cpu
from repro.solve import solve_factored_cpu, solve_factored_gpu_dag

KS = (1, 4, 16, 64, 256)


def sweep(names):
    from conftest import get_system

    rows = []
    crossovers = []
    rng = np.random.default_rng(42)
    for name in names:
        sy = get_system(name)
        storage = factorize_rl_cpu(sy.symb, sy.matrix).storage
        cells = [name]
        crossover = None
        for k in KS:
            B = rng.standard_normal((sy.symb.n, k))
            _, tc, _ = solve_factored_cpu(storage, B)
            _, tg, _ = solve_factored_gpu_dag(storage, B, factor_resident=True)
            cells.append(f"{tc / tg:.2f}")
            if crossover is None and tg < tc:
                crossover = k
        crossovers.append(crossover)
        cells.append(str(crossover) if crossover else f"> {KS[-1]}")
        rows.append(tuple(cells))
    text = format_table(
        ["Matrix", *(f"speedup k={k}" for k in KS), "crossover k"],
        rows,
        title="Extension: GPU solve crossover (factor resident on device)")
    return text, crossovers


def test_solve_offload(benchmark):
    names = [n for n in suite_names() if n != "nlpkkt120"][:6]
    text, crossovers = benchmark.pedantic(lambda: sweep(names), rounds=1,
                                          iterations=1)
    write_result("solve_offload.txt", text)
    # a single RHS never pays off (the solve is launch/transfer bound) ...
    from conftest import get_system

    name = names[0]
    sy = get_system(name)
    storage = factorize_rl_cpu(sy.symb, sy.matrix).storage
    b = np.ones(sy.symb.n)
    _, tc, _ = solve_factored_cpu(storage, b)
    _, tg, _ = solve_factored_gpu_dag(storage, b, factor_resident=True)
    assert tg > tc
    # ... but a finite crossover exists for every matrix in the sweep
    assert all(c is not None for c in crossovers)
