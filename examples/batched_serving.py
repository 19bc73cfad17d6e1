"""Closed batches AND streaming same-pattern serving: one plan, many matrices.

A parameter sweep produces B matrices sharing one sparsity pattern; a
single :class:`repro.api.SymbolicPlan` owns the symbolic work and either

* ``plan.factorize_batch`` factorizes the *closed batch* — everything
  exists up front — one matrix after another and returns the list of
  factors, or
* ``plan.serve()`` opens a streaming :class:`repro.api.ServingSession` —
  one persistent worker pool that drains every in-flight submission while
  matrices are submitted one at a time (``submit_solve`` futures), the
  arrival-driven serving loop, on any registered engine.

The example

1. builds a 3-D Poisson pattern and a sweep of diffusion coefficients,
2. factorizes the whole sweep in one batch call,
3. verifies every batch factor is bit-identical to a serial
   ``refactorize`` of the same matrix (the determinism contract),
4. solves a shared right-hand side with every factor and reads the
   ``logdet`` of every sweep member,
5. prints the batch's summed wall-clock next to a loop of the serial twin,
6. replays the sweep through a streaming session, one submission at a
   time, with a mid-stream non-SPD request that fails only its own future,
   and once more through a session on the serial ``rl`` engine,
7. serves the sweep through a :class:`repro.serving.Gateway` by values
   only: ``register`` the pattern once, then ``submit_values`` per member,
   each answer equal to a full ``submit`` of the same matrix.

Run:  python examples/batched_serving.py
"""

import asyncio
import time

import numpy as np

import repro
from repro.serving import Gateway
from repro.sparse import SymmetricCSC, grid_laplacian


def main():
    A = grid_laplacian((12, 12, 8))
    nbatch = 8
    rng = np.random.default_rng(42)

    # a sweep of same-pattern SPD matrices: jittered off-diagonals plus a
    # per-member diagonal shift (think: diffusion coefficient / Tikhonov
    # parameter scan)
    diag_pos = A.indptr[:-1]
    sweep = []
    for k in range(nbatch):
        data = A.data * (1.0 + 0.02 * rng.random(A.data.size))
        data[diag_pos] += 0.1 * (k + 1)
        sweep.append(data)

    plan = repro.plan(A)  # symbolic analysis: once for the whole sweep
    print(f"Problem: n = {A.n}, {plan.nsup} supernodes, "
          f"sweep of {nbatch} same-pattern matrices\n")

    # -- closed batch: a loop of rlb_par factorizations in one call -------
    batch = plan.factorize_batch(sweep, engine="rlb_par", workers=4)

    # -- looped: the serial twin, one same-plan factorize at a time -------
    plan.factorize(engine="rlb")  # prime the index caches, like the batch
    t0 = time.perf_counter()
    loop = [plan.factorize(data, engine="rlb") for data in sweep]
    t_loop = time.perf_counter() - t0

    for res, ref in zip(batch, loop):
        for p, q in zip(res.storage.panels, ref.storage.panels):
            assert np.array_equal(p, q)
    print("determinism: all batch factors bit-identical to the serial "
          "refactorize loop")

    b = A.matvec(np.ones(A.n))
    xs = [f.solve(b) for f in batch]  # one shared RHS across the sweep
    worst = max(f.residual_norm(x, b) for f, x in zip(batch, xs))
    print(f"solves: {len(xs)} solutions, worst residual {worst:.2e}")
    print("log det over the sweep:",
          np.array2string(np.array([f.logdet() for f in batch]), precision=1))

    workers = batch[0].result.extra["workers"]
    wall = sum(f.result.wall_seconds for f in batch)
    print(f"\nrlb     : {t_loop * 1e3:8.1f} ms "
          f"({t_loop / nbatch * 1e3:6.1f} ms/matrix)")
    print(f"rlb_par : {wall * 1e3:8.1f} ms "
          f"({wall / nbatch * 1e3:6.1f} ms/matrix, "
          f"workers={workers}; the sum of each factorization's own time)")
    print("pin BLAS to 1 thread when measuring — `python -m repro batch` "
          "prints the same pair, docs/api.md has a dated table")

    # -- streaming: the arrival-driven serving loop -----------------------
    # matrices now arrive one at a time (think: requests on a queue); one
    # persistent pool serves them as they come — and one poisoned request
    # (non-SPD) fails only its own future, never the session
    poisoned = sweep[3].copy()
    poisoned[diag_pos] = -1.0
    t0 = time.perf_counter()
    with plan.serve(engine="rlb_par", workers=4) as session:
        futures = [session.submit_solve(data, b) for data in sweep]
        bad = session.submit(poisoned)
        stream_xs = [f.result() for f in futures]
        err = bad.exception()
    t_stream = time.perf_counter() - t0
    assert all(np.array_equal(x, r) for x, r in zip(stream_xs, xs))
    print(f"\nstreaming session: {len(stream_xs)} submit_solve futures in "
          f"{t_stream * 1e3:.1f} ms, all bit-identical to the batch path")
    print(f"poisoned submission failed alone: {type(err).__name__} "
          f"(stream_index={err.stream_index}) — the pool kept serving")

    # any registered row can be served: serial rl runs each submission as
    # one pool task, with the bits of a direct rl factorize + solve
    with plan.serve(engine="rl") as session:
        rl_xs = [f.result() for f in
                 [session.submit_solve(data, b) for data in sweep]]
    assert all(np.array_equal(x, plan.factorize(data, engine="rl").solve(b))
               for x, data in zip(rl_xs, sweep))
    print("serial rl session: every solution bit-identical to "
          "plan.factorize(engine='rl').solve(b)")

    # -- gateway, values only: the pattern is analyzed once at register();
    # each sweep member then ships its values and the fingerprint only
    async def values_only():
        async with Gateway(workers=2) as gw:
            fp = await gw.register(A)
            for data in sweep:
                x = await gw.submit_values(fp, data, b)
                A_i = SymmetricCSC(A.n, A.indptr, A.indices, data, check=False)
                assert np.array_equal(x, await gw.submit(A_i, b))
            return gw.stats()

    stats = asyncio.run(values_only())
    print(f"gateway: {nbatch} submit_values requests on one registered "
          f"pattern, each equal to a full submit ({stats.misses} misses)")


if __name__ == "__main__":
    main()
