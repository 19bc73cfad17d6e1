"""Incremental factorization maintenance: rank-1 updates + sparse solves.

A common production pattern around a sparse Cholesky solver: the matrix
changes by low-rank corrections (re-weighted least squares, power-grid
branch switching, sliding observation windows) and most right-hand sides
are sparse (point loads, single-column inverse probes).  Instead of
refactorizing, this example

1. factorizes a 3-D Poisson problem once,
2. applies a stream of structurally valid rank-1 updates and downdates via
   hyperbolic rotations (:func:`repro.numeric.rank1_update`), checking each
   against a dense refactorization,
2b. walks the staged copy-on-write road — immutable
   :meth:`repro.api.Factor.update` / ``downdate`` at rank k, priced by
   :meth:`repro.api.Factor.update_cost`, with
   :meth:`repro.api.Factor.apply` taking the modeled
   update-vs-refactorize crossover automatically (``docs/updates.md``),
3. serves sparse right-hand sides with the reach-limited forward sweep
   (:func:`repro.solve.forward_solve_sparse`), reporting how few supernodes
   each solve touches,
4. runs a same-pattern value sweep through one reused
   :class:`repro.api.SymbolicPlan` — the symbolic analysis, relative-index
   caches and panel scatter plan are computed once and every subsequent
   factorization pays only for the numeric kernels.
   (When the whole sweep is known up front,
   :meth:`repro.api.SymbolicPlan.factorize_batch` is the same loop in one
   call, demonstrated in ``examples/batched_serving.py``.)

Run:  python examples/incremental_updates.py
"""

import time

import numpy as np
import scipy.linalg as sla

import repro
from repro.numeric import column_structure, factorize_rl_cpu, rank1_update
from repro.solve import backward_solve, forward_solve_sparse
from repro.sparse import grid_laplacian
from repro.symbolic import analyze


def main():
    A = grid_laplacian((10, 10, 6))
    system = analyze(A)
    symb = system.symb
    storage = factorize_rl_cpu(symb, system.matrix).storage
    print(f"Problem: n = {symb.n}, {symb.nsup} supernodes, "
          f"factor entries = {symb.factor_nnz_dense()}\n")

    # -- a stream of rank-1 modifications --------------------------------
    rng = np.random.default_rng(7)
    dense = system.matrix.to_dense()
    print("rank-1 stream (update, update, downdate, ...):")
    for step in range(6):
        j0 = int(rng.integers(0, symb.n))
        rows = column_structure(symb, j0)
        w = np.zeros(symb.n)
        w[j0] = 0.3 + 0.2 * rng.random()
        take = rows[: min(5, rows.size)]
        w[take] = 0.1 * rng.standard_normal(take.size)
        downdate = step % 3 == 2
        path = rank1_update(storage, w, downdate=downdate)
        dense += (-1 if downdate else +1) * np.outer(w, w)
        ref = np.tril(sla.cholesky(dense, lower=True))
        err = np.abs(storage.to_dense_lower() - ref).max()
        kind = "downdate" if downdate else "update  "
        print(f"  step {step}: {kind} at column {j0:4d}, "
              f"path length {len(path):3d} of {symb.n} columns, "
              f"max error vs refactorization {err:.2e}")
        assert err < 1e-8

    # -- staged rank-k updates: copy-on-write + the crossover -------------
    print("\nstaged rank-k updates (immutable factors, policy='auto'):")
    from repro.update import structured_update

    plan = repro.plan(A)
    factor = plan.factorize(engine="rl")
    b = A.matvec(np.ones(A.n))
    for rank in (1, 4):
        W = structured_update(plan.symb, plan.perm,
                              [3 * i for i in range(rank)],
                              nent=4, seed=rank, scale=0.1)
        cost = factor.update_cost(W)
        applied = factor.apply(W, policy="auto")
        shared = sum(p is q for p, q in zip(factor.storage.panels,
                                            applied.storage.panels))
        x = applied.solve(b)
        print(f"  rank {rank}: path {cost.path_cols:4d} cols, modeled "
              f"update {cost.update_seconds * 1e3:6.2f} ms vs refactorize "
              f"{cost.refactorize_seconds * 1e3:6.2f} ms -> "
              f"{applied.result.extra['applied_policy']:<11s} "
              f"(shares {shared}/{len(factor.storage.panels)} panels), "
              f"residual {applied.residual_norm(x, b):.2e}")
        assert applied.residual_norm(x, b) < 1e-8
        # the parent factor is untouched: still solves the ORIGINAL system
        assert factor.residual_norm(factor.solve(b), b) < 1e-10

    # -- sparse right-hand sides ------------------------------------------
    print("\nsparse right-hand sides (reach-limited forward sweep):")
    for trial in range(4):
        idx = np.unique(rng.integers(0, symb.n, size=trial + 1))
        val = rng.standard_normal(idx.size)
        y, touched = forward_solve_sparse(storage, idx, val)
        x = backward_solve(storage, y)
        b = np.zeros(symb.n)
        b[idx] = val
        resid = np.abs(dense @ x - b).max()
        print(f"  nnz(b) = {idx.size}: touched "
              f"{touched.size:3d}/{symb.nsup} supernodes, "
              f"residual {resid:.2e}")
        assert resid < 1e-8

    # -- same-pattern value sweeps: the symbolic-reuse API ----------------
    print("\nsame-pattern refactorization (symbolic + scatter plan reused):")
    t0 = time.perf_counter()
    plan = repro.plan(A)
    factor = plan.factorize(engine="rl")
    first = time.perf_counter() - t0
    b = A.matvec(np.ones(A.n))
    data = A.data
    for step in range(3):
        # e.g. a time-step-dependent diagonal shift: values change,
        # pattern (and therefore all symbolic work) does not
        data = data.copy()
        data[A.indptr[:-1]] *= 1.0 + 0.05 * (step + 1)
        t0 = time.perf_counter()
        factor = plan.factorize(data, engine="rl")
        dt = time.perf_counter() - t0
        x = factor.solve(b)
        print(f"  sweep {step}: refactorize {dt * 1e3:7.2f} ms "
              f"(first factorize incl. analysis {first * 1e3:7.2f} ms), "
              f"residual {factor.residual_norm(x, b):.2e}")
        assert factor.residual_norm(x, b) < 1e-10
    print("\nall incremental operations verified against dense references")


if __name__ == "__main__":
    main()
