"""Quickstart: factor and solve a sparse SPD system four ways.

Builds a 3-D Poisson problem and walks the staged ``plan → Factor``
pipeline: one symbolic analysis (nested-dissection ordering, supernode
merging, partition refinement) shared by all four factorization engines —
RL and RLB on the CPU, and their GPU-offloaded versions on the simulated
device — then solves and checks residuals.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.sparse import grid_laplacian


def main():
    A = grid_laplacian((14, 14, 8))
    rng = np.random.default_rng(0)
    x_true = rng.standard_normal(A.n)
    b = A.matvec(x_true)
    print(f"Problem: 3-D Poisson, n = {A.n}, nnz(A) = {A.nnz_lower}\n")

    plan = repro.plan(A)  # symbolic analysis: once, shared by every engine
    print(f"Symbolic plan: {plan.nsup} supernodes, "
          f"{plan.symb.factor_nnz_dense()} factor entries\n")

    print(f"{'engine':<12} {'modeled time':>14} {'speedup':>8} "
          f"{'snodes on GPU':>14} {'residual':>10}")
    baseline = None
    for engine in ("rl", "rlb", "rl_gpu", "rlb_gpu_v2"):
        factor = plan.factorize(engine=engine)
        x = factor.solve(b)
        res = factor.result
        if baseline is None:
            baseline = res.modeled_seconds
        speedup = baseline / res.modeled_seconds
        gpu = (f"{res.snodes_on_gpu}/{res.total_snodes}"
               if res.snodes_on_gpu else "-")
        print(f"{engine:<12} {res.modeled_seconds:>12.4f} s "
              f"{speedup:>8.2f} {gpu:>14} "
              f"{factor.residual_norm(x, b):>10.2e}")
        assert np.allclose(x, x_true, atol=1e-6)

    print("\nAll engines produced the same solution to machine precision.")
    print(f"log det(A) = {factor.logdet():.4f} (free with any factor)")
    print("(GPU times are modeled on the simulated device; numerics are "
          "exact — see docs/backends.md.)")

    # Mixed precision: factorize in fp32 (half the panel bytes, single-
    # precision BLAS), then recover fp64 accuracy by iterative refinement
    # — with an automatic fp64 refactorize should refinement ever stall.
    # The whole lane is documented in docs/precision.md.
    f32 = plan.factorize(engine="rlb", dtype=np.float32)
    direct = f32.residual_norm(f32.solve(b), b)
    out = f32.solve_refined(b, return_info=True)
    refined = f32.residual_norm(out.x, b)
    print(f"\nMixed precision (dtype=np.float32): "
          f"{f32.result.storage.nbytes()} panel bytes "
          f"(fp64: {factor.result.storage.nbytes()})")
    print(f"  direct fp32 solve residual: {direct:.2e}")
    print(f"  after {out.iterations} refinement steps: {refined:.2e}")
    assert refined <= 1e-12


if __name__ == "__main__":
    main()
