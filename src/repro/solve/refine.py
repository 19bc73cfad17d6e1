"""Iterative refinement on top of a computed factorization.

Classical fixed-precision refinement: repeat ``r = b - A x``;
``x += solve(L L^T, r)`` until the residual stalls or a tolerance is met.
Cheap insurance for the amalgamated factors (explicit zeros do not affect
accuracy, but refinement quantifies that) and a building block for the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .triangular import solve_factored

__all__ = ["RefinementResult", "refine", "relative_residual"]


def _relative_residual_norm(b, r):
    """Max over columns of ``||r||_inf / ||b||_inf`` (per-column norms so
    no small-scale column hides behind a large one)."""
    denom = np.maximum(np.abs(b).max(axis=0), 1e-300)
    return float((np.abs(r).max(axis=0) / denom).max())


def relative_residual(A, x, b):
    """Relative residual ``||b - A x|| / ||b||`` (infinity norm; for block
    right-hand sides the max of the *per-column* relative residuals).

    The one residual convention shared by :func:`refine` and
    :meth:`repro.api.Factor.residual_norm`.
    """
    b = np.asarray(b, dtype=np.float64)
    return _relative_residual_norm(b, b - A.matvec(x))


@dataclass
class RefinementResult:
    """Refined solution plus convergence history.

    ``stalled`` is True when the chain was cut short because a step failed
    to contract the residual (see :func:`repro.numeric.threshold
    .refinement_stalled`) — the factor's precision, not the iteration
    budget, was the binding constraint.  A stalled result is never
    ``converged``.
    """

    x: np.ndarray
    residual_norms: list
    iterations: int
    converged: bool
    stalled: bool = False


class _RefinementChain:
    """One refinement chain's state, advanced in one place.

    Whoever runs the solves — :func:`refine`'s loop, or the pool callbacks
    of :meth:`repro.api.ServingSession.submit_solve` — hands each solved
    vector (original ordering) to :meth:`step`: first ``x0``, then the
    corrections.  ``step`` returns the next right-hand side (the residual
    ``b - A x``), or ``None`` once the chain has ended — ``tol`` reached,
    ``max_iter`` residuals evaluated, or, with a ``stall_ratio``, a step
    failed to contract the residual; ``out`` is then the result.
    """

    def __init__(self, A, b, tol, max_iter, stall_ratio=None):
        self.A = A
        self.b = np.asarray(b, dtype=np.float64)
        self.tol = tol
        self.max_iter = max_iter
        self.stall_ratio = stall_ratio
        self.out = RefinementResult(None, [], 0, converged=False)

    def step(self, solved):
        out = self.out
        out.x = solved if out.x is None else out.x + solved
        if out.iterations >= self.max_iter:
            return None
        r = self.b - self.A.matvec(out.x)
        out.residual_norms.append(_relative_residual_norm(self.b, r))
        out.iterations += 1
        if out.residual_norms[-1] <= self.tol:
            out.converged = True
            return None
        if self.stall_ratio is not None:
            from ..numeric.threshold import refinement_stalled

            out.stalled = refinement_stalled(out.residual_norms, ratio=self.stall_ratio)
        return None if out.stalled else r


def refine(A, storage, perm, b, *, x0=None, tol=1e-14, max_iter=5,
           workers=None, stall_ratio=None):
    """Iteratively refine a solve of ``A x = b``.

    Parameters
    ----------
    A:
        Original (unpermuted) matrix.
    storage:
        Factor of the *permuted* matrix.
    perm:
        Permutation used by the factorization.
    b:
        Right-hand side (original ordering); a single ``(n,)`` vector or an
        ``(n, k)`` block of right-hand sides refined together (the residual
        norm is then the max over all columns).
    x0:
        Starting solution; computed from the factor when omitted.
    tol:
        Target relative residual (infinity norm).
    max_iter:
        Refinement step limit.
    workers:
        When given, every repeated solve (the initial one and each
        correction) runs the level-scheduled fused task graph on
        ``workers`` threads (:func:`repro.solve.triangular.solve_factored`)
        — bit-identical to the serial sweeps, so the refinement trajectory
        is unchanged; only the wall-clock of the inner solves drops.
    stall_ratio:
        When given, stop early (``stalled=True``) as soon as one step fails
        to shrink the residual to below ``stall_ratio ×`` the previous
        residual — the signature of a reduced-precision factor that cannot
        reach ``tol`` however long it iterates.  ``None`` (default)
        disables stall detection and keeps the historical behaviour.
    """
    def direct_solve(rhs):
        # rhs[perm] is already a fresh gather: solve it in place, one copy
        y = solve_factored(storage, rhs[perm], overwrite_b=True,
                           workers=workers)
        out = np.empty_like(y)
        out[perm] = y
        return out

    chain = _RefinementChain(A, b, tol, max_iter, stall_ratio)
    rhs = chain.step(direct_solve(chain.b) if x0 is None
                     else np.array(x0, dtype=np.float64))
    while rhs is not None:
        rhs = chain.step(direct_solve(rhs))
    return chain.out
