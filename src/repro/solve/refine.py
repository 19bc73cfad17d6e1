"""Iterative refinement on top of a computed factorization.

Mixed-precision refinement: repeat ``r = b - A x``; ``x += solve(L L^T, r)``
until the residual stalls or a tolerance is met.  ``r`` and ``x`` are
float64; the solves run in the factor's own dtype — on an fp32 factor, fp32
sweeps over the fp32 panels, nothing upcast per call.  On an fp64 factor it
is classical fixed-precision refinement, a building block for the examples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ..dense.kernels import check_real
from .triangular import check_rhs, solve_in_place

__all__ = ["RefinementResult", "refine", "relative_residual"]


def _check_refinement(tol, max_iter, stall_ratio=None):
    """Refuse out-of-range refinement arguments with ``ValueError`` (a
    non-integer ``max_iter`` with ``TypeError``): ``tol`` finite and
    ``>= 0``, ``max_iter`` an integer ``>= 0``, ``stall_ratio`` ``> 0`` or
    ``None``."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if operator.index(max_iter) < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if stall_ratio is not None and not stall_ratio > 0:
        raise ValueError(f"stall_ratio must be > 0 or None, got {stall_ratio}")


def _relative_residual_norm(b, r):
    """Max over columns of ``||r||_inf / ||b||_inf`` (per-column norms so
    no small-scale column hides behind a large one); ``0.0`` for an empty
    ``b``, whose solve is exact."""
    if b.size == 0:
        return 0.0
    denom = np.maximum(np.abs(b).max(axis=0), 1e-300)
    return float((np.abs(r).max(axis=0) / denom).max())


def relative_residual(A, x, b):
    """Relative residual ``||b - A x|| / ||b||`` (infinity norm; for block
    right-hand sides the max of the *per-column* relative residuals).

    The one residual convention shared by :func:`refine` and
    :meth:`repro.api.Factor.residual_norm`.
    """
    b = np.asarray(check_real(b, "right-hand side"), dtype=np.float64)
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
    of :meth:`repro.api.ServingSession.submit_solve` — solves the
    :meth:`work` vector of each gathered right-hand side (``rhs[perm]``) in
    place and hands it to :meth:`step`: first ``b``'s, then the residuals'.
    ``step`` returns the next right-hand side (``b - A x``), or ``None``
    once the chain has ended — ``tol`` reached, ``max_iter`` residuals
    evaluated, or, with a ``stall_ratio``, a step failed to contract the
    residual; ``out`` is then the result.  The one work-dtype rule: a chain
    that refines solves in the factor's ``dtype``, one that stops at ``x0``
    in float64 — bit for bit the plain solve.
    """

    def __init__(self, A, b, perm, dtype, tol, max_iter, stall_ratio=None):
        _check_refinement(tol, max_iter, stall_ratio)
        self.A = A
        self.b = np.asarray(check_real(b, "right-hand side"), dtype=np.float64)
        self.perm = perm
        self.dtype = np.dtype(dtype if max_iter >= 1 else np.float64)
        self.tol = tol
        self.max_iter = max_iter
        self.stall_ratio = stall_ratio
        self.scale = None
        self.out = RefinementResult(None, [], 0, converged=False)

    def work(self, y):
        """``y`` (a float64 gather the chain owns) in the work dtype: a
        narrower one gets ``y`` divided by its per-column max-norm first, so
        the cast neither overflows nor flushes to zero at any scale of ``b``."""
        if self.dtype == np.float64:
            return y
        scale = np.abs(y).max(axis=0, initial=0.0)  # an empty y has no max
        self.scale = np.where(scale > 0, scale, 1.0)
        y /= self.scale
        return y.astype(self.dtype)

    def step(self, solved):
        """:meth:`advance` by the solved work vector, unscaled and scattered
        back to the original ordering in float64."""
        x = np.empty(solved.shape)
        x[self.perm] = solved
        if self.scale is not None:
            x *= self.scale
        return self.advance(x)

    def advance(self, x):
        """Add ``x`` (float64, original ordering) to the solution."""
        out = self.out
        out.x = x if out.x is None else out.x + x
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
        Factor of the *permuted* matrix; the solves run in its dtype.
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
        Refinement step limit; ``0`` is the plain float64 solve.
    workers:
        When given, every repeated solve (the initial one and each
        correction) runs the level-scheduled fused task graph on
        ``workers`` threads (:func:`repro.solve.triangular.solve_in_place`)
        — bit-identical to the serial sweeps, so the refinement trajectory
        is unchanged; only the wall-clock of the inner solves drops.
    stall_ratio:
        When given, stop early (``stalled=True``) as soon as one step fails
        to shrink the residual to below ``stall_ratio ×`` the previous
        residual — the signature of a reduced-precision factor that cannot
        reach ``tol`` however long it iterates.  ``None`` (default)
        disables stall detection and keeps the historical behaviour.

    A ``tol`` that is negative or not finite, a negative ``max_iter`` or a
    ``stall_ratio <= 0`` raises ``ValueError`` before any solve.
    """
    chain = _RefinementChain(A, b, perm, storage.dtype, tol, max_iter, stall_ratio)
    rhs = chain.b if x0 is None else chain.advance(np.array(x0, dtype=np.float64))
    while rhs is not None:
        # validated before the gather, which would truncate an oversized rhs
        y = chain.work(check_rhs(storage.symb.n, rhs, copy=False)[perm])
        rhs = chain.step(solve_in_place(storage, y, workers))
    return chain.out
