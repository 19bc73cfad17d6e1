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
from ..numeric.threshold import refinement_stalled
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

    ``fallback`` is set by :meth:`repro.api.Factor.solve_refined` when a
    reduced-precision chain fell back to an fp64 refactorization: the
    reason, the factor's dtype, the fp64 engine and the reduced-precision
    residual history (``None`` when nothing fell back).
    """

    x: np.ndarray
    residual_norms: list
    iterations: int
    converged: bool
    stalled: bool = False
    fallback: dict | None = None


def _solve_permuted(storage, perm, b, dtype=np.float64, workers=None):
    """``x`` with ``A x = b``, for a factor of ``P A Pᵀ`` and a ``b`` that
    :func:`~repro.solve.triangular.check_rhs` passed (the gather would
    truncate an oversized one): the sweeps run in place on the gather
    ``b[perm]`` in the work ``dtype`` — a narrower one divided first by its
    per-column max-norm, so the cast neither overflows nor flushes to zero
    at any scale of ``b``; ``x`` is float64."""
    y = b[perm]
    scale = None
    if dtype != np.float64:
        scale = np.abs(y).max(axis=0, initial=0.0)  # an empty y has no max
        scale = np.where(scale > 0, scale, 1.0)
        y = (y / scale).astype(dtype)
    x = np.empty(y.shape)
    x[perm] = solve_in_place(storage, y, workers)
    return x if scale is None else x * scale


def refine(A, storage, perm, b, *, x0=None, tol=1e-14, max_iter=5,
           stall_ratio=None):
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
        Refinement step limit; ``0`` is the plain float64 solve, bit for
        bit :meth:`repro.api.Factor.solve`.
    stall_ratio:
        When given, stop early (``stalled=True``) as soon as one step fails
        to shrink the residual to below ``stall_ratio ×`` the previous
        residual — the signature of a reduced-precision factor that cannot
        reach ``tol`` however long it iterates.  ``None`` (default)
        disables stall detection and keeps the historical behaviour.

    One loop on the serial sweeps; ``b`` and each residual are validated
    before their solve.  A ``tol`` that is negative or not finite, a
    negative ``max_iter`` or a ``stall_ratio <= 0`` raises ``ValueError``
    before any solve.
    """
    _check_refinement(tol, max_iter, stall_ratio)
    b = check_rhs(storage.symb.n, b, copy=False)
    return _refine(A, storage, perm, b, x0=x0, tol=tol, max_iter=max_iter,
                   stall_ratio=stall_ratio)


def _refine(A, storage, perm, b, *, tol, max_iter, x0=None, stall_ratio=None):
    """:func:`refine` of a validated ``b`` with validated arguments."""
    dtype = storage.dtype if max_iter >= 1 else np.float64  # the one work-dtype rule
    if x0 is None:
        x = _solve_permuted(storage, perm, b, dtype)
    else:
        x = np.array(x0, dtype=np.float64)
    out = RefinementResult(x, [], 0, converged=False)
    while out.iterations < max_iter:
        r = b - A.matvec(out.x)
        out.residual_norms.append(_relative_residual_norm(b, r))
        out.iterations += 1
        if out.residual_norms[-1] <= tol:
            out.converged = True
            break
        if stall_ratio is not None:
            out.stalled = refinement_stalled(out.residual_norms, ratio=stall_ratio)
            if out.stalled:
                break
        r = check_rhs(storage.symb.n, r, copy=False)  # an overflowed residual is refused
        out.x = out.x + _solve_permuted(storage, perm, r, dtype)
    return out
