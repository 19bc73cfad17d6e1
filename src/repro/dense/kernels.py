"""Dense kernels: thin wrappers over LAPACK/BLAS for supernode panels.

A supernode panel is a Fortran-ordered ``(m, w)`` array whose top ``w x w``
square holds the (lower-triangular) diagonal block and whose remaining
``(m - w) x w`` rectangle holds the below-diagonal rows.  The four kernels
here are exactly the paper's DPOTRF / DTRSM / DSYRK / DGEMM calls; every
numeric factorization variant is a different schedule of these four.  The
triangular sweeps add one more, :func:`trtrs_lower` (DTRTRS on a panel's
diagonal block).

They always compute with real BLAS through SciPy (so the numerics match a
Fortran implementation); callers that need *modeled* device timing wrap them
via :mod:`repro.gpu`.

Precision
---------
Every kernel dispatches on its input array's dtype: float64 panels run the
``d``-prefixed LAPACK/BLAS routines, float32 panels the ``s``-prefixed ones
(same flags, same reduction order — fp32 factors are therefore bit-identical
across schedules exactly like fp64 ones).  Anything else is rejected with
:class:`UnsupportedDtypeError` rather than silently upcast; complex and half
precision have no kernel lane here.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

__all__ = [
    "NotPositiveDefiniteError",
    "NonFiniteValuesError",
    "UnsupportedDtypeError",
    "SUPPORTED_DTYPES",
    "check_dtype",
    "check_finite",
    "potrf",
    "trsm_right",
    "syrk_lower",
    "gemm_nt",
    "trtrs_lower",
    "factorize_panel",
    "factor_routines",
    "pair_routines",
]

#: The dtypes the numeric lane supports, in preference order.
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


class UnsupportedDtypeError(TypeError):
    """Raised when a values array (or requested storage dtype) is outside
    the supported precision lane (:data:`SUPPORTED_DTYPES`).

    Subclasses :class:`TypeError` so generic dtype-mismatch handling keeps
    working; raised instead of silently upcasting so callers choose their
    precision explicitly.
    """

    def __init__(self, dtype, *, context="values"):
        names = ", ".join(d.name for d in SUPPORTED_DTYPES)
        super().__init__(
            f"unsupported {context} dtype {np.dtype(dtype).name!r}; "
            f"supported dtypes are: {names}"
        )
        self.dtype = np.dtype(dtype)


def check_dtype(dtype, *, context="values"):
    """Validate ``dtype`` against :data:`SUPPORTED_DTYPES` and return it as
    a :class:`numpy.dtype`.  Raises :class:`UnsupportedDtypeError` on
    complex, float16, integer, and every other unsupported kind."""
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise UnsupportedDtypeError(dt, context=context)
    return dt


# Per-dtype LAPACK/BLAS routine tables.  Same call flags either way; only
# the letter changes, so the reduction order (and hence bit-identity
# arguments) carry over to fp32 unchanged.
_POTRF = {SUPPORTED_DTYPES[0]: _lapack.dpotrf, SUPPORTED_DTYPES[1]: _lapack.spotrf}
_TRSM = {SUPPORTED_DTYPES[0]: _blas.dtrsm, SUPPORTED_DTYPES[1]: _blas.strsm}
_SYRK = {SUPPORTED_DTYPES[0]: _blas.dsyrk, SUPPORTED_DTYPES[1]: _blas.ssyrk}
_GEMM = {SUPPORTED_DTYPES[0]: _blas.dgemm, SUPPORTED_DTYPES[1]: _blas.sgemm}
_TRTRS = {SUPPORTED_DTYPES[0]: _lapack.dtrtrs, SUPPORTED_DTYPES[1]: _lapack.strtrs}


def factor_routines(dtype):
    """The raw ``(?potrf, ?trsm, ?syrk)`` f2py routines of ``dtype`` — for a
    caller that picks them once per factorization and then hands each
    operand across f2py itself (:func:`repro.numeric.rl.factor_update`)."""
    dt = check_dtype(dtype, context="storage")
    return _POTRF[dt], _TRSM[dt], _SYRK[dt]


def pair_routines(dtype):
    """The raw ``(?syrk, ?gemm)`` f2py routines of ``dtype`` — RLB's two
    block-pair kernels, for a caller that hands them F-contiguous row blocks
    itself (:func:`repro.numeric.rlb.pair_updates`)."""
    dt = check_dtype(dtype, context="storage")
    return _SYRK[dt], _GEMM[dt]


def _routine(table, array, name):
    fn = table.get(array.dtype)
    if fn is None:
        raise UnsupportedDtypeError(array.dtype, context=name + " operand")
    return fn


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a diagonal block fails dense Cholesky — the matrix is not
    (numerically) positive definite at the offending pivot.

    :meth:`repro.api.SymbolicPlan.factorize_batch` re-raises via
    :meth:`for_batch`, which adds a ``batch_index`` attribute naming the
    offending matrix's position in the batch.
    """

    def __init__(self, pivot):
        super().__init__(f"matrix is not positive definite (pivot {pivot})")
        self.pivot = int(pivot)

    @classmethod
    def for_batch(cls, exc, batch_index):
        """A copy of ``exc`` annotated with the batch position it came
        from — the one place the batched-error contract is defined."""
        err = cls(exc.pivot)
        err.args = (f"batch matrix {batch_index}: {err.args[0]}",)
        err.batch_index = int(batch_index)
        return err

    @classmethod
    def for_stream(cls, exc, stream_index):
        """A copy of ``exc`` annotated with the submission index of a
        streaming serving session (:class:`repro.api.ServingSession`) —
        surfaced on that submission's future, never the pool."""
        err = cls(exc.pivot)
        err.args = (f"stream submission {stream_index}: {err.args[0]}",)
        err.stream_index = int(stream_index)
        return err


class NonFiniteValuesError(ValueError):
    """Raised when a matrix's values, a right-hand side or a solution hold
    NaN or ±Inf (``what`` names which).  Values are checked once per request
    where every door funnels (:meth:`repro.api.SymbolicPlan.factorize`,
    ``factorize_batch``, the serving sessions and the gateway), before any
    numeric work; every solve door checks its right-hand side on the way in
    and its solution on the way out: a non-finite factor is never built, a
    NaN never served.  ``count`` is the number of offending entries;
    ``batch_index`` the position in a batch (``None`` outside one)."""

    def __init__(self, count, batch_index=None, what="values"):
        where = "" if batch_index is None else f"batch matrix {batch_index}: "
        super().__init__(f"{where}{count} non-finite entries (NaN or Inf) in the {what}")
        self.count = int(count)
        self.batch_index = batch_index
        self.what = what


def check_finite(x, what):
    """``x`` — or :class:`NonFiniteValuesError` naming ``what`` if it holds NaN or ±Inf."""
    finite = np.isfinite(x)
    if not finite.all():
        raise NonFiniteValuesError(x.size - np.count_nonzero(finite), what=what)
    return x


def potrf(block):
    """In-place lower Cholesky of the leading square of ``block``.

    ``block`` must be a square, Fortran-contiguous float64/float32 array;
    only its lower triangle is referenced or written.
    """
    c, info = _routine(_POTRF, block, "potrf")(block, lower=1, overwrite_a=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise ValueError(f"potrf: illegal argument {-info}")
    if c is not block:  # overwrite was not possible (non-contiguous input)
        block[:] = c
    return block


def trsm_right(rect, tri):
    """In-place ``rect := rect @ tri^{-T}`` with ``tri`` lower triangular.

    This is the DTRSM that finishes factorizing a supernode's rectangular
    part against its (already factorized) diagonal block.
    """
    if rect.shape[0] == 0 or rect.shape[1] == 0:
        return rect
    out = _routine(_TRSM, rect, "trsm")(
        1.0, tri, rect, side=1, lower=1, trans_a=1, diag=0, overwrite_b=1
    )
    if out is not rect:
        rect[:] = out
    return rect


def syrk_lower(rect, out=None):
    """Symmetric rank-k product ``U = rect @ rect^T`` (lower triangle valid).

    When ``out`` is given it must be an ``(n, n)`` Fortran-ordered buffer; the
    product is written into it (its upper triangle is left untouched).
    """
    n = rect.shape[0]
    u = _routine(_SYRK, rect, "syrk")(1.0, rect, lower=1, trans=0)
    if out is None:
        return u
    out[:n, :n] = u
    return out


def gemm_nt(a, b, out=None):
    """General product ``C = a @ b^T`` (the DGEMM of RLB block pairs)."""
    c = _routine(_GEMM, a, "gemm")(1.0, a, b, trans_b=1)
    if out is None:
        return c
    out[: c.shape[0], : c.shape[1]] = c
    return out


def trtrs_lower(panel, b, trans=0):
    """Solve ``tri x = b`` (``trans=1``: ``tri^T x = b``) with ``tri`` the
    lower triangle of the leading ``w x w`` square of the ``(m, w)``
    ``panel``; returns ``x``.

    ``b`` has ``w`` rows (``(w,)`` or ``(w, k)``) and is overwritten when it
    can be — Fortran-contiguous and already of the computing dtype — in
    which case ``x is b``; otherwise ``x`` is a new array.  A
    Fortran-ordered panel is passed whole (its row count is the leading
    dimension), so the diagonal block is never copied out.  The routine is
    the one for the promoted dtype of ``(panel, b)``: only the diagonal
    block of a narrower panel is upcast, ``b`` is never downcast.

    This is the LAPACK routine scipy's triangular-solve wrapper reaches,
    called without that wrapper but with its check kept: an exactly-zero
    diagonal entry raises :class:`numpy.linalg.LinAlgError` before ``b`` is
    touched.
    """
    if panel.dtype != b.dtype:
        dt = np.promote_types(panel.dtype, b.dtype)
        if panel.dtype != dt:
            panel = panel[: panel.shape[1]].astype(dt, order="F")
        if b.dtype != dt:
            b = b.astype(dt, order="F")
    x, info = _routine(_TRTRS, b, "trtrs")(panel, b, lower=1, trans=trans, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular triangular block: diagonal entry {info - 1} is exactly zero"
        )
    if info < 0:
        raise ValueError(f"trtrs: illegal argument {-info}")
    return x


def factorize_panel(panel, w):
    """Factorize one supernode panel in place: POTRF on the top ``w x w``
    block, then TRSM on the rectangle below.  Returns the panel."""
    potrf(panel[:w, :w])
    trsm_right(panel[w:, :w], panel[:w, :w])
    return panel
