"""Supernodal triangular solves: ``L y = b`` and ``L^T x = y``.

Once the factor is computed (by any engine — they all share
:class:`~repro.numeric.storage.FactorStorage`), the solve phase walks the
supernodes once forward and once backward, doing a dense triangular solve on
each diagonal block and a GEMV-style update with each rectangle — the
standard supernodal solve that completes the paper's "direct method" story
(§I: the triangular factors are used to compute the solution).

The full solve exists in two *schedules* over the same per-supernode
arithmetic (:func:`forward_snode` / :func:`backward_snode`: a ``?trtrs`` on
the diagonal block and a ``?gemm`` with the rectangle, scipy's routines):

* **serial** (``workers=None``) — one supernode after another; backward the
  mirror.  It is ONE call into the compiled walk (``numeric/_solve.c``,
  :func:`repro.numeric._native.solve_loop`) with the interpreter lock
  released: the same routines with the same flags on the same sizes, the
  below rows gathered and scattered in C, so the same bits as the Python
  walk.  An fp32 factor under a float64 right-hand side takes the same
  call over an exact float64 upcast of its panels, built per call (the
  Python walk upcasts each block as it reads it: the same bits).  The
  Python walk runs where no library could be built (:func:`serial_body`);
* **one fused task graph** (``workers=N``, :func:`solve_graph`) — both
  sweeps of :func:`repro.symbolic.levels.solve_schedule` on the
  shared-ready-queue runtime of :mod:`repro.numeric.executor`, one task per
  *task range* (:mod:`repro.symbolic.ranges`) and sweep: a range of whole
  subtrees is the Python walk over its supernodes, only the single
  supernodes above the cut are tasks of their own.  A forward update that
  leaves a range is parked, and the task owning the rows subtracts what was
  parked for it itself, in ascending source order, so solutions are
  **bit-identical** to the serial sweeps for any worker count and any order
  the ready tasks run in; a backward task only reads finalized ancestor
  segments (:class:`~repro.numeric.executor.Countdown` releases it).

The Python bodies read the factor's *solve program*
(:meth:`~repro.numeric.storage.FactorStorage.solve_program`), cut on their
first use; the compiled walk reads the storage's panel addresses
(:meth:`~repro.numeric.storage.FactorStorage.panel_addresses`) and the
pattern's ``snptr`` / ``rowptr`` / ``rows``.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..dense.kernels import check_finite, check_real, rect_product, trtrs_lower
from ..numeric._native import solve_loop
from ..numeric.executor import Countdown, run_task_graph
from ..symbolic.levels import solve_schedule

__all__ = [
    "forward_solve",
    "backward_solve",
    "solve_factored",
    "solve_in_place",
    "serial_body",
    "check_rhs",
    "forward_snode",
    "backward_snode",
    "solve_graph",
]

#: ``_solve.c``'s sweep flags
FORWARD, BACKWARD = 1, 2


def check_rhs(n, b, name="b", *, copy=True):
    """Validate an ``(n,)`` or ``(n, k)`` right-hand side.

    Returns a float64 array safe to solve in place: a copy of ``b`` by
    default, or ``b`` itself (when it already is a float64 ndarray) with
    ``copy=False`` — the caller has declared it owns the buffer (or only
    wants the validated conversion).  The one right-hand-side validation
    shared by both sweeps and the staged API, so every caller reports the
    same message with the expected ``n`` and the offending shape, and NaN/Inf
    entries are refused here (:class:`~repro.dense.kernels.NonFiniteValuesError`),
    complex ones too (:class:`~repro.dense.kernels.UnsupportedDtypeError`).
    """
    out = np.asarray(check_real(b, "right-hand side"), dtype=np.float64)
    if out.ndim not in (1, 2) or out.shape[0] != n:
        # one message for both sweeps: `name` is the argument being
        # validated (`b` forward, `y` backward) but it is always a
        # right-hand side of the triangular system being solved
        raise ValueError(
            f"right-hand side {name!r} must have shape ({n},) or ({n}, k), got {np.shape(b)}"
        )
    # a NaN defeats every comparison downstream (refinement would burn
    # max_iter solves on it and serve NaN)
    check_finite(out, "right-hand side")
    # identity alone is not enough: a subclass view or buffer-protocol
    # object converts to a *different* array sharing the caller's memory
    if copy and np.may_share_memory(out, b):
        out = out.copy()
    return out


# ----------------------------------------------------------------------
# shared per-supernode task bodies (the Python walk and the graph's tasks)
# ----------------------------------------------------------------------
def _solve_diagonal(panel, seg, trans=0):
    """In-place solve of ``seg`` (a supernode's own rows of the right-hand
    side) against the lower-triangular diagonal block of ``panel``: a direct
    ``?trtrs`` (:func:`~repro.dense.kernels.trtrs_lower`) at every width."""
    x = trtrs_lower(panel, seg, trans)
    if x is not seg:  # seg was not overwritable in place (multi-RHS rows)
        seg[...] = x


def forward_snode(storage, y, s):
    """Forward task body of supernode ``s``: triangular-solve its diagonal
    block on ``y``'s own segment, then compute (NOT apply) the update of
    the below-diagonal rows.

    Returns ``(below, u)`` — the below-row indices and the dense update
    ``u = rect @ seg`` (:func:`~repro.dense.kernels.rect_product`) to
    subtract from ``y[below]`` (``None`` when ``s`` has no below rows).  The
    serial walk subtracts ``u`` whole; the parallel sweep splits it into
    per-ancestor runs, each subtracted by its owner.  One body, two
    schedules: the arithmetic is identical, which is what makes the
    parallel sweep bit-identical.
    """
    first, last, w, panel, rect, below = storage.solve_program()[s]
    seg = y[first:last]
    _solve_diagonal(panel, seg)
    if rect is None:
        return below, None
    return below, rect_product(rect, seg)


def backward_snode(storage, x, s):
    """Backward task body of supernode ``s``: subtract the (finalized)
    ancestor segments' contribution ``rect.T @ x[below]``, then
    triangular-solve the transposed diagonal block on ``x``'s own segment.
    Reads ``x[below]`` and writes only ``x[first:last]`` — the backward
    sweep has no cross-supernode writes at all."""
    first, last, w, panel, rect, below = storage.solve_program()[s]
    seg = x[first:last]
    if rect is not None:
        seg -= rect_product(rect, x[below], trans=1)
    _solve_diagonal(panel, seg, trans=1)


# ----------------------------------------------------------------------
# the fused task graph of both sweeps
# ----------------------------------------------------------------------
def _forward_range(storage, y, sched, parked, tid):
    """Forward task ``tid``: subtract the updates parked for it
    (``sched.fwd.incoming``, ascending source — the serial accumulation
    order), then run the forward body over the supernodes of range ``tid``,
    ascending.  Updates of rows inside the range are subtracted at once; a
    source whose rows leave parks its ``(below, u)`` for their owners."""
    for s, lo, hi in sched.fwd.incoming[tid]:
        below, u = parked[s]
        y[below[lo:hi]] -= u[lo:hi]
        # the owners of a source's rows lie on one path of the elimination
        # tree, so the one reading its last rows reads last
        if hi == len(below):
            del parked[s]
    leaving, bounds = sched.leaving, sched.ranges.bounds
    for s in range(bounds[tid], bounds[tid + 1]):
        below, u = forward_snode(storage, y, s)
        if u is None:
            continue
        if leaving[s] is None:
            y[below] -= u
            continue
        stay = leaving[s][0]
        if stay:
            y[below[:stay]] -= u[:stay]
        parked[s] = (below, u)


def _backward_range(storage, x, sched, tid):
    """Backward task ``tid``: the backward body over the supernodes of
    range ``tid``, descending (every row it reads is final: in-range
    ancestors ran earlier in this loop, the others are this task's
    dependencies)."""
    bounds = sched.ranges.bounds
    for s in range(bounds[tid + 1] - 1, bounds[tid] - 1, -1):
        backward_snode(storage, x, s)


def solve_graph(storage, y, ranges=None):
    """``(ntasks, roots, run_task)`` of the FUSED full solve
    ``L L^T x = b`` on ``y`` (solved in place) — both sweeps as one task
    graph on one pool.

    The forward graph's ``F`` tasks keep their ids, backward task ``t`` is
    id ``F + t``.  A backward range task waits for (a) its own forward task —
    its segments of ``y`` are final — and (b) the backward tasks of every
    range owning one of its leaving below rows (``SolveSchedule.fused``).
    Because a supernode's segment receives no writes after its own forward
    solve, the backward GEMVs read exactly the values the serial back-to-back
    sweeps read — bit-identity holds while the backward leaves overlap in
    time with the forward root, and a full solve costs ONE pool, not two.
    """
    sched = solve_schedule(storage.symb, ranges)
    nforward, parked, edges = len(sched.fwd.children), {}, sched.fused

    def run(tid):
        if tid < nforward:
            _forward_range(storage, y, sched, parked, tid)
        else:
            _backward_range(storage, y, sched, tid - nforward)

    return len(edges.children), edges.roots, Countdown(edges.indeg).task(run, edges.children)


# ----------------------------------------------------------------------
# the serial sweeps
# ----------------------------------------------------------------------
def serial_body(storage, dtype=np.float64):
    """Which body runs the serial sweeps of ``storage`` on a ``dtype``
    buffer: ``"compiled"`` (ONE call into ``_solve.c``; for an fp32 factor
    under :meth:`~repro.api.Factor.solve`'s float64 buffer, over an exact
    float64 upcast of its panels), or ``"python"`` — where no library could
    be built, or for a buffer narrower than the factor."""
    if solve_loop() is None or np.promote_types(storage.dtype, dtype) != np.dtype(dtype):
        return "python"
    return "compiled"


def _compiled(storage, y, sweeps):
    """``sweeps`` in place on ``y`` (the factor's dtype, or float64 over an
    fp32 factor: its upcast panels): ONE call of the compiled walk, the
    interpreter lock released, on an F-ordered buffer — ``y`` itself, or a
    copy written back.  A zero pivot raises
    :func:`~repro.dense.kernels.trtrs_lower`'s error."""
    fn, routines = solve_loop()[y.dtype]
    symb = storage.symb
    buf = y if y.flags.f_contiguous else np.array(y, order="F")
    index = (np.ascontiguousarray(a, dtype=np.int64) for a in (symb.snptr, symb.rowptr, symb.rows))
    if storage.dtype == y.dtype:
        table, copies = storage.panel_addresses(), None
    else:
        table, copies = storage.upcast_addresses(y.dtype)
    operands = (*index, table, buf)  # alive through the call, with copies
    info = ctypes.c_int64()
    k = 1 if y.ndim == 1 else y.shape[1]
    pointers = [a.ctypes.data for a in operands]
    s = fn(symb.nsup, symb.n, k, sweeps, *pointers, *routines, ctypes.byref(info))
    if buf is not y:
        y[...] = buf
    if s == -2:
        raise MemoryError("no workspace for the compiled solve")
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"singular triangular block: diagonal entry {info.value - 1} is exactly zero"
        )
    if s >= 0:
        raise ValueError(f"trtrs: illegal argument {-info.value}")


def _serial(storage, y, sweeps):
    """The serial ``sweeps`` in place on ``y``, by :func:`serial_body`: the
    compiled walk, or the Python walk over every supernode (forward
    ascending, backward descending).  A read-only ``y`` is refused before
    either writes (``?trtrs`` would write through the flag)."""
    if not y.flags.writeable:
        raise ValueError("cannot solve in place: the right-hand side is read-only")
    if serial_body(storage, y.dtype) == "compiled":
        _compiled(storage, y, sweeps)
        return y
    if sweeps & FORWARD:
        for s in range(storage.symb.nsup):
            below, u = forward_snode(storage, y, s)
            if u is not None:
                y[below] -= u
    if sweeps & BACKWARD:
        for s in range(storage.symb.nsup - 1, -1, -1):
            backward_snode(storage, y, s)
    return y


def forward_solve(storage, b, *, overwrite_b=False):
    """Solve ``L Y = B``; returns ``y``.

    ``b`` may be a single ``(n,)`` vector or an ``(n, k)`` block of
    right-hand sides (solved together with level-3 BLAS).  By default the
    solve runs on a copy; ``overwrite_b=True`` solves in place on ``b``.
    """
    return _serial(storage, check_rhs(storage.symb.n, b, "b", copy=not overwrite_b), FORWARD)


def backward_solve(storage, y, *, overwrite_y=False):
    """Solve ``L^T X = Y``; accepts ``(n,)`` or ``(n, k)``; returns ``x``.
    ``overwrite_y=True`` solves in place on ``y`` instead of a copy."""
    return _serial(storage, check_rhs(storage.symb.n, y, "y", copy=not overwrite_y), BACKWARD)


def solve_in_place(storage, y, workers=None):
    """Full solve ``L L^T x = y`` in place on ``y``, a float64 (or, in a
    refinement chain, factor-dtype) buffer the caller owns and has validated
    (:func:`check_rhs`): the sweeps trust their own buffer, the *solution* is
    checked once on the way out (a NaN is never served).  ``workers=None``:
    both serial sweeps, ONE compiled call where :func:`serial_body` says so;
    ``workers=N``: ONE fused task graph (:func:`solve_graph`)."""
    if workers is None:
        _serial(storage, y, FORWARD | BACKWARD)
    else:
        run_task_graph(*solve_graph(storage, y), workers)
    return check_finite(y, "solution")


def solve_factored(storage, b, *, overwrite_b=False, workers=None):
    """Full solve ``L L^T x = b`` with an existing factor.

    The right-hand side is validated and copied exactly once, here, then
    solved by :func:`solve_in_place`.  ``overwrite_b=True`` skips even that
    copy and clobbers ``b`` (natural when ``b`` is already a temporary).
    ``workers=N`` runs the fused task graph on N threads — backward leaves
    overlap the forward root — bit-identical to serial.
    """
    y = check_rhs(storage.symb.n, b, "b", copy=not overwrite_b)
    return solve_in_place(storage, y, workers)
