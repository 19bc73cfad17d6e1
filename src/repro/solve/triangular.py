"""Supernodal triangular solves: ``L y = b`` and ``L^T x = y``.

Once the factor is computed (by any engine — they all share
:class:`~repro.numeric.storage.FactorStorage`), the solve phase walks the
supernodes once forward and once backward, doing a dense triangular solve on
each diagonal block and a GEMV-style update with each rectangle — the
standard supernodal solve that completes the paper's "direct method" story
(§I: the triangular factors are used to compute the solution).

Both sweeps exist in two *schedules* over the same task bodies
(:func:`forward_snode` / :func:`backward_snode` — the kernels exist exactly
once):

* **serial** (``workers=None``) — one supernode after another, the
  historical sweeps;
* **level-scheduled parallel** (``workers=N``) — the elimination-tree
  schedule of :func:`repro.symbolic.levels.solve_schedule` executed on the
  shared-ready-queue runtime of :mod:`repro.numeric.executor`, one task per
  *task range* (:mod:`repro.symbolic.ranges`): a range of whole subtrees is
  the serial sweep over its supernodes, only the single supernodes above
  the cut are tasks of their own.  A forward update that leaves a range is
  parked, and the task owning the rows subtracts what was parked for it
  itself, in ascending source order, so solutions are **bit-identical** to
  the serial sweeps for any worker count and any order the ready tasks run
  in; the backward sweep only reads finalized ancestor segments, so its
  graph is a pure countdown (:class:`~repro.numeric.executor.Countdown`).

The bodies read the factor's *solve program*
(:meth:`~repro.numeric.storage.FactorStorage.solve_program`), derived once
per pattern and storage, so a task is a tuple unpack plus kernel calls: a
direct ``?trtrs`` (one division on a one-column supernode) and one product.
"""

from __future__ import annotations

import functools

import numpy as np

from ..dense.kernels import NonFiniteValuesError, trtrs_lower
from ..numeric.executor import Countdown, run_task_graph
from ..symbolic.levels import solve_schedule

__all__ = [
    "forward_solve",
    "backward_solve",
    "solve_factored",
    "check_rhs",
    "forward_snode",
    "backward_snode",
    "forward_solve_graph",
    "backward_solve_graph",
    "solve_graph",
]


def check_rhs(n, b, name="b", *, copy=True):
    """Validate an ``(n,)`` or ``(n, k)`` right-hand side.

    Returns a float64 array safe to solve in place: a copy of ``b`` by
    default, or ``b`` itself (when it already is a float64 ndarray) with
    ``copy=False`` — the caller has declared it owns the buffer (or only
    wants the validated conversion).  The one right-hand-side validation
    shared by both sweeps and the staged API, so every caller reports the
    same message with the expected ``n`` and the offending shape, and NaN/Inf
    entries are refused here (:class:`~repro.dense.kernels.NonFiniteValuesError`).
    """
    out = np.asarray(b, dtype=np.float64)
    if out.ndim not in (1, 2) or out.shape[0] != n:
        # one message for both sweeps: `name` is the argument being
        # validated (`b` forward, `y` backward) but it is always a
        # right-hand side of the triangular system being solved
        raise ValueError(
            f"right-hand side {name!r} must have shape ({n},) or ({n}, k), got {np.shape(b)}"
        )
    finite = np.isfinite(out)
    if not finite.all():
        # a NaN defeats every comparison downstream (refinement would burn
        # max_iter solves on it and serve NaN)
        raise NonFiniteValuesError(out.size - np.count_nonzero(finite))
    # identity alone is not enough: a subclass view or buffer-protocol
    # object converts to a *different* array sharing the caller's memory
    if copy and np.may_share_memory(out, b):
        out = out.copy()
    return out



# ----------------------------------------------------------------------
# shared per-supernode task bodies (serial sweeps and parallel tasks)
# ----------------------------------------------------------------------
def _solve_diagonal(panel, seg, w, trans=0):
    """In-place solve of ``seg`` (a supernode's own rows of the right-hand
    side) against the lower-triangular diagonal block of ``panel``.  A
    one-column supernode is a single zero-checked division; wider ones
    call ``?trtrs`` directly (:func:`~repro.dense.kernels.trtrs_lower`)."""
    if w == 1:
        d = panel[0, 0]
        if d == 0:
            raise np.linalg.LinAlgError(
                "singular triangular block: diagonal entry 0 is exactly zero"
            )
        seg[0] /= d  # scalar for a vector, a row view for (1, k)
        return
    x = trtrs_lower(panel, seg, trans)
    if x is not seg:  # seg was not overwritable in place (multi-RHS rows)
        seg[...] = x


def forward_snode(storage, y, s):
    """Forward task body of supernode ``s``: triangular-solve its diagonal
    block on ``y``'s own segment, then compute (NOT apply) the update of
    the below-diagonal rows.

    Returns ``(below, u)`` — the below-row indices and the dense update
    ``u`` to subtract from ``y[below]`` (``None`` when ``s`` has no below
    rows).  The serial sweep subtracts ``u`` whole; the parallel sweep
    splits it into per-ancestor runs, each subtracted by its owner.  One body,
    two schedules: the arithmetic (one triangular solve + one GEMV) is
    identical, which is what makes the parallel sweep bit-identical.
    """
    first, last, w, panel, rect, below = storage.solve_program()[s]
    seg = y[first:last]
    _solve_diagonal(panel, seg, w)
    if rect is None:
        return below, None
    return below, rect @ seg


def backward_snode(storage, x, s):
    """Backward task body of supernode ``s``: subtract the (finalized)
    ancestor segments' contribution, then triangular-solve the transposed
    diagonal block on ``x``'s own segment.  Reads ``x[below]`` and writes
    only ``x[first:last]`` — the backward sweep has no cross-supernode
    writes at all."""
    first, last, w, panel, rect, below = storage.solve_program()[s]
    seg = x[first:last]
    if rect is not None:
        seg -= rect.T @ x[below]
    _solve_diagonal(panel, seg, w, trans=1)


# ----------------------------------------------------------------------
# level-scheduled task graphs (transient pools and the streaming session)
# ----------------------------------------------------------------------
def _forward_range(storage, y, sched, parked, tid):
    """Forward task ``tid``: subtract the updates parked for it
    (``sched.fwd.incoming``, ascending source — the serial accumulation
    order), then run the serial forward body over the supernodes of range
    ``tid``, ascending.  Updates of rows inside the range are subtracted at
    once; a source whose rows leave parks its ``(below, u)`` for their owners."""
    for s, lo, hi in sched.fwd.incoming[tid]:
        below, u = parked[s]
        y[below[lo:hi]] -= u[lo:hi]
        # the owners of a source's rows lie on one path of the elimination
        # tree, so the one reading its last rows reads last
        if hi == len(below):
            del parked[s]
    bounds = sched.ranges.bounds
    leaving = sched.leaving
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
    """Backward task ``tid``: the serial backward body over the supernodes
    of range ``tid``, descending (every row it reads is final: in-range
    ancestors ran earlier in this loop, the others are this task's
    dependencies)."""
    bounds = sched.ranges.bounds
    for s in range(bounds[tid + 1] - 1, bounds[tid] - 1, -1):
        backward_snode(storage, x, s)


def _graph(edges, run):
    """``(ntasks, roots, run_task)`` over one sweep's
    :class:`~repro.symbolic.levels.SweepEdges`: task ``tid`` is ``run(tid)``,
    then one part to each task it feeds."""
    return len(edges.children), edges.roots, Countdown(edges.indeg).task(run, edges.children)


def forward_solve_graph(storage, y, ranges=None):
    """``(ntasks, roots, run_task)`` of the level-scheduled forward sweep
    on ``y`` (solved in place).

    One task per range of ``ranges`` (default: the pattern's
    :func:`~repro.symbolic.ranges.task_ranges`).  A task is released once
    every range with rows leaving into it has run; it subtracts their parked
    updates itself, in ascending source order — the serial accumulation
    order, so the sweep is bit-identical — then runs the forward body over
    its supernodes in elimination order.  Feed the triple to
    :func:`repro.numeric.executor.run_task_graph` or a
    :class:`~repro.numeric.executor.StreamPool`.
    """
    sched = solve_schedule(storage.symb, ranges)
    return _graph(sched.fwd, functools.partial(_forward_range, storage, y, sched, {}))


def backward_solve_graph(storage, x, ranges=None):
    """``(ntasks, roots, run_task)`` of the level-scheduled backward sweep
    on ``x`` (solved in place).

    One task per range; a task becomes ready once every range owning one of
    its leaving below rows has finalized its own segments.  There are no
    cross-range writes, so the graph is a pure countdown — each GEMV reads
    the same finalized values as the serial sweep.
    """
    sched = solve_schedule(storage.symb, ranges)
    return _graph(sched.bwd, functools.partial(_backward_range, storage, x, sched))


def solve_graph(storage, y, ranges=None):
    """``(ntasks, roots, run_task)`` of the FUSED full solve
    ``L L^T x = b`` on ``y`` (solved in place) — both sweeps as one task
    graph on one pool.

    With ``R`` ranges, task ids ``0..R-1`` are forward tasks, ``R..2R-1``
    backward tasks.  Backward task ``t`` waits for (a) its own forward task —
    its segments of ``y`` are final — and (b) the backward tasks of every
    range owning one of its leaving below rows (``SolveSchedule.fused``).
    Because a supernode's segment receives no writes after its own forward
    solve, the backward GEMVs read exactly the values the serial back-to-back
    sweeps read — bit-identity holds while the backward leaves overlap in
    time with the forward root, and a full solve costs ONE pool, not two.
    """
    sched = solve_schedule(storage.symb, ranges)
    nranges = len(sched.ranges)
    parked = {}

    def run(tid):
        if tid < nranges:
            _forward_range(storage, y, sched, parked, tid)
        else:
            _backward_range(storage, y, sched, tid - nranges)

    return _graph(sched.fused, run)


# ----------------------------------------------------------------------
# public sweeps
# ----------------------------------------------------------------------
def forward_solve(storage, b, *, overwrite_b=False, workers=None):
    """Solve ``L Y = B``; returns ``y``.

    ``b`` may be a single ``(n,)`` vector or an ``(n, k)`` block of
    right-hand sides (solved together with level-3 BLAS).  By default the
    solve runs on a copy; ``overwrite_b=True`` solves in place on ``b``
    (callers handing over a scratch buffer, e.g. :func:`solve_factored`,
    skip the extra copy — measurable for many-RHS blocks).

    ``workers=N`` runs the elimination-tree level schedule on N threads
    (see the module docstring); the result is bit-identical to the serial
    sweep for every worker count.
    """
    symb = storage.symb
    y = check_rhs(symb.n, b, "b", copy=not overwrite_b)
    if workers is not None:
        run_task_graph(*forward_solve_graph(storage, y), workers)
        return y
    for s in range(symb.nsup):
        below, u = forward_snode(storage, y, s)
        if u is not None:
            y[below] -= u
    return y


def backward_solve(storage, y, *, overwrite_y=False, workers=None):
    """Solve ``L^T X = Y``; accepts ``(n,)`` or ``(n, k)``; returns ``x``.
    ``overwrite_y=True`` solves in place on ``y`` instead of a copy;
    ``workers=N`` runs the level schedule in reverse on N threads
    (bit-identical to the serial sweep)."""
    symb = storage.symb
    x = check_rhs(symb.n, y, "y", copy=not overwrite_y)
    if workers is not None:
        run_task_graph(*backward_solve_graph(storage, x), workers)
        return x
    for s in range(symb.nsup - 1, -1, -1):
        backward_snode(storage, x, s)
    return x


def solve_factored(storage, b, *, overwrite_b=False, workers=None):
    """Full solve ``L L^T x = b`` with an existing factor.

    The right-hand side is validated and copied exactly once at the top
    (not once per sweep); both triangular sweeps then run in place on that
    buffer.  ``overwrite_b=True`` skips even the initial copy and clobbers
    ``b`` — the natural mode when ``b`` is already a temporary (a permuted
    gather like ``b[perm]``).  ``workers=N`` runs both sweeps as ONE fused
    level-scheduled task graph (:func:`solve_graph`) on N threads —
    backward leaves overlap the forward root — bit-identical to the serial
    sweeps.
    """
    y = check_rhs(storage.symb.n, b, "b", copy=not overwrite_b)
    if workers is not None:
        run_task_graph(*solve_graph(storage, y), workers)
        return y
    forward_solve(storage, y, overwrite_b=True)
    return backward_solve(storage, y, overwrite_y=True)
