"""Supernodal triangular solves: ``L y = b`` and ``L^T x = y``.

Once the factor is computed (by any engine — they all share
:class:`~repro.numeric.storage.FactorStorage`), the solve phase walks the
supernodes once forward and once backward, doing a dense triangular solve on
each diagonal block and a GEMV-style update with each rectangle — the
standard supernodal solve that completes the paper's "direct method" story
(§I: the triangular factors are used to compute the solution).

The narrow leaves of the elimination tree are not walked: nothing updates
them, so they are solved as ONE sparse block (:func:`_leaf_sweep` over the
pattern's :class:`~repro.symbolic.levels.LeafBlock`) — a few array-at-a-time
column stages and one compiled sparse product per sweep instead of a
``?trtrs`` and a GEMV per leaf.

Both sweeps exist in two *schedules* over the same task bodies (the block's
halves, :func:`forward_snode` / :func:`backward_snode` for every other
supernode — the kernels exist exactly once):

* **serial** (``workers=None``) — the block, then one supernode after
  another (backward: the mirror);
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
  The block's halves are tasks too: ahead of every forward root, behind
  every backward task.

The bodies read the factor's *solve program*
(:meth:`~repro.numeric.storage.FactorStorage.solve_program`), derived once
per pattern and storage, so a task is a tuple unpack plus kernel calls: a
direct ``?trtrs`` and one product.
"""

from __future__ import annotations

import functools
from bisect import bisect_right

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from ..dense.kernels import check_finite, trtrs_lower
from ..numeric.executor import Countdown, run_task_graph
from ..symbolic.levels import leaf_block, solve_schedule

__all__ = [
    "forward_solve",
    "backward_solve",
    "solve_factored",
    "solve_in_place",
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
    # a NaN defeats every comparison downstream (refinement would burn
    # max_iter solves on it and serve NaN)
    check_finite(out, "right-hand side")
    # identity alone is not enough: a subclass view or buffer-protocol
    # object converts to a *different* array sharing the caller's memory
    if copy and np.may_share_memory(out, b):
        out = out.copy()
    return out


# ----------------------------------------------------------------------
# shared per-supernode task bodies (serial sweeps and parallel tasks)
# ----------------------------------------------------------------------
def _solve_diagonal(panel, seg, trans=0):
    """In-place solve of ``seg`` (a supernode's own rows of the right-hand
    side) against the lower-triangular diagonal block of ``panel``: a direct
    ``?trtrs`` (:func:`~repro.dense.kernels.trtrs_lower`) at every width —
    the one-column supernodes are leaves, and those are the leaf block's."""
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
    _solve_diagonal(panel, seg)
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
    _solve_diagonal(panel, seg, trans=1)


# ----------------------------------------------------------------------
# the leaf block: every narrow leaf supernode at once
# ----------------------------------------------------------------------
def _leaf_sweep(storage, y, backward=False):
    """One half of the leaf block (:class:`~repro.symbolic.levels.LeafBlock`)
    in place on ``y``.  Forward, before any other forward work:
    ``y_C = L_CC^-1 y_C`` by column *stages* — the same column of every
    member at once: one division of a slice, one fancy-indexed ``-=`` on
    distinct targets — then ``y -= L_RC @ y_C`` as ONE compiled sparse
    product: the members' contributions come first, in block-column order,
    in every schedule.  Backward, after all other backward work, the mirror
    ``x_C = L_CC^-T (x_C - L_RC^T x)``: the same arrays read as CSR, stages
    descending.  Values are read from ``storage`` now; an exactly-zero
    diagonal entry is refused as ``?trtrs`` refuses it."""
    block = leaf_block(storage.symb)
    ncols, ptr = block.cols.size, block.stage_ptr
    if not ncols:
        return
    values = storage.leaf_values(block, y.dtype)
    a, b, c = block.cuts
    if not values[:a].all():
        stage = bisect_right(ptr, int(np.flatnonzero(values[:a] == 0)[0])) - 1
        raise np.linalg.LinAlgError(
            f"singular triangular block: diagonal entry {stage} is exactly zero"
        )
    rect = values[c:], block.rowidx, block.colptr
    values = values.reshape((-1,) + (1,) * (y.ndim - 1))  # broadcast over (n, k)
    z = y[block.cols]
    if backward:
        z -= csr_matrix(rect, shape=(ncols, len(y))) @ y
        (src, tgt, at), lower, stages = block.bwd, values[b:c], range(len(ptr) - 2, -1, -1)
    else:
        (src, tgt, at), lower, stages = block.fwd, values[a:b], range(len(ptr) - 1)
    for j in stages:
        z[ptr[j] : ptr[j + 1]] /= values[ptr[j] : ptr[j + 1]]
        lo, hi = at[j], at[j + 1]
        if hi > lo:
            z[tgt[lo:hi]] -= lower[lo:hi] * z[src[lo:hi]]
    y[block.cols] = z
    if not backward:
        y -= csc_matrix(rect, shape=(len(y), ncols)) @ z


# ----------------------------------------------------------------------
# level-scheduled task graphs (transient pools and the streaming session)
# ----------------------------------------------------------------------
def _forward_range(storage, y, sched, parked, tid):
    """Forward task ``tid``: subtract the updates parked for it
    (``sched.fwd.incoming``, ascending source — the serial accumulation
    order), then run the serial forward body over the supernodes of range
    ``tid``, ascending.  Updates of rows inside the range are subtracted at
    once; a source whose rows leave parks its ``(below, u)`` for their owners.
    The task past the last range is the leaf block's forward half."""
    if tid == len(sched.rest):
        return _leaf_sweep(storage, y)
    for s, lo, hi in sched.fwd.incoming[tid]:
        below, u = parked[s]
        y[below[lo:hi]] -= u[lo:hi]
        # the owners of a source's rows lie on one path of the elimination
        # tree, so the one reading its last rows reads last
        if hi == len(below):
            del parked[s]
    leaving = sched.leaving
    for s in sched.rest[tid]:
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
    dependencies).  The task past the last range is the leaf block's."""
    if tid == len(sched.rest):
        return _leaf_sweep(storage, x, backward=True)
    for s in reversed(sched.rest[tid]):
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
    :func:`~repro.symbolic.ranges.task_ranges`), behind the leaf block's.
    A task is released once every range with rows leaving into it has run;
    it subtracts their parked updates itself, in ascending source order —
    the serial accumulation order, so the sweep is bit-identical — then runs
    the forward body over its supernodes in elimination order.  Feed the
    triple to :func:`repro.numeric.executor.run_task_graph` or a
    :class:`~repro.numeric.executor.StreamPool`.
    """
    sched = solve_schedule(storage.symb, ranges)
    return _graph(sched.fwd, functools.partial(_forward_range, storage, y, sched, {}))


def backward_solve_graph(storage, x, ranges=None):
    """``(ntasks, roots, run_task)`` of the level-scheduled backward sweep
    on ``x`` (solved in place).

    One task per range, ready once every range owning one of its leaving
    below rows has finalized its own segments; the leaf block's runs behind
    them all.  There are no cross-range writes, so the graph is a pure
    countdown — each GEMV reads the same finalized values as the serial sweep.
    """
    sched = solve_schedule(storage.symb, ranges)
    return _graph(sched.bwd, functools.partial(_backward_range, storage, x, sched))


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
    nforward, parked = len(sched.fwd.children), {}

    def run(tid):
        if tid < nforward:
            _forward_range(storage, y, sched, parked, tid)
        else:
            _backward_range(storage, y, sched, tid - nforward)

    return _graph(sched.fused, run)


# ----------------------------------------------------------------------
# public sweeps
# ----------------------------------------------------------------------
def _forward(storage, y):
    """The serial forward sweep: the leaf block, then every other supernode
    in elimination order."""
    _leaf_sweep(storage, y)
    for s in leaf_block(storage.symb).rest:
        below, u = forward_snode(storage, y, s)
        if u is not None:
            y[below] -= u
    return y


def _backward(storage, x):
    """The serial backward sweep, :func:`_forward` mirrored: every other
    supernode descending, the leaf block last."""
    for s in reversed(leaf_block(storage.symb).rest):
        backward_snode(storage, x, s)
    _leaf_sweep(storage, x, backward=True)
    return x


def forward_solve(storage, b, *, overwrite_b=False, workers=None):
    """Solve ``L Y = B``; returns ``y``.

    ``b`` may be a single ``(n,)`` vector or an ``(n, k)`` block of
    right-hand sides (solved together with level-3 BLAS).  By default the
    solve runs on a copy; ``overwrite_b=True`` solves in place on ``b``.

    ``workers=N`` runs the elimination-tree level schedule on N threads
    (see the module docstring); the result is bit-identical to the serial
    sweep for every worker count.
    """
    y = check_rhs(storage.symb.n, b, "b", copy=not overwrite_b)
    if workers is None:
        return _forward(storage, y)
    run_task_graph(*forward_solve_graph(storage, y), workers)
    return y


def backward_solve(storage, y, *, overwrite_y=False, workers=None):
    """Solve ``L^T X = Y``; accepts ``(n,)`` or ``(n, k)``; returns ``x``.
    ``overwrite_y=True`` solves in place on ``y`` instead of a copy;
    ``workers=N`` runs the level schedule in reverse on N threads
    (bit-identical to the serial sweep)."""
    x = check_rhs(storage.symb.n, y, "y", copy=not overwrite_y)
    if workers is None:
        return _backward(storage, x)
    run_task_graph(*backward_solve_graph(storage, x), workers)
    return x


def solve_in_place(storage, y, workers=None):
    """Full solve ``L L^T x = y`` in place on ``y``, a float64 (or, in a
    refinement chain, factor-dtype) buffer the caller owns and has validated
    (:func:`check_rhs`): the sweeps trust their own buffer, the *solution* is
    checked once on the way out (a NaN is never served).  ``workers=N``: ONE
    fused task graph (:func:`solve_graph`)."""
    if workers is None:
        _backward(storage, _forward(storage, y))
    else:
        run_task_graph(*solve_graph(storage, y), workers)
    return check_finite(y, "solution")


def solve_factored(storage, b, *, overwrite_b=False, workers=None):
    """Full solve ``L L^T x = b`` with an existing factor.

    The right-hand side is validated and copied exactly once, here, then
    solved by :func:`solve_in_place`.  ``overwrite_b=True`` skips even that
    copy and clobbers ``b`` (natural when ``b`` is already a temporary).
    ``workers=N`` runs the fused level-scheduled task graph on N threads —
    backward leaves overlap the forward root — bit-identical to serial.
    """
    y = check_rhs(storage.symb.n, b, "b", copy=not overwrite_b)
    return solve_in_place(storage, y, workers)
