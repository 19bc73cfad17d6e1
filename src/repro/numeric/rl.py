"""RL: right-looking supernodal Cholesky with a full update matrix (§II-A).

For each supernode ``J`` (left to right):

1. DPOTRF on the dense diagonal block, DTRSM on the rectangle below — ``J``
   is now factorized;
2. one DSYRK computes the *entire* update matrix
   ``U_J = L_{R,J} L_{R,J}^T`` (``R`` = below-diagonal rows of ``J``);
3. the update matrix is *assembled* (scatter-subtracted) into every ancestor
   supernode's panel using generalized relative indices.

The assembly routine is shared with the GPU variant (where it runs on the
host, OpenMP-parallel in the paper's implementation).

One body, every lane
--------------------
Steps 1–2 are :func:`factor_update` over one entry of the storage's
:meth:`~repro.numeric.storage.FactorStorage.factor_program`; step 3 is
:func:`assemble_update` (a whole source at once) or :func:`apply_run` (one
(source, ancestor) run out of what :func:`park_runs` kept — what a target's
task pulls, :func:`repro.numeric.executor.range_tasks`), both reading the pattern's
:func:`~repro.symbolic.relind.assembly_index`.  The serial engine, the
threaded and process task bodies and the GPU engines' CPU path all run these;
:func:`factor_snode` and :func:`snode_update` are the same steps behind the
per-supernode signatures.
"""

from __future__ import annotations

from ..dense import kernels as dk
from ..symbolic.relind import assembly_index
from .result import cpu_cost
from .storage import FactorStorage

__all__ = [
    "factorize_rl_cpu",
    "factor_entry",
    "factor_update",
    "factor_snode",
    "snode_update",
    "assemble_update",
    "park_runs",
    "apply_run",
    "update_workspace_entries",
]


def update_workspace_entries(symb):
    """Entries of the largest update matrix — the temporary working storage
    RL needs (§II-A).  Pattern-only, so memoised on the symbolic factor."""
    cache = symb.cache()
    best = cache.get("update_workspace_entries")
    if best is None:
        best = cache["update_workspace_entries"] = symb.largest_update_size()
    return best


def factor_entry(entry, potrf, trsm):
    """Factorize one :meth:`~repro.numeric.storage.FactorStorage.factor_program`
    entry in place — ``potrf`` on the diagonal block, ``trsm`` on the
    rectangle below (the dtype's routines from
    :func:`~repro.dense.kernels.factor_routines`).

    Each operand crosses f2py once: ``?potrf`` hands back a contiguous copy
    of the strided diagonal block, which is written back and then *itself*
    passed to ``?trsm``; ``?trsm`` hands back the contiguous factorized
    rectangle, which is written back and returned for ``?syrk`` (``None``
    without below rows).  Same routines, flags and operand values as
    :func:`~repro.dense.kernels.potrf` / :func:`~repro.dense.kernels.trsm_right`
    on the panel's slices, so the same bits.
    """
    _, _, b, _, diag, rect = entry
    c, info = potrf(diag, lower=1, overwrite_a=1, clean=0)
    if info > 0:
        raise dk.NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise ValueError(f"potrf: illegal argument {-info}")
    if c is not diag:
        diag[:] = c
    if not b:
        return None
    out = trsm(1.0, c, rect, side=1, lower=1, trans_a=1, diag=0, overwrite_b=1)
    if out is not rect:
        rect[:] = out
    return out


def factor_update(entry, routines):
    """The fused per-supernode body: :func:`factor_entry`, then ``?syrk`` on
    the rectangle it returned.  ``routines`` is the dtype's
    :func:`~repro.dense.kernels.factor_routines` triple.  Returns the fresh
    lower-valid ``(b, b)`` update matrix (upper triangle zero), or ``None``
    when the supernode has no below-diagonal rows."""
    potrf, trsm, syrk = routines
    out = factor_entry(entry, potrf, trsm)
    if out is None:
        return None
    return syrk(1.0, out, lower=1, trans=0)


def factor_snode(symb, storage, s):
    """Factorize supernode ``s``'s panel in place: DPOTRF on the diagonal
    block, DTRSM on the rectangle below (:func:`factor_entry` on the
    storage's program entry).

    This is the per-supernode *factor body* of the RLB engines and of every
    caller that drives a factorization supernode by supernode.
    Returns ``(panel, w, b)``.
    """
    entry = storage.factor_program()[s]
    potrf, trsm, _ = dk.factor_routines(entry[3].dtype)
    factor_entry(entry, potrf, trsm)
    return entry[3], entry[1], entry[2]


def snode_update(symb, storage, s, W=None):
    """DSYRK body: the update matrix ``U_J = L_{R,J} L_{R,J}^T`` of the
    (already factorized) supernode ``s``.

    Returns the lower-valid ``(b, b)`` update matrix — a fresh array, or the
    leading square of the caller's workspace ``W`` when one is given — or
    ``None`` when ``s`` has no below-diagonal rows.
    """
    _, _, b, panel, _, rect = storage.factor_program()[s]
    if not b:
        return None
    u = dk.factor_routines(panel.dtype)[2](1.0, rect, lower=1, trans=0)
    if W is None:
        return u
    W[:b, :b] = u
    return W[:b, :b]


def _subtract_pieces(panel, pieces, U):
    """One run of the block form: each piece is a slice subtraction."""
    for r0, r1, c0, c1, i0, i1, j0, j1 in pieces:
        panel[r0:r1, c0:c1] -= U[i0:i1, j0:j1]


def _assemble(storage, index, s, U, stop=None):
    """Subtract source ``s``'s update matrix ``U`` from its ancestors — all
    of its assembly runs, or only the first ``stop`` (the ones whose target
    lies inside ``s``'s task range; runs ascend by target)."""
    flat = index.flat[s] if storage.arena is not None else None
    if flat is not None:
        dst, src, bounds = flat
        if stop is not None:
            end = bounds[stop - 1][2]
            dst, src = dst[:end], src[:end]
        storage.arena[dst] -= U.reshape(-1, order="F")[src]
        return
    for p, pieces in index.pieces(s)[:stop]:
        _subtract_pieces(storage.panels[p], pieces, U)


def assemble_update(symb, storage, s, U):
    """Subtract supernode ``s``'s update matrix from its ancestors.

    ``U`` is the ``(b, b)`` lower-valid update matrix over the below-diagonal
    rows of ``s`` (upper triangle zero).  A small source on an arena-backed
    storage is ONE fancy-indexed ``-=`` over the arena (the flat form of the
    pattern's :func:`~repro.symbolic.relind.assembly_index`); otherwise each
    run of rows owned by a single ancestor is a few slice ``-=`` into that
    ancestor's panel (the block form; the loop nest the paper parallelizes
    with OpenMP).  Either way every destination is written once, so the
    result is the same.

    Returns the number of bytes moved (for the assembly cost model).
    """
    index = assembly_index(symb)
    _assemble(storage, index, s, U)
    return index.moved[s]


def park_runs(storage, index, s, U, stay=0):
    """What source ``s``'s assembly runs from ``stay`` on need of its update
    matrix ``U``, to be subtracted later, run by run (:func:`apply_run`): a
    flat source's entries gathered once for all of them — under a third of
    ``U``'s bytes, and ``U`` is free to go — else ``U`` itself."""
    flat = index.flat[s] if storage.arena is not None else None
    if flat is None:
        return U
    return U.reshape(-1, order="F")[flat[1][flat[2][stay][1] :]]


def apply_run(storage, index, s, r, parked, stay=0):
    """Run ``r`` of source ``s``'s assembly alone: subtract the part of its
    update matrix owned by one ancestor from that ancestor's panel, out of
    what :func:`park_runs` kept of it — a slice of the flat form's gather,
    or the run's pieces of the block form.  All runs of a source together
    are :func:`assemble_update` — the same subtractions, the same bits; a
    target's task applies the runs parked for it one by one, in ascending
    source order."""
    flat = index.flat[s] if storage.arena is not None else None
    if flat is not None:
        dst, _, bounds = flat
        _, f0, f1 = bounds[r]
        first = bounds[stay][1]
        storage.arena[dst[f0:f1]] -= parked[f0 - first : f1 - first]
        return
    p, pieces = index.pieces(s)[r]
    _subtract_pieces(storage.panels[p], pieces, parked)


def factorize_rl_cpu(symb, A, *, machine=None, dtype=None):
    """CPU-only RL factorization.

    The numerics run here; the modeled time for every MKL thread count the
    paper sweeps and the best of them (the paper's CPU baseline
    protocol; assembly loops are OpenMP-parallel, §III) is the pattern's
    :func:`~repro.numeric.result.cpu_cost`, priced once and shared.
    ``dtype`` selects the factor precision (``None`` keeps the values').
    """
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    index = assembly_index(symb)
    routines = dk.factor_routines(storage.dtype)
    for s, entry in enumerate(storage.factor_program()):
        U = factor_update(entry, routines)
        if U is not None:
            _assemble(storage, index, s, U)
    cost = cpu_cost(symb, "rl", machine, itemsize=storage.itemsize)
    return cost.result("rl", storage, {"workspace_entries": update_workspace_entries(symb)})
