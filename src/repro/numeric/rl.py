"""RL: right-looking supernodal Cholesky with a full update matrix (§II-A).

For each supernode ``J`` (left to right):

1. DPOTRF on the dense diagonal block, DTRSM on the rectangle below — ``J``
   is now factorized;
2. one DSYRK computes the *entire* update matrix
   ``U_J = L_{R,J} L_{R,J}^T`` (``R`` = below-diagonal rows of ``J``);
3. the update matrix is *assembled* (scatter-subtracted) into every ancestor
   supernode's panel using generalized relative indices.

The GPU variant runs the assembly on the host too (OpenMP-parallel in the
paper's implementation); here the ``rl_gpu`` row runs this engine's body.

One body, every lane
--------------------
Steps 1–2 are :func:`factor_update` over one entry of the storage's
:meth:`~repro.numeric.storage.FactorStorage.factor_program`; step 3 is
:func:`assemble_update` (a whole source at once) or :func:`apply_run` (one
(source, ancestor) run out of what :func:`park_runs` kept — what a target's
task pulls, :func:`repro.numeric.executor.range_tasks`), both reading the pattern's
:func:`~repro.symbolic.relind.assembly_index`.  The serial engine, the
threaded and process task bodies (and so the ``rl_gpu`` row) all run these;
:func:`snode_update` is step 2 behind a per-supernode signature.

The serial loop, compiled
-------------------------
The serial engine (``rl``: :func:`factorize_rl_cpu`, a served request's
work storage, ``factorize_batch``, the update road's refactorization) runs
steps 1–3 for every supernode in ONE call into ``_rl_loop.c``, built on
first use (:func:`repro.numeric._native.rl_loop`) and called through
``ctypes`` with the interpreter lock released.  It calls the same OpenBLAS
routines on the same operands in place (leading dimension ``m``) and
subtracts through the same assembly index, read as plain arrays, so the
arena is the Python body's (:func:`_python_body`) byte for byte.  Where no compiler can build it, the
Python body runs.  The ``rlb`` door runs the same loop with its pair
index (:func:`repro.numeric.rlb._factorize_rlb_in`).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..dense import kernels as dk
from ..symbolic.relind import assembly_index
from ._native import rl_loop
from .result import serial_result
from .storage import FactorStorage

__all__ = [
    "factorize_rl_cpu",
    "factor_entry",
    "factor_update",
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


def _assemble(storage, index, s, U, stop=None):
    """Subtract source ``s``'s update matrix ``U`` from its ancestors — all
    of its assembly runs, or only the first ``stop`` (the ones whose target
    lies inside ``s``'s task range; runs ascend by target)."""
    flat = index.flat[s]
    if flat is None:  # U is what park_runs keeps of a source without a flat form
        for r in range(len(index.targets[s]) if stop is None else stop):
            apply_run(storage, index, s, r, U)
        return
    dst, src, bounds = flat
    if stop is not None:
        end = bounds[stop - 1][2]
        dst, src = dst[:end], src[:end]
    storage.arena[dst] -= U.reshape(-1, order="F")[src]


def assemble_update(symb, storage, s, U):
    """Subtract supernode ``s``'s update matrix from its ancestors.

    ``U`` is the ``(b, b)`` lower-valid update matrix over the below-diagonal
    rows of ``s`` (upper triangle zero), through the pattern's
    :func:`~repro.symbolic.relind.assembly_index`: ONE fancy-indexed ``-=``
    for a small source, a few slice ``-=`` per ancestor for a large one (the
    loop nest the paper parallelizes with OpenMP) — the same result.

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
    flat = index.flat[s]
    return U if flat is None else U.reshape(-1, order="F")[flat[1][flat[2][stay][1] :]]


def apply_run(storage, index, s, r, parked, stay=0):
    """Run ``r`` of source ``s``'s assembly alone: the part of its update
    matrix owned by one ancestor, out of what :func:`park_runs` kept of it
    from run ``stay`` on, subtracted from that ancestor's panel — the block
    form's pieces, or the flat form's entries in ONE fancy-indexed ``-=``
    into the arena.  All runs of a source together are
    :func:`assemble_update`, the same bits; a target's task applies its
    parked runs in ascending source order."""
    flat = index.flat[s]
    if flat is None:
        p, pieces = index.pieces(s)[r]
        panel = storage.panels[p]
        for r0, r1, c0, c1, i0, i1, j0, j1 in pieces:
            panel[r0:r1, c0:c1] -= parked[i0:i1, j0:j1]
        return
    dst, _, bounds = flat
    _, f0, f1 = bounds[r]
    storage.arena[dst[f0:f1]] -= parked[f0 - bounds[stay][1] : f1 - bounds[stay][1]]


def factorize_rl_cpu(symb, A, *, machine=None, dtype=None):
    """CPU-only RL factorization.

    The numerics run here; the modeled time for every MKL thread count the
    paper sweeps and the best of them (the paper's CPU baseline
    protocol; assembly loops are OpenMP-parallel, §III) is the pattern's
    :func:`~repro.numeric.result.cpu_cost`, priced on first read, once.
    ``dtype`` selects the factor precision (``None`` keeps the values').
    """
    return _factorize_rl_in(FactorStorage.from_matrix(symb, A, dtype=dtype), machine=machine)


def _factorize_rl_in(storage, *, machine=None):
    """:func:`factorize_rl_cpu` on a storage already holding the permuted
    values: a fresh one, or a served request's work storage.  It runs the
    compiled loop (:func:`~repro.numeric._native.rl_loop`) when it could be
    built, else the Python body — the same bits either way."""
    loops = rl_loop()
    if loops is None:
        _python_body(storage)
    else:
        _compiled_body(storage, loops[storage.arena.dtype])
    workspace = update_workspace_entries(storage.symb)
    return serial_result("rl", storage, machine, workspace_entries=workspace)


def _python_body(storage):
    """Serial RL in place, one supernode at a time through :func:`factor_update`
    and the assembly index — the fallback and the compiled loop's oracle."""
    index = assembly_index(storage.symb)
    routines = dk.factor_routines(storage.dtype)
    for s, entry in enumerate(storage.factor_program()):
        U = factor_update(entry, routines)
        if U is not None:
            _assemble(storage, index, s, U)


def _compiled_body(storage, loop, pairs=None):
    """Serial RL in place on ``storage``'s arena: ONE call of ``loop``, a
    ``(function, routines)`` entry of :func:`~repro.numeric._native.rl_loop`,
    with the interpreter lock released.  It reads the panel layout, the
    assembly index's plain arrays and one workspace of the largest update
    matrix's size.
    Given ``pairs`` — the per-source form codes and the pair index's arrays
    (:func:`repro.numeric.rlb._pair_operands`) — it is serial RLB."""
    fn, routines = loop
    symb, arena = storage.symb, storage.arena
    m, w = (np.diff(a).astype(np.int64, copy=False) for a in (symb.rowptr, symb.snptr))
    offsets = symb.panel_offsets()
    if not arena.flags.c_contiguous or not arena.flags.writeable or arena.size != offsets[-1]:
        raise ValueError("the compiled RL loop needs a writable contiguous arena")
    if m.size and m.max() >= 2**31:
        raise ValueError("a panel has more rows than BLAS can address")
    index = assembly_index(symb)
    work = np.empty(update_workspace_entries(symb), dtype=arena.dtype)
    flat = (index.flat_ptr, index.flat_dst, index.flat_src)
    operands = (m, w, offsets, arena, *flat, index.piece_ptr, index.piece_table, work)
    pair_args = (None,) * 10 if pairs is None else [a.ctypes.data for a in pairs]
    info = ctypes.c_int64()
    args = (*(a.ctypes.data for a in operands), *routines, *pair_args, ctypes.addressof(info))
    s = fn(symb.nsup, *args)
    if s >= 0:
        if info.value > 0:
            raise dk.NotPositiveDefiniteError(info.value - 1)
        raise ValueError(f"potrf: illegal argument {-info.value}")
