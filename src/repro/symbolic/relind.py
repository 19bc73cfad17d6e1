"""Relative indices (Schreiber, paper's ref [3]).

When supernode ``J`` updates an ancestor ``P``, every affected global row
``i`` must be located inside ``P``'s dense panel.  The *relative index* of
``i`` w.r.t. ``P`` is its position in ``rowind(P)``; computing these once per
(descendant, ancestor) interaction turns scattered updates into NumPy slice
or fancy-indexed subtractions (the paper's Fortran code uses them to drive
assembly loops).

The paper's RL variant uses *generalized relative indices* — relative indices
of an arbitrary subset of ``J``'s rows w.r.t. any ancestor — while RLB only
needs a single offset per consecutive-row block (see
:mod:`repro.symbolic.blocks`).

The assembly index
------------------
:func:`assembly_index` computes every relative index RL assembly will ever
need for a pattern in ONE array-at-a-time pass — all below-diagonal rows of
all supernodes expanded into their per-ancestor *runs*, one global
``searchsorted`` over ``(supernode, row)`` keys (:func:`locate_rows`) — and
memoises it on the symbolic factor.  Each source takes one of two forms,
decided by its number of below rows ``b`` alone:

* **flat** (``b² <=`` :data:`FLAT_UPDATE_ENTRIES`) — one ``dst`` array of
  positions in the factor's arena (:meth:`SymbolicFactor.panel_offsets`
  layout) and one ``src`` array of positions in the F-ordered ``(b, b)``
  update matrix, lower triangle only, ordered by ancestor with the run
  boundaries kept: assembly is ONE ``arena[dst] -= u[src]``.
* **blocks** (larger ``b``) — per run, the relative rows of the remaining
  tail and the run's column positions, each cut into stretches that step by
  one: every (row stretch, column stretch) rectangle not wholly above ``U``'s
  diagonal is one *piece*, ``panel[r0:r1, c0:c1] -= U[i0:i1, j0:j1]``
  (:meth:`AssemblyIndex.pieces`).

Why both: a NumPy op costs a microsecond before it moves an entry, so on
narrow supernodes a per-run loop is all overhead (2 635 runs on a 64² grid
against 956 flat ops), while a 1 500-row source's flat index would be tens of
megabytes for no gain.  Each destination is written once per source in either
form, so the form never changes the result.  The index is built whole and
never changes: threads and worker processes only read it.

RLB's :func:`repro.symbolic.blocks.pair_index` locates every block pair
with :func:`locate_rows`, and its batched sources commit through this flat
form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relative_indices",
    "relative_indices_bottom",
    "locate_rows",
    "assembly_index",
    "AssemblyIndex",
    "FLAT_UPDATE_ENTRIES",
]

#: A source supernode gets the flat form (RL assembly and RLB's batched
#: commits alike) when its update matrix has at most this many entries
#: (``b <= 128``): below, per-run setup costs more than the entries; above,
#: the flat index costs more memory than it saves time.
FLAT_UPDATE_ENTRIES = 16384


def relative_indices(symb, global_rows, ancestor):
    """Positions of ``global_rows`` within ``rowind(ancestor)``.

    Parameters
    ----------
    symb:
        :class:`~repro.symbolic.structure.SymbolicFactor`.
    global_rows:
        Sorted array of global row indices, each of which must be present in
        the ancestor's row list (guaranteed by the subset property of the
        elimination tree for update targets).
    ancestor:
        Supernode id of the ancestor ``P``.

    Returns
    -------
    ``int64`` array of positions (0 = top of ``P``'s panel).
    """
    prows = symb.snode_rows(ancestor)
    pos = np.searchsorted(prows, global_rows)
    if pos.size and (pos.max() >= prows.size or not np.array_equal(prows[pos], global_rows)):
        raise ValueError(
            "rows are not contained in the ancestor's structure; "
            "symbolic factorization is inconsistent"
        )
    return pos


def locate_rows(symb, targets, rows):
    """Relative index of ``rows[i]`` inside the panel of supernode
    ``targets[i]``, any number of (target, row) pairs at once.

    ``supernode * n + row`` over the concatenated panel row lists is strictly
    increasing, so ONE ``searchsorted`` finds every pair.  ``ValueError`` when
    a row is not in its target's structure."""
    owner = np.repeat(np.arange(symb.nsup, dtype=np.int64), np.diff(symb.rowptr))
    haystack = owner * symb.n + symb.rows
    keys = targets * symb.n + rows
    pos = np.searchsorted(haystack, keys)
    if pos.size and (pos.max() >= haystack.size or not np.array_equal(haystack[pos], keys)):
        raise ValueError("rows are not contained in their target supernode's structure")
    return pos - symb.rowptr[targets]


def _ranges(counts):
    """``(ptr, owner, within)`` of the concatenation of ``len(counts)``
    ranges ``0..counts[i]``: boundaries, the range each element belongs to
    and its position inside it."""
    ptr = np.concatenate(([0], np.cumsum(counts)))
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return ptr, owner, np.arange(ptr[-1], dtype=np.int64) - ptr[owner]


def _stretches(values, cut):
    """Start and length of every maximal stretch of ``values`` that steps by
    one and starts anew wherever ``cut`` is set."""
    step = np.zeros(values.size, dtype=bool)
    step[1:] = np.diff(values) == 1
    start = np.flatnonzero(cut | ~step)
    return start, np.diff(np.append(start, values.size))


class AssemblyIndex:
    """Every relative index of a pattern's RL assembly (see the module
    docstring); build with :func:`assembly_index`.

    Attributes
    ----------
    moved:
        Per source supernode, the fp64-normalized bytes its assembly reads
        and writes (the cost model's unit; a Python ``int`` list).
    targets:
        Per source supernode, the ancestor of each of its runs, ascending.
    flat:
        Per source supernode ``(dst, src, bounds)`` — arena positions,
        positions in the F-ordered ``(b, b)`` update matrix, and
        ``(ancestor, f0, f1)`` per run delimiting ``dst[f0:f1]`` — or
        ``None`` for a source without below rows or above
        :data:`FLAT_UPDATE_ENTRIES`, which has :meth:`pieces` instead.
    flat_ptr, flat_dst, flat_src:
        The same as plain ``int64`` arrays: every source's ``dst`` and
        ``src`` back to back, source ``s``'s at ``flat_ptr[s]:flat_ptr[s +
        1]`` (empty for a source in the block form).
    piece_ptr, piece_table:
        The block form as plain ``int64`` arrays: one row ``(base, ld, r0,
        r1, c0, c1, i0, i1, j0, j1)`` per piece — the target panel's arena
        offset and leading dimension, then the :meth:`pieces` entry —
        source ``s``'s at ``piece_ptr[s]:piece_ptr[s + 1]``.

    The plain arrays are what the compiled RL loop reads
    (:func:`repro.numeric.rl._compiled_body`).
    """

    __slots__ = (
        "moved",
        "targets",
        "flat",
        "flat_ptr",
        "flat_dst",
        "flat_src",
        "piece_ptr",
        "piece_table",
        "_pieces",
    )

    def __init__(self, symb):
        nsup = symb.nsup
        w = np.diff(symb.snptr)
        m = np.diff(symb.rowptr)
        b = m - w
        # every below-diagonal row of every supernode, grouped by source
        below_ptr, source, k = _ranges(b)
        below = symb.rows[(symb.rowptr[:-1] + w)[source] + k]
        owner = symb.col2sn[below]
        colpos = below - symb.snptr[owner]
        # runs: maximal stretches of one source's rows owned by one ancestor
        first = np.ones(below.size, dtype=bool)
        first[1:] = (source[1:] != source[:-1]) | (owner[1:] != owner[:-1])
        run_start = np.flatnonzero(first)
        run_end = run_start + np.diff(np.append(run_start, below.size))
        run_source = source[run_start]
        run_p = owner[run_start]
        run_k0 = k[run_start]
        run_ptr = np.searchsorted(run_source, np.arange(nsup + 1))
        # each run updates its ancestor with the whole remaining tail of the
        # source's rows: locate all tails in their ancestors at once
        tail = b[run_source] - run_k0
        rel_ptr, run_of, t = _ranges(tail)
        rel = locate_rows(symb, run_p[run_of], below[run_start[run_of] + t])
        nbytes = 2 * 8 * tail * (run_end - run_start)
        moved_ptr = np.concatenate(([0], np.cumsum(nbytes)))[run_ptr]
        self.moved = np.diff(moved_ptr).tolist()
        run = np.cumsum(first) - 1
        ptr, targets = run_ptr.tolist(), run_p.tolist()
        self.targets = tuple(tuple(targets[r0:r1]) for r0, r1 in zip(ptr[:-1], ptr[1:]))

        # the flat form of every small source, built at once: one entry per
        # lower-triangle position (i, j) of each update matrix, column by
        # column — ascending j walks a source's runs (its ancestors) in order.
        # Down a column the position in ``rel``, in the arena's target column
        # and in the update matrix all advance by one per row, so a column is
        # its diagonal entry's three positions plus a count
        small = (b > 0) & (b * b <= FLAT_UPDATE_ENTRIES)
        count = np.where(small[source], b[source] - k, 0)  # rows i >= j of column j
        col_ptr = np.concatenate(([0], np.cumsum(count)))
        rel0 = rel_ptr[run] + (k - run_k0[run])
        offsets = symb.panel_offsets()
        dst0 = offsets[owner] + colpos * m[owner]
        src0 = k * (b[source] + 1)
        at = np.arange(col_ptr[-1], dtype=np.int64)
        at += np.repeat(rel0 - col_ptr[:-1], count)  # every entry's position in ``rel``
        src = at + np.repeat(src0 - rel0, count)
        dst = rel[at] + np.repeat(dst0, count)
        f_run0 = col_ptr[run_start].tolist()
        f_run1 = col_ptr[run_end].tolist()
        self.flat_ptr, self.flat_dst, self.flat_src = col_ptr[below_ptr], dst, src
        f_source = self.flat_ptr.tolist()
        flat = [None] * nsup
        for s in np.flatnonzero(small).tolist():
            f0, f1 = f_source[s], f_source[s + 1]
            runs = range(ptr[s], ptr[s + 1])
            bounds = tuple((targets[r], f_run0[r] - f0, f_run1[r] - f0) for r in runs)
            flat[s] = dst[f0:f1], src[f0:f1], bounds
        self.flat = tuple(flat)

        # the block form of the other sources: per run, its tail rows' and
        # its columns' stretches, ``(r0, r1, i0, i1)`` / ``(c0, c1, j0, j1)``;
        # every (column, row) stretch pair is a piece unless i1 <= j0
        pieces = [None if f else () for f in small.tolist()]
        big = np.flatnonzero(~small & (b > 0)).tolist()
        self.piece_ptr = np.zeros(nsup + 1, dtype=np.int64)
        self.piece_table = np.zeros((0, 10), dtype=np.int64)
        if big:
            nruns = run_start.size
            keep = ~small[run_source[run_of]]  # the tails of the big sources' runs
            rel, t, run_of = rel[keep], t[keep], run_of[keep]
            at, n = _stretches(rel, t == 0)
            i0 = run_k0[run_of[at]] + t[at]
            rows = np.column_stack((rel[at], rel[at] + n, i0, i0 + n))
            nr = np.bincount(run_of[at], minlength=nruns)
            keep = ~small[source]  # the big sources' below rows
            colpos, k, run = colpos[keep], k[keep], run[keep]
            at, n = _stretches(colpos, first[keep])
            cols = np.column_stack((colpos[at], colpos[at] + n, k[at], k[at] + n))
            nc = np.bincount(run[at], minlength=nruns)
            _, piece_run, within = _ranges(nr * nc)
            ci, ri = np.divmod(within, nr[piece_run])
            ri += (np.cumsum(nr) - nr)[piece_run]
            ci += (np.cumsum(nc) - nc)[piece_run]
            keep = rows[ri, 3] > cols[ci, 2]
            table = np.hstack((rows[ri[keep]], cols[ci[keep]]))[:, [0, 1, 4, 5, 2, 3, 6, 7]]
            target = run_p[piece_run[keep]]
            self.piece_table = np.ascontiguousarray(
                np.column_stack((offsets[target], m[target], table))
            )
            counts = np.bincount(piece_run[keep], minlength=nruns)
            piece_ptr = np.concatenate(([0], np.cumsum(counts)))
            self.piece_ptr = piece_ptr[run_ptr]
            table = list(map(tuple, table.tolist()))
            piece_ptr = piece_ptr.tolist()
            for s in big:
                pieces[s] = tuple(
                    (p, tuple(table[piece_ptr[r] : piece_ptr[r + 1]]))
                    for p, r in zip(self.targets[s], range(ptr[s], ptr[s + 1]))
                )
        self._pieces = tuple(pieces)

    def pieces(self, s):
        """The block form of source ``s`` (``ValueError`` if it takes the
        flat form): per run ``(ancestor, pieces)``, a piece ``(r0, r1, c0,
        c1, i0, i1, j0, j1)`` standing for ``panels[ancestor][r0:r1, c0:c1]
        -= U[i0:i1, j0:j1]``; disjoint, they cover ``U``'s lower triangle."""
        if not 0 <= s < len(self._pieces):
            raise IndexError(f"source supernode {s} is outside [0, {len(self._pieces)})")
        pieces = self._pieces[s]
        if pieces is None:
            raise ValueError(f"source supernode {s} takes the flat form; it has no pieces")
        return pieces


def assembly_index(symb):
    """The pattern's :class:`AssemblyIndex`, built on first use and memoised
    on the symbolic factor (``dag_plan(symb, "coarse")`` and a serving
    session warm it on the submitting thread, so worker threads only ever
    read it)."""
    cache = symb.cache()
    index = cache.get("assembly_index")
    if index is None:
        index = cache["assembly_index"] = AssemblyIndex(symb)
    return index


def relative_indices_bottom(symb, global_rows, ancestor):
    """The paper's Figure-1 convention: distance of each row from the
    *bottom* of the ancestor's index set (``relind(J1,J3) = [9,8,1]`` style).

    Provided for parity with the paper's notation and used in documentation
    examples; the factorization kernels use top-based positions.
    """
    prows = symb.snode_rows(ancestor)
    return prows.size - 1 - relative_indices(symb, global_rows, ancestor)
