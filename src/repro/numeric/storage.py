"""Factor storage: one dense Fortran-ordered panel per supernode.

A supernode with ``w`` columns and row list of length ``m`` is stored as an
``(m, w)`` float64 array — its top ``w x w`` square holds the lower-triangular
diagonal block (the strictly-upper part of that square is dead space, never
read), the rest holds the below-diagonal rows.  This mirrors the paper's
"a supernode is stored in a dense array" (§II-A) and is the layout all four
factorization variants mutate in place.

Scattering the input matrix into this layout is a hot path for repeated
factorizations, so the index arithmetic lives in a reusable
:class:`ScatterPlan`: one ``searchsorted`` pass over the whole matrix maps
every stored entry of ``A`` to a flat position inside its supernode panel.
The plan is memoised on the symbolic factor, so same-pattern refactorization
(:meth:`repro.api.SymbolicPlan.factorize` on new values) does no index work
at all — only a bulk value scatter per panel.

Precision
---------
Panels default to float64 but may be allocated and scattered in float32
(``dtype=np.float32``) — the mixed-precision lane that the refinement graphs
recover to fp64 accuracy.  The values dtype is *validated*, never silently
converted: complex, float16 and friends raise
:class:`~repro.dense.kernels.UnsupportedDtypeError`.  The only sanctioned
conversion is the explicit fp64→fp32 downcast when a caller requests
``dtype=np.float32`` for float64 values (and the symmetric upcast).
"""

from __future__ import annotations

import numpy as np

from ..dense.kernels import check_dtype
from ..symbolic.levels import solve_shapes

__all__ = ["FactorStorage", "ScatterPlan"]


class ScatterPlan:
    """Precomputed scatter of a matrix's values into supernode panels.

    Maps entry ``t`` of ``A.data`` (CSC order) to flat Fortran-order position
    ``dst[t]`` inside panel ``s`` for ``t`` in ``seg[s]:seg[s+1]``.  Built
    with a single vectorised ``searchsorted`` over a globally sorted
    ``(supernode, row)`` key — no per-column Python loop — and validated
    against the symbolic structure once at build time.
    """

    __slots__ = ("indptr", "indices", "dst", "seg")

    def __init__(self, symb, A):
        if A.n != symb.n:
            raise ValueError("matrix/symbolic dimension mismatch")
        check_dtype(A.data.dtype)
        n = symb.n
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr))
        s_of = symb.col2sn[cols]
        # (supernode, row) keys: strictly increasing over the concatenated
        # per-supernode row lists, so one searchsorted locates every entry
        nsup = symb.nsup
        sn_of_rowpos = np.repeat(np.arange(nsup, dtype=np.int64),
                                 np.diff(symb.rowptr))
        haystack = sn_of_rowpos * n + symb.rows
        keys = s_of * n + A.indices
        pos = np.searchsorted(haystack, keys)
        if pos.size and (pos.max() >= haystack.size
                         or not np.array_equal(haystack[pos], keys)):
            raise ValueError("matrix entries outside symbolic structure")
        m_of = (symb.rowptr[s_of + 1] - symb.rowptr[s_of])
        self.dst = (pos - symb.rowptr[s_of]) + (cols - symb.snptr[s_of]) * m_of
        # entries are CSC-ordered, so each supernode's slice is contiguous
        self.seg = A.indptr[symb.snptr]
        self.indptr = A.indptr
        self.indices = A.indices

    def matches(self, A):
        """True when ``A`` has the sparsity pattern the plan was built for."""
        if self.indptr is A.indptr and self.indices is A.indices:
            return True
        return (np.array_equal(self.indptr, A.indptr)
                and np.array_equal(self.indices, A.indices))

    @classmethod
    def get(cls, symb, A):
        """The cached plan for ``(symb, A)``, building it on first use (or
        when ``A``'s pattern differs from the cached plan's)."""
        cache = symb.cache()
        plan = cache.get("scatter_plan")
        if plan is None or not plan.matches(A):
            plan = cls(symb, A)
            cache["scatter_plan"] = plan
        return plan


class FactorStorage:
    """Dense supernode panels of a (being-)factorized matrix.

    Create with :meth:`from_matrix` to scatter the permuted input's values
    into the symbolic structure (explicit zeros where amalgamation padded).
    """

    def __init__(self, symb, panels):
        self.symb = symb
        self.panels = panels
        self._solve_program = None

    @classmethod
    def from_matrix(cls, symb, A, *, plan=None, dtype=None):
        """Initialise panels from the permuted matrix ``A`` (which must be
        the matrix the symbolic factorization was computed for).

        The positional scatter is driven by a :class:`ScatterPlan` cached on
        ``symb`` (pass ``plan`` explicitly to bypass the cache), so repeated
        same-pattern calls perform only one bulk value assignment per panel.

        ``dtype`` selects the panel precision; ``None`` keeps the values'
        own (validated) dtype.  An explicit ``dtype`` different from the
        values' is the one sanctioned conversion (e.g. fp64 values into
        fp32 panels for the mixed-precision lane).
        """
        if A.n != symb.n:
            raise ValueError("matrix/symbolic dimension mismatch")
        data_dtype = check_dtype(A.data.dtype)
        dt = data_dtype if dtype is None else check_dtype(dtype,
                                                         context="storage")
        if plan is None:
            plan = ScatterPlan.get(symb, A)
        data = A.data if dt == data_dtype else A.data.astype(dt)
        seg = plan.seg
        dst = plan.dst
        panels = []
        for s in range(symb.nsup):
            m, w = symb.panel_shape(s)
            flat = np.zeros(m * w, dtype=dt)
            flat[dst[seg[s]:seg[s + 1]]] = data[seg[s]:seg[s + 1]]
            panels.append(flat.reshape((m, w), order="F"))
        return cls(symb, panels)

    @classmethod
    def zeros(cls, symb, dtype=np.float64):
        """All-zero storage with the symbolic layout (workspace/testing)."""
        dt = check_dtype(dtype, context="storage")
        panels = [np.zeros(symb.panel_shape(s), dtype=dt, order="F")
                  for s in range(symb.nsup)]
        return cls(symb, panels)

    @property
    def dtype(self):
        """The panels' dtype (float64 unless the factor is fp32)."""
        return self.panels[0].dtype if self.panels else np.dtype(np.float64)

    @property
    def itemsize(self):
        """Bytes per stored entry (8 for fp64 panels, 4 for fp32)."""
        return self.dtype.itemsize

    def panel(self, s):
        """The dense panel of supernode ``s``."""
        return self.panels[s]

    def solve_program(self):
        """Per supernode ``(first, last, w, panel, rect, below)`` — what the
        triangular sweeps read (:mod:`repro.solve.triangular`): the
        pattern-static :func:`~repro.symbolic.levels.solve_shapes` entry
        plus this storage's panel and its below-diagonal rectangle
        ``panel[w:]`` (``None`` when there are no below rows).

        Built on first use and kept: nothing rebinds ``panels[s]`` (engines
        and in-place updates write *into* the arrays, a copy-on-write
        update builds a new storage), so the views always read current
        values.
        """
        prog = self._solve_program
        if prog is None:
            prog = self._solve_program = tuple(
                (first, last, w, panel,
                 panel[w:] if below.size else None, below)
                for (first, last, w, below), panel
                in zip(solve_shapes(self.symb), self.panels)
            )
        return prog

    def __getstate__(self):
        # a copy's panels are new arrays: its views must be rebuilt
        return dict(self.__dict__, _solve_program=None)

    def nbytes(self):
        """Total bytes of panel storage."""
        return sum(p.nbytes for p in self.panels)

    def max_update_entries(self):
        """Entries of the largest RL update matrix (``max_s b_s^2``)."""
        best = 0
        for s in range(self.symb.nsup):
            m, w = self.symb.panel_shape(s)
            best = max(best, (m - w) ** 2)
        return best

    # ------------------------------------------------------------------
    # extraction (tests / solves)
    # ------------------------------------------------------------------
    def to_dense_lower(self):
        """Materialise the factor ``L`` as a dense lower-triangular array
        (dead panel space excluded)."""
        symb = self.symb
        n = symb.n
        L = np.zeros((n, n))
        for s in range(symb.nsup):
            first, last = symb.snode_cols(s)
            rows_s = symb.snode_rows(s)
            panel = self.panels[s]
            for c in range(last - first):
                j = first + c
                take = rows_s >= j
                L[rows_s[take], j] = panel[take, c]
        return L

    def to_scipy_lower(self):
        """Factor ``L`` as a ``scipy.sparse.csc_matrix`` (lower triangle)."""
        from scipy.sparse import csc_matrix

        symb = self.symb
        rows_all, cols_all, vals_all = [], [], []
        for s in range(symb.nsup):
            first, last = symb.snode_cols(s)
            rows_s = symb.snode_rows(s)
            panel = self.panels[s]
            for c in range(last - first):
                j = first + c
                take = rows_s >= j
                rows_all.append(rows_s[take])
                cols_all.append(np.full(int(take.sum()), j, dtype=np.int64))
                vals_all.append(panel[take, c])
        rows = np.concatenate(rows_all)
        cols = np.concatenate(cols_all)
        vals = np.concatenate(vals_all)
        m = csc_matrix((vals, (rows, cols)), shape=(symb.n, symb.n))
        m.sum_duplicates()
        return m
