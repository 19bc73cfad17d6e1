"""Factor storage: one dense Fortran-ordered panel per supernode, all in
one arena.

A supernode with ``w`` columns and row list of length ``m`` is stored as an
``(m, w)`` float64 array — its top ``w x w`` square holds the lower-triangular
diagonal block (the strictly-upper part of that square is dead space, never
read), the rest holds the below-diagonal rows.  This mirrors the paper's
"a supernode is stored in a dense array" (§II-A) and is the layout all four
factorization variants mutate in place.

Arena layout
------------
The panels of a :class:`FactorStorage` are views into ONE flat array, the
*arena*: panel ``s`` occupies entries ``offset[s] : offset[s] + m*w`` in
Fortran order, with ``offset`` the pattern-static
:meth:`~repro.symbolic.structure.SymbolicFactor.panel_offsets` (panels back
to back, no padding).  Position ``offset[s] + i + j*m`` is therefore entry
``(i, j)`` of panel ``s`` — which lets whole-factor operations address the
factor with one index array instead of one per panel: the value scatter is
``arena[plan.dst] = data`` and RL assembly of a small source supernode is
``arena[dst] -= u[src]`` (:mod:`repro.symbolic.relind`).  The arena is any
buffer: :meth:`FactorStorage.from_matrix` allocates one (a private mapping
of its own once it is large, ``_MAPPED_ARENA_BYTES``), the process pool
puts one in shared memory (:meth:`FactorStorage.over`) — the same class
either way.  A storage assembled from loose panels (``FactorStorage(symb,
panels)``, the copy-on-write shape :meth:`repro.api.Factor.update` builds
from shared and copied panels) has ``arena is None`` and is addressed panel
by panel.

Scattering the input matrix into this layout is a hot path for repeated
factorizations, so the index arithmetic lives in a reusable
:class:`ScatterPlan`: one ``searchsorted`` pass over the whole matrix maps
every stored entry of ``A`` to its position in the arena.  The plan is
memoised on the symbolic factor, so same-pattern refactorization
(:meth:`repro.api.SymbolicPlan.factorize` on new values) does no index work
at all — only one bulk value scatter.

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

import mmap

import numpy as np

from ..dense.kernels import check_dtype
from ..symbolic.levels import solve_shapes
from ..symbolic.relind import locate_rows

__all__ = ["FactorStorage", "ScatterPlan"]


class ScatterPlan:
    """Precomputed scatter of a matrix's values into the factor arena.

    Entry ``t`` of ``A.data`` (CSC order) lands at arena position ``dst[t]``
    (panel offset + Fortran position inside the panel).  Built with a single
    vectorised ``searchsorted`` over the globally sorted ``(supernode, row)``
    keys — no per-column Python loop — and validated against the symbolic
    structure once at build time.
    """

    __slots__ = ("indptr", "indices", "dst")

    def __init__(self, symb, A):
        if A.n != symb.n:
            raise ValueError("matrix/symbolic dimension mismatch")
        check_dtype(A.data.dtype)
        cols = np.repeat(np.arange(symb.n, dtype=np.int64), np.diff(A.indptr))
        s_of = symb.col2sn[cols]
        try:
            row_pos = locate_rows(symb, s_of, A.indices)
        except ValueError:
            raise ValueError("matrix entries outside symbolic structure") from None
        m_of = symb.rowptr[s_of + 1] - symb.rowptr[s_of]
        self.dst = symb.panel_offsets()[s_of] + row_pos + (cols - symb.snptr[s_of]) * m_of
        self.indptr = A.indptr
        self.indices = A.indices

    def matches(self, A):
        """True when ``A`` has the sparsity pattern the plan was built for."""
        if self.indptr is A.indptr and self.indices is A.indices:
            return True
        return np.array_equal(self.indptr, A.indptr) and np.array_equal(self.indices, A.indices)

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


#: Arenas of at least this many bytes are anonymous mappings of their own
#: instead of malloc blocks.  glibc raises its mmap *and trim* thresholds to
#: the size of the largest mapped block it has freed (up to 32 MiB), after
#: which every thread's heap may sit on twice that much free memory: one
#: 16 MB arena freed through malloc cost the process 40 MB of resident set
#: (4-dof 10³ stencil, measured).  A private mapping goes back to the OS
#: when the storage dies and leaves malloc's thresholds alone; the price is
#: fresh zero pages per factorization (~0.3 ms per MB here), which is why
#: small arenas stay with malloc.
_MAPPED_ARENA_BYTES = 1 << 22

try:  # Linux: fault the pages in one call instead of one trap per page
    _ARENA_MAP = {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE}
except AttributeError:
    _ARENA_MAP = {}


def _zeroed(entries, dtype):
    """A zero-filled flat array of ``entries`` entries (see
    :data:`_MAPPED_ARENA_BYTES`)."""
    nbytes = entries * dtype.itemsize
    if nbytes < _MAPPED_ARENA_BYTES:
        return np.zeros(entries, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes, **_ARENA_MAP), dtype=dtype)


def _panel_layout(symb):
    """Per supernode ``(m, w, offset)`` as plain ints — panel shape and
    arena offset; pattern-static, memoised on the symbolic factor."""
    cache = symb.cache()
    layout = cache.get("panel_layout")
    if layout is None:
        m = np.diff(symb.rowptr).tolist()
        w = np.diff(symb.snptr).tolist()
        layout = cache["panel_layout"] = tuple(zip(m, w, symb.panel_offsets().tolist()))
    return layout


class FactorStorage:
    """Dense supernode panels of a (being-)factorized matrix.

    Create with :meth:`from_matrix` to scatter the permuted input's values
    into the symbolic structure (explicit zeros where amalgamation padded).
    ``arena`` is the flat array every panel is a view of (module docstring),
    or ``None`` for a storage built from loose ``panels``.
    """

    def __init__(self, symb, panels=None, *, arena=None):
        self.symb = symb
        self.arena = arena
        self._panels = panels
        self._solve_program = None
        self._factor_program = None

    @property
    def panels(self):
        """The per-supernode ``(m, w)`` panels; for an arena-backed storage
        they are views cut on first use (a storage that is only scattered
        into or copied whole never pays for them)."""
        panels = self._panels
        if panels is None:
            arena = self.arena
            panels = self._panels = [
                arena[off : off + m * w].reshape((m, w), order="F")
                for m, w, off in _panel_layout(self.symb)
            ]
        return panels

    @classmethod
    def over(cls, symb, buffer, dtype=np.float64):
        """Storage whose arena is the leading entries of ``buffer`` (any
        writable buffer of at least the arena's size, e.g. a shared-memory
        segment) — nothing is copied or cleared."""
        dt = check_dtype(dtype, context="storage")
        entries = int(symb.panel_offsets()[-1])
        return cls(symb, arena=np.frombuffer(buffer, dtype=dt, count=entries))

    @classmethod
    def from_matrix(cls, symb, A, *, plan=None, dtype=None):
        """Initialise panels from the permuted matrix ``A`` (which must be
        the matrix the symbolic factorization was computed for).

        The positional scatter is driven by a :class:`ScatterPlan` cached on
        ``symb`` (pass ``plan`` explicitly to bypass the cache), so repeated
        same-pattern calls perform only one bulk value assignment.

        ``dtype`` selects the panel precision; ``None`` keeps the values'
        own (validated) dtype.  An explicit ``dtype`` different from the
        values' is the one sanctioned conversion (e.g. fp64 values into
        fp32 panels for the mixed-precision lane).
        """
        if A.n != symb.n:
            raise ValueError("matrix/symbolic dimension mismatch")
        data_dtype = check_dtype(A.data.dtype)
        storage = cls.zeros(symb, data_dtype if dtype is None else dtype)
        if plan is None:
            plan = ScatterPlan.get(symb, A)
        # assigning fp64 values into an fp32 arena rounds exactly like astype
        storage.arena[plan.dst] = A.data
        return storage

    @classmethod
    def zeros(cls, symb, dtype=np.float64):
        """All-zero storage with the symbolic layout (workspace/testing)."""
        dt = check_dtype(dtype, context="storage")
        return cls(symb, arena=_zeroed(int(symb.panel_offsets()[-1]), dt))

    @property
    def dtype(self):
        """The panels' dtype (float64 unless the factor is fp32)."""
        if self.arena is not None:
            return self.arena.dtype
        return self.panels[0].dtype if self.panels else np.dtype(np.float64)

    @property
    def itemsize(self):
        """Bytes per stored entry (8 for fp64 panels, 4 for fp32)."""
        return self.dtype.itemsize

    def panel(self, s):
        """The dense panel of supernode ``s``."""
        return self.panels[s]

    def factor_program(self):
        """Per supernode ``(m, w, b, panel, diag, rect)`` — what the
        factorization bodies read (:func:`repro.numeric.rl.factor_update`):
        panel shape and below-row count as plain ints, the panel, its
        ``w x w`` diagonal block and its ``b x w`` below-diagonal rectangle
        (``None`` when ``b == 0``, and then ``diag`` is the panel itself).

        Built on first use and kept, like :meth:`solve_program`: nothing
        rebinds ``panels[s]``, so the views always read current values.
        """
        prog = self._factor_program
        if prog is None:
            prog = self._factor_program = tuple(
                (m, w, m - w, panel, panel[:w, :w], panel[w:, :w])
                if m > w
                else (m, w, 0, panel, panel, None)
                for (m, w, _), panel in zip(_panel_layout(self.symb), self.panels)
            )
        return prog

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
                (first, last, w, panel, panel[w:] if below.size else None, below)
                for (first, last, w, below), panel in zip(solve_shapes(self.symb), self.panels)
            )
        return prog

    def leaf_values(self, block, dtype=np.float64):
        """The values at ``block.pos`` (:class:`~repro.symbolic.levels.LeafBlock`)
        in the sweep's work ``dtype`` (an fp32 factor under a float64 buffer
        is upcast exactly), gathered *now*: nothing is kept that an in-place
        update could leave stale.  A loose-panel storage gathers from its
        member panels laid back to back (``block.loose_pos``)."""
        if self.arena is not None:
            values = self.arena[block.pos]
        else:
            flat = [self.panels[s].ravel(order="F") for s in block.members.tolist()]
            values = np.concatenate(flat)[block.loose_pos]
        return values.astype(dtype, copy=False)

    def __getstate__(self):
        # a copy's panels are new arrays: its views must be rebuilt, and an
        # arena-backed storage travels as its arena alone
        state = dict(self.__dict__, _solve_program=None, _factor_program=None)
        if self.arena is not None:
            state["_panels"] = None
        return state

    def nbytes(self):
        """Total bytes of panel storage."""
        if self.arena is not None:
            return self.arena.nbytes
        return sum(p.nbytes for p in self.panels)

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
