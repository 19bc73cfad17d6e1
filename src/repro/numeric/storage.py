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
either way.  The one other shape is the copy-on-write storage
:meth:`repro.api.Factor.update` builds (:meth:`FactorStorage.derived`): it
has no arena of its own (``arena is None``) and reads through its *root*,
the arena-backed storage at the bottom of its update chain; only its
private path panels are its own.  Every storage cuts one set of views, for
the Python bodies only: a solve program takes the factor program's panels
and rectangles when there is one; the compiled loops read the arena, and the
compiled solve a table of panel addresses (:meth:`FactorStorage.panel_addresses`).
A storage that leaves in a :class:`~repro.api.Factor` is read-only,
views included (:meth:`FactorStorage.freeze`).

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


def _factor_entry(layout, panel):
    """The :meth:`FactorStorage.factor_program` entry of ``panel`` with
    layout ``(m, w, offset)``: the one place views of a panel are cut."""
    m, w, _ = layout
    if m > w:
        return m, w, m - w, panel, panel[:w, :w], panel[w:, :w]
    return m, w, 0, panel, panel, None


def _solve_entry(shape, panel):
    """The :meth:`FactorStorage.solve_program` entry of ``panel`` with solve
    shape ``(first, last, w, below)``, for a panel no factor program entry
    has cut views of (a derived storage's copies, a never-factorized storage)."""
    first, last, w, below = shape
    return first, last, w, panel, panel[w:] if below.size else None, below


def _patched(entries, fresh):
    """``entries`` (per supernode) as a list with ``fresh[s]`` at each ``s``."""
    entries = list(entries)
    for s, entry in fresh.items():
        entries[s] = entry
    return entries


class FactorStorage:
    """Dense supernode panels of a (being-)factorized matrix.

    Create with :meth:`from_matrix` to scatter the permuted input's values
    into the symbolic structure (explicit zeros where amalgamation padded).
    ``arena`` is the flat array every panel is a view of (module docstring),
    or ``None`` for a :meth:`derived` storage.
    """

    def __init__(self, symb, *, arena=None):
        self.symb = symb
        self.arena = arena
        self._panels = None
        self._solve_program = None
        self._factor_program = None
        self._addresses = None
        self._root = self._over = None  # derived(): the root, supernode -> private panel

    @classmethod
    def derived(cls, base, copied):
        """Copy-on-write of ``base``: private copies of the ``copied``
        supernodes' panels, ``base``'s everywhere else.  Its root is
        ``base`` when arena-backed, else ``base``'s root, whose copies it
        merges: a chain of updates has one root."""
        storage = cls(base.symb)
        storage._root = base if base._root is None else base._root
        storage._over = {**(base._over or {}), **{s: base.panel(s).copy(order="F") for s in copied}}
        return storage

    def _base(self):
        """The arena this storage reads: its own, or its root's."""
        return self.arena if self._root is None else self._root.arena

    def freeze(self):
        """Make the bytes this storage owns (its arena, or a derived one's
        private panels) and every view it keeps read-only, and return it:
        the storage of every returned :class:`~repro.api.Factor`.  The factor
        program is dropped, not flagged: only a factorization reads it, and
        one cut again later inherits the flag from the panels."""
        if self._root is not None:  # its other panels are its root's views
            views = list(self._over.values())
        else:
            views = [self.arena, *(self._panels or ())]
        self._factor_program = None
        views += [entry[4] for entry in self._solve_program or ()]
        for view in views:
            if view is not None:
                view.setflags(write=False)
        return self

    @property
    def panels(self):
        """The per-supernode ``(m, w)`` panels; for an arena-backed storage
        they are views cut on first use (a storage that is only scattered
        into or copied whole never pays for them), for a derived one the
        root's with the private copies in place."""
        panels = self._panels
        if panels is None:
            if self._root is not None:
                panels = _patched(self._root.panels, self._over)
            else:
                arena = self.arena
                panels = [
                    arena[off : off + m * w].reshape((m, w), order="F")
                    for m, w, off in _panel_layout(self.symb)
                ]
            self._panels = panels
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
        the matrix the symbolic factorization was computed for): a
        :meth:`zeros` storage, :meth:`refill`-ed.

        ``dtype`` selects the panel precision; ``None`` keeps the values'
        own (validated) dtype.  An explicit ``dtype`` different from the
        values' is the one sanctioned conversion (e.g. fp64 values into
        fp32 panels for the mixed-precision lane).
        """
        data_dtype = check_dtype(A.data.dtype)
        storage = cls.zeros(symb, data_dtype if dtype is None else dtype)
        return storage.refill(A, plan=plan, zeroed=True)

    def refill(self, A, *, plan=None, zeroed=False):
        """Zero the arena (unless it is: ``zeroed``), scatter the permuted
        matrix ``A``'s values into it and return ``self``, views and programs
        kept — how a plan's work storage serves request after request
        (:meth:`repro.api.SymbolicPlan._work_storage`).  The scatter is the
        :class:`ScatterPlan` cached on ``symb`` (or ``plan``): one bulk
        value assignment, no index work."""
        if A.n != self.symb.n:
            raise ValueError("matrix/symbolic dimension mismatch")
        if not zeroed:
            self.arena.fill(0)
        # assigning fp64 values into an fp32 arena rounds exactly like astype
        self.arena[(plan or ScatterPlan.get(self.symb, A)).dst] = A.data
        return self

    @classmethod
    def zeros(cls, symb, dtype=np.float64):
        """All-zero storage with the symbolic layout (workspace/testing)."""
        dt = check_dtype(dtype, context="storage")
        return cls(symb, arena=_zeroed(int(symb.panel_offsets()[-1]), dt))

    @property
    def dtype(self):
        """The panels' dtype (float64 unless the factor is fp32)."""
        return self._base().dtype

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
            prog = map(_factor_entry, _panel_layout(self.symb), self.panels)
            prog = self._factor_program = tuple(prog)
        return prog

    def solve_program(self):
        """Per supernode ``(first, last, w, panel, rect, below)`` — what the
        Python solve bodies read (:mod:`repro.solve.triangular`: the
        fallback walk and the ``workers=N`` graph's tasks): the
        pattern-static :func:`~repro.symbolic.levels.solve_shapes` entry
        plus the panel and its below-diagonal rectangle ``panel[w:]``
        (``None`` when there are no below rows) — the :meth:`factor_program`
        entry's own views when it was built (``panel[w:, :w]`` is
        ``panel[w:]``: a panel has ``w`` columns), so a factorized storage
        cuts no view twice.  A derived storage's is its root's, only the
        copied supernodes' entries cut anew.

        Built on first use and kept: nothing rebinds ``panels[s]`` (engines
        and :meth:`refill` write *into* the arrays, a copy-on-write update
        builds a new storage), so the views always read current values.
        """
        prog = self._solve_program
        if prog is None:
            shapes, entries = solve_shapes(self.symb), self._factor_program
            if self._root is not None:
                fresh = {s: _solve_entry(shapes[s], p) for s, p in self._over.items()}
                prog = _patched(self._root.solve_program(), fresh)
            elif entries is not None:
                prog = ((first, last, w, e[3], e[5], below)
                        for (first, last, w, below), e in zip(shapes, entries))
            else:
                prog = map(_solve_entry, shapes, self.panels)
            prog = self._solve_program = tuple(prog)
        return prog

    def panel_addresses(self):
        """Per supernode, the address of its panel's first entry (``int64``)
        — what the compiled solve reads instead of views: the arena's address
        plus the pattern's panel offsets, or for a derived storage its root's
        table with the private panels patched in.  Built on first use and
        kept: nothing rebinds an arena or a private panel."""
        table = self._addresses
        if table is None:
            if self._root is None:
                offsets = self.symb.panel_offsets()[:-1]
                table = self.arena.ctypes.data + offsets * self.itemsize
            else:
                table = self._root.panel_addresses().copy()
                table[list(self._over)] = [p.ctypes.data for p in self._over.values()]
            self._addresses = table
        return table

    def upcast_addresses(self, dtype):
        """``(table, copies)``: a :meth:`panel_addresses` table of exact
        ``dtype`` copies of the panels, built per call — the root's arena
        upcast whole, a derived storage's private panels each — and the
        copies, to keep alive while the table is read.  What the compiled
        solve of an fp32 factor reads under a float64 buffer."""
        root = self if self._root is None else self._root
        arena = root.arena.astype(dtype)
        table = arena.ctypes.data + self.symb.panel_offsets()[:-1] * arena.itemsize
        copies = [arena]
        for s, panel in (self._over or {}).items():
            copies.append(panel.astype(dtype, order="F"))
            table[s] = copies[-1].ctypes.data
        return table, copies

    def __getstate__(self):
        # ONE arena travels (a derived one's panels merged), read-only if this is
        arena = self.arena
        if arena is None:
            arena = np.concatenate([p.ravel(order="F") for p in self.panels])
        return {"symb": self.symb, "arena": arena, "frozen": not self._base().flags.writeable}

    def __setstate__(self, state):
        self.__init__(state["symb"], arena=state["arena"])
        if state["frozen"]:
            self.freeze()

    def nbytes(self):
        """Total bytes of panel storage (a derived storage's root's)."""
        return self._base().nbytes

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
