"""Symmetric sparse matrix storage in compressed sparse column (CSC) form.

The whole library works with the *lower triangle* of a symmetric matrix
stored column-wise, which is the storage convention used by supernodal
Cholesky codes (and by the paper's Fortran implementation).  Row indices
within each column are kept sorted ascending and the diagonal entry is
required to be present (structurally) in every column, as expected of a
symmetric positive definite matrix.

The class is deliberately small: it is a *container with invariants*, not a
linear-algebra object.  All structural algorithms (elimination trees, column
counts, supernodes) consume the raw ``indptr`` / ``indices`` arrays directly,
following the guide's advice to operate on contiguous NumPy buffers rather
than object graphs.
"""

from __future__ import annotations

import numpy as np

from ..dense.kernels import check_real

__all__ = ["SymmetricCSC"]


class SymmetricCSC:
    """Lower triangle of an ``n x n`` sparse symmetric matrix in CSC form.

    Parameters
    ----------
    n:
        Matrix dimension.
    indptr:
        ``int64`` array of length ``n + 1``; column ``j`` occupies
        ``indices[indptr[j]:indptr[j+1]]``.
    indices:
        ``int64`` array of row indices, sorted ascending within each column,
        all ``>= j`` for column ``j`` (lower triangle including diagonal).
    data:
        ``float64`` array of the corresponding numerical values (complex
        values raise :class:`~repro.dense.kernels.UnsupportedDtypeError`).
    check:
        When true (default) the structural invariants are validated; pass
        ``False`` only from internal code that constructs valid inputs.
    """

    __slots__ = ("n", "indptr", "indices", "data")

    def __init__(self, n, indptr, indices, data, *, check=True):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(check_real(data, "values"), dtype=np.float64)
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, n, rows, cols, vals, *, sum_duplicates=True,
                 symmetry="auto"):
        """Build from COO triplets of a symmetric matrix.

        ``symmetry`` states which triangles the triplets cover:

        ``"lower"``
            Each logical entry appears once, in either triangle; entries with
            ``row < col`` are mirrored to the lower triangle.  Duplicates are
            genuine contributions and are summed when ``sum_duplicates`` is
            true (the Matrix Market assembly convention), otherwise they
            raise ``ValueError``.
        ``"full"``
            Both triangles are present (the scipy full-symmetric convention).
            The strictly-upper entries must exactly mirror the strictly-lower
            ones — equal multisets of ``(coordinate, value)`` pairs — and
            are dropped, so mirrored pairs are *not* double-counted;
            ``ValueError`` if the two triangles disagree.
        ``"auto"`` (default)
            Treated as ``"full"`` when the strictly-upper entries exactly
            mirror the strictly-lower ones, as ``"lower"`` otherwise.

        A structurally missing diagonal entry is inserted with value 0.
        """
        if symmetry not in ("auto", "full", "lower"):
            raise ValueError("symmetry must be 'auto', 'full' or 'lower'")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(check_real(vals, "values"), dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have identical shapes")
        if rows.size and (rows.min() < 0 or cols.min() < 0
                          or rows.max() >= n or cols.max() >= n):
            raise ValueError("index out of range for n=%d" % n)
        if symmetry != "lower":
            mirrored = cls._mirror_pairs_match(n, rows, cols, vals)
            if symmetry == "full" and not mirrored:
                raise ValueError(
                    "symmetry='full' but the strictly-upper triplets do not "
                    "mirror the strictly-lower ones"
                )
            if mirrored:
                keep = rows >= cols
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
        # mirror upper-triangle entries into the lower triangle
        lo = np.where(rows >= cols, rows, cols)
        hi = np.where(rows >= cols, cols, rows)
        rows, cols = lo, hi
        # ensure every diagonal entry exists structurally
        have_diag = np.zeros(n, dtype=bool)
        have_diag[rows[rows == cols]] = True
        missing = np.flatnonzero(~have_diag)
        if missing.size:
            rows = np.concatenate([rows, missing])
            cols = np.concatenate([cols, missing])
            vals = np.concatenate([vals, np.zeros(missing.size)])
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        dup = np.zeros(rows.size, dtype=bool)
        if rows.size > 1:
            dup[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            if not sum_duplicates:
                raise ValueError("duplicate entries present")
            # segment-sum duplicates onto the first entry of each run
            keep = ~dup
            seg = np.cumsum(keep) - 1
            out = np.zeros(int(seg[-1]) + 1)
            np.add.at(out, seg, vals)
            rows, cols, vals = rows[keep], cols[keep], out
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, rows, vals, check=True)

    @staticmethod
    def _mirror_pairs_match(n, rows, cols, vals):
        """True when the strictly-upper triplets exactly mirror the
        strictly-lower ones: equal multisets of ``(coordinate, value)``
        pairs (i.e. the input stores a full symmetric matrix, one triangle
        redundant).  Sorting each triangle by coordinate *and* value keeps
        the comparison order-insensitive — no float summation is involved,
        so duplicate contributions listed in different orders per triangle
        still match exactly."""
        low = rows > cols
        up = rows < cols
        lkey = rows[low] * n + cols[low]
        ukey = cols[up] * n + rows[up]  # mirrored coordinates
        if lkey.size != ukey.size:
            return False
        if lkey.size == 0:
            return True
        lvals = vals[low]
        uvals = vals[up]
        lorder = np.lexsort((lvals, lkey))
        uorder = np.lexsort((uvals, ukey))
        return bool(np.array_equal(lkey[lorder], ukey[uorder])
                    and np.array_equal(lvals[lorder], uvals[uorder]))

    @classmethod
    def from_dense(cls, A, *, drop_tol=0.0):
        """Build from a dense symmetric array, keeping ``|a_ij| > drop_tol``
        entries of the lower triangle (diagonal always kept)."""
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
            raise ValueError("A must be symmetric")
        n = A.shape[0]
        rows, cols = np.nonzero(np.tril(np.abs(A) > drop_tol) | np.eye(n, dtype=bool))
        return cls.from_coo(n, rows, cols, A[rows, cols])

    @classmethod
    def from_scipy(cls, A):
        """Build from any ``scipy.sparse`` matrix (full or lower symmetric).

        A full symmetric matrix is reduced to its lower triangle first, so
        mirrored duplicates are not double-counted.
        """
        from scipy.sparse import tril

        coo = tril(A).tocoo()
        return cls.from_coo(coo.shape[0], coo.row, coo.col, coo.data)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _validate(self):
        n = self.n
        if self.indptr.shape != (n + 1,):
            raise ValueError("indptr must have length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 1):
            raise ValueError("every column must contain its diagonal entry")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data length mismatch")
        for j in range(n):
            col = self.indices[self.indptr[j]:self.indptr[j + 1]]
            if col[0] != j:
                raise ValueError(f"column {j} must start with its diagonal")
            if np.any(np.diff(col) <= 0):
                raise ValueError(f"column {j} row indices not strictly ascending")
            if col[-1] >= n:
                raise ValueError(f"column {j} row index out of range")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def nnz_lower(self):
        """Number of stored entries (lower triangle including diagonal)."""
        return int(self.indices.size)

    @property
    def nnz_full(self):
        """Number of entries of the full symmetric matrix."""
        return 2 * self.nnz_lower - self.n

    def column(self, j):
        """Return ``(row_indices, values)`` views of column ``j``'s lower part."""
        s, e = self.indptr[j], self.indptr[j + 1]
        return self.indices[s:e], self.data[s:e]

    def diagonal(self):
        """Return a copy of the diagonal values."""
        return self.data[self.indptr[:-1]].copy()

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self):
        """Materialise the full symmetric matrix as a dense array."""
        A = np.zeros((self.n, self.n))
        for j in range(self.n):
            rows, vals = self.column(j)
            A[rows, j] = vals
            A[j, rows] = vals
        return A

    def to_scipy(self, *, full=True):
        """Convert to ``scipy.sparse.csc_matrix`` (full symmetric by default,
        lower triangle when ``full=False``)."""
        from scipy.sparse import csc_matrix

        lower = csc_matrix(
            (self.data, self.indices, self.indptr), shape=(self.n, self.n)
        )
        if not full:
            return lower
        diag = csc_matrix(
            (self.diagonal(), np.arange(self.n), np.arange(self.n + 1)),
            shape=(self.n, self.n),
        )
        return lower + lower.T - diag

    # ------------------------------------------------------------------
    # numeric helpers
    # ------------------------------------------------------------------
    def shift_diagonal(self, sigma):
        """Return a new matrix ``A + sigma * I`` (same structure)."""
        data = self.data.copy()
        data[self.indptr[:-1]] += sigma
        return SymmetricCSC(self.n, self.indptr, self.indices, data, check=False)

    def matvec(self, x):
        """Full symmetric matrix product ``A @ x`` from the lower triangle.

        ``x`` may be a single ``(n,)`` vector or an ``(n, k)`` block of
        operands (matching the multi-RHS triangular solves).  Computed as
        ``L x + L^T x - d * x`` by scipy's compiled CSC / CSR kernels over
        the stored arrays (the transpose is the same arrays read as CSR):
        nothing is cached, so the product always reads the current ``data``.
        """
        from scipy.sparse import csc_matrix

        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError("x must have shape (n,) or (n, k)")
        lower = csc_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))
        diag = self.data[self.indptr[:-1]].reshape((-1,) + (1,) * (x.ndim - 1))
        return lower @ x + lower.T @ x - diag * x

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"SymmetricCSC(n={self.n}, nnz_lower={self.nnz_lower})")
