"""Synthetic symmetric positive definite matrix generators.

These stand in for the paper's SuiteSparse test matrices (which are real FEM /
optimization problems with hundreds of thousands of rows).  Each generator
produces the same *structural archetype* at laptop scale:

* :func:`grid_laplacian` — 2-D/3-D finite-difference Poisson stencils, the
  canonical "solid mechanics / flow" sparsity (surrogates for Flan_1565,
  Emilia_923, StocF-1465, ...).
* :func:`vector_stencil` — a ``dof``-vector-per-node stencil producing small
  dense node blocks, as in elasticity problems (audikw_1, Fault_639,
  Queen_4147, Bump_2911 archetypes).
* :func:`anisotropic_laplacian` — stretched stencils giving long thin
  separators (CurlCurl-like electromagnetic problems).
* :func:`kkt_like` — optimisation KKT-system sparsity made SPD by a diagonal
  shift (nlpkkt80 / nlpkkt120 archetype: wide, blocky, very dense factors).
* :func:`random_spd` — random sparse SPD for fuzz/property testing.

All generators return :class:`~repro.sparse.csc.SymmetricCSC` and are
deterministic given their arguments (RNG-based ones take an explicit seed),
so benchmark workloads are reproducible.
"""

from __future__ import annotations

import numpy as np

from .csc import SymmetricCSC

__all__ = [
    "grid_laplacian",
    "vector_stencil",
    "anisotropic_laplacian",
    "kkt_like",
    "random_spd",
    "arrow_matrix",
    "tridiagonal",
    "spd_value_sweep",
]


def _grid_offsets(shape, connectivity):
    """Neighbour offsets for a structured grid.

    ``connectivity='star'`` gives the 5/7-point stencil; ``'box'`` gives the
    full 9/27-point stencil.
    """
    dim = len(shape)
    if connectivity == "star":
        offs = []
        for d in range(dim):
            off = [0] * dim
            off[d] = 1
            offs.append(tuple(off))
        return offs
    if connectivity == "box":
        ranges = [(-1, 0, 1)] * dim
        offs = []
        grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, dim)
        for off in grid:
            t = tuple(int(v) for v in off)
            if t == (0,) * dim:
                continue
            # keep one representative of each +/- pair (symmetric matrix)
            if t > (0,) * dim:
                offs.append(t)
        return offs
    raise ValueError("connectivity must be 'star' or 'box'")


def _stencil_pairs(shape, offsets):
    """Vectorised (i, j) index pairs for all in-grid neighbour offsets."""
    shape = tuple(int(s) for s in shape)
    idx = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    rows, cols = [], []
    for off in offsets:
        src = tuple(
            slice(None, s - o if o > 0 else None) if o >= 0 else slice(-o, None)
            for s, o in zip(shape, off)
        )
        dst = tuple(
            slice(o, None) if o >= 0 else slice(None, s + o)
            for s, o in zip(shape, off)
        )
        a = idx[src].ravel()
        b = idx[dst].ravel()
        rows.append(b)
        cols.append(a)
    return np.concatenate(rows), np.concatenate(cols)


def grid_laplacian(shape, *, connectivity="star", weight=-1.0, shift=0.01):
    """SPD graph Laplacian of a structured grid.

    Parameters
    ----------
    shape:
        Grid extents, e.g. ``(64, 64)`` or ``(16, 16, 16)``.
    connectivity:
        ``'star'`` (5/7-point) or ``'box'`` (9/27-point).
    weight:
        Off-diagonal value (negative for an M-matrix Laplacian).
    shift:
        Added to the diagonal on top of row-sum dominance, guaranteeing
        positive definiteness.
    """
    n = int(np.prod(shape))
    rows, cols = _stencil_pairs(shape, _grid_offsets(shape, connectivity))
    vals = np.full(rows.size, float(weight))
    deg = np.zeros(n)
    np.add.at(deg, rows, np.abs(vals))
    np.add.at(deg, cols, np.abs(vals))
    drows = np.arange(n, dtype=np.int64)
    return SymmetricCSC.from_coo(
        n,
        np.concatenate([rows, drows]),
        np.concatenate([cols, drows]),
        np.concatenate([vals, deg + shift]),
    )


def anisotropic_laplacian(shape, *, weights=None, shift=0.01):
    """Anisotropic star-stencil Laplacian: axis ``d`` uses off-diagonal
    ``-weights[d]``.  Strong/weak coupling directions change separator shapes,
    mimicking the CurlCurl family."""
    dim = len(shape)
    if weights is None:
        weights = [10.0 ** (-d) for d in range(dim)]
    if len(weights) != dim:
        raise ValueError("need one weight per grid dimension")
    n = int(np.prod(shape))
    all_rows, all_cols, all_vals = [], [], []
    for d, w in enumerate(weights):
        off = [0] * dim
        off[d] = 1
        r, c = _stencil_pairs(shape, [tuple(off)])
        all_rows.append(r)
        all_cols.append(c)
        all_vals.append(np.full(r.size, -float(w)))
    rows = np.concatenate(all_rows)
    cols = np.concatenate(all_cols)
    vals = np.concatenate(all_vals)
    deg = np.zeros(n)
    np.add.at(deg, rows, np.abs(vals))
    np.add.at(deg, cols, np.abs(vals))
    drows = np.arange(n, dtype=np.int64)
    return SymmetricCSC.from_coo(
        n,
        np.concatenate([rows, drows]),
        np.concatenate([cols, drows]),
        np.concatenate([vals, deg + shift]),
    )


def vector_stencil(shape, dof, *, connectivity="star", coupling=0.25, shift=0.05,
                   seed=0):
    """Multi-dof-per-node stencil (elasticity archetype).

    Each grid node carries ``dof`` unknowns; neighbouring nodes are coupled by
    a random symmetric ``dof x dof`` block scaled by ``coupling``, and each
    node has an SPD diagonal block.  The resulting matrix has the small dense
    node-block structure that produces the large supernodes typical of
    mechanical problems such as audikw_1 or Queen_4147.
    """
    rng = np.random.default_rng(seed)
    nn = int(np.prod(shape))
    n = nn * dof
    rows_n, cols_n = _stencil_pairs(shape, _grid_offsets(shape, connectivity))
    ne = rows_n.size
    # dense dof x dof blocks per edge, lower storage handled by from_coo mirror
    blk = rng.standard_normal((ne, dof, dof)) * coupling
    er = (rows_n[:, None, None] * dof + np.arange(dof)[None, :, None])
    ec = (cols_n[:, None, None] * dof + np.arange(dof)[None, None, :])
    rows = np.broadcast_to(er, blk.shape).ravel()
    cols = np.broadcast_to(ec, blk.shape).ravel()
    vals = blk.ravel()
    # node-diagonal blocks: identity * (degree dominance + shift)
    deg = np.zeros(n)
    np.add.at(deg, rows, np.abs(vals))
    np.add.at(deg, cols, np.abs(vals))
    # lower triangle of a small random SPD block per node for structure
    dblk = rng.standard_normal((nn, dof, dof)) * 0.1
    dblk = np.tril(dblk, -1)
    dr = (np.arange(nn)[:, None, None] * dof + np.arange(dof)[None, :, None])
    dc = (np.arange(nn)[:, None, None] * dof + np.arange(dof)[None, None, :])
    mask = np.broadcast_to(np.tril(np.ones((dof, dof), dtype=bool), -1),
                           dblk.shape)
    rows2 = np.broadcast_to(dr, dblk.shape)[mask]
    cols2 = np.broadcast_to(dc, dblk.shape)[mask]
    vals2 = dblk[mask]
    deg2 = np.zeros(n)
    np.add.at(deg2, rows2, np.abs(vals2))
    np.add.at(deg2, cols2, np.abs(vals2))
    drows = np.arange(n, dtype=np.int64)
    return SymmetricCSC.from_coo(
        n,
        np.concatenate([rows, rows2, drows]),
        np.concatenate([cols, cols2, drows]),
        np.concatenate([vals, vals2, deg + deg2 + shift]),
    )


def kkt_like(m, k, *, density=0.01, shift=None, seed=0):
    """KKT-structured SPD matrix (nlpkkt archetype).

    Builds the saddle-point pattern ``[[H, J^T], [J, 0]]`` with a sparse
    random Jacobian ``J`` (``k`` rows, ``m`` columns) and tridiagonal SPD
    Hessian ``H``, then shifts the diagonal to make the whole matrix SPD
    (the nlpkkt matrices are similarly "regularised" indefinite KKT systems
    that SuiteSparse lists as SPD test problems).  The factor of this pattern
    is unusually dense — exactly the property that makes nlpkkt120 exceed the
    GPU memory in the paper.
    """
    rng = np.random.default_rng(seed)
    n = m + k
    # tridiagonal Hessian block
    hr = np.arange(1, m, dtype=np.int64)
    hc = hr - 1
    hv = np.full(hr.size, -1.0)
    # sparse Jacobian block J (rows m..n-1, cols 0..m-1)
    nnz_j = max(k, int(density * m * k))
    jr = rng.integers(m, n, size=nnz_j).astype(np.int64)
    jc = rng.integers(0, m, size=nnz_j).astype(np.int64)
    jv = rng.standard_normal(nnz_j)
    rows = np.concatenate([hr, jr])
    cols = np.concatenate([hc, jc])
    vals = np.concatenate([hv, jv])
    deg = np.zeros(n)
    np.add.at(deg, rows, np.abs(vals))
    np.add.at(deg, cols, np.abs(vals))
    if shift is None:
        shift = 0.1
    drows = np.arange(n, dtype=np.int64)
    return SymmetricCSC.from_coo(
        n,
        np.concatenate([rows, drows]),
        np.concatenate([cols, drows]),
        np.concatenate([vals, deg + shift]),
    )


def random_spd(n, *, density=0.05, seed=0, shift=0.1):
    """Random sparse SPD matrix (diagonally dominant), for fuzz testing."""
    rng = np.random.default_rng(seed)
    nnz = max(n, int(density * n * (n - 1) / 2))
    rows = rng.integers(0, n, size=nnz).astype(np.int64)
    cols = rng.integers(0, n, size=nnz).astype(np.int64)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    vals = rng.standard_normal(rows.size)
    deg = np.zeros(n)
    np.add.at(deg, rows, np.abs(vals))
    np.add.at(deg, cols, np.abs(vals))
    drows = np.arange(n, dtype=np.int64)
    return SymmetricCSC.from_coo(
        n,
        np.concatenate([rows, drows]),
        np.concatenate([cols, drows]),
        np.concatenate([vals, deg + shift]),
    )


def arrow_matrix(n, *, bandwidth=1, arrow_width=1, shift=0.1):
    """Banded matrix plus dense last rows/columns ("arrowhead").

    A classic worst case for natural-order fill and a best case for minimum
    degree; used in ordering tests and examples.
    """
    rows, cols = [], []
    for b in range(1, bandwidth + 1):
        r = np.arange(b, n, dtype=np.int64)
        rows.append(r)
        cols.append(r - b)
    for a in range(arrow_width):
        col = n - 1 - a
        r = np.arange(0, col, dtype=np.int64)
        rows.append(np.full(r.size, col, dtype=np.int64))
        cols.append(r)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.full(rows.size, -1.0)
    deg = np.zeros(n)
    np.add.at(deg, rows, np.abs(vals))
    np.add.at(deg, cols, np.abs(vals))
    drows = np.arange(n, dtype=np.int64)
    return SymmetricCSC.from_coo(
        n,
        np.concatenate([rows, drows]),
        np.concatenate([cols, drows]),
        np.concatenate([vals, deg + shift]),
    )


def tridiagonal(n, *, off=-1.0, diag=2.1):
    """SPD tridiagonal matrix (the 1-D Poisson problem, slightly shifted)."""
    rows = np.arange(1, n, dtype=np.int64)
    cols = rows - 1
    vals = np.full(rows.size, float(off))
    drows = np.arange(n, dtype=np.int64)
    return SymmetricCSC.from_coo(
        n,
        np.concatenate([rows, drows]),
        np.concatenate([cols, drows]),
        np.concatenate([vals, np.full(n, float(diag))]),
    )


def spd_value_sweep(A, nbatch, *, seed=0, jitter=0.01):
    """``nbatch`` same-pattern SPD value perturbations of ``A``.

    The batched-serving workload shape (parameter sweeps, time stepping):
    every member jitters the off-diagonal values multiplicatively and bumps
    the diagonal enough to stay safely positive definite.  Returns a list
    of flat data arrays aligned with ``A.data`` (lower-triangle CSC order)
    — exactly what :meth:`repro.api.SymbolicPlan.factorize_batch` consumes.
    Shared by the CLI ``batch`` / ``serve`` commands and the
    ``benchmarks/e2e`` workloads, so they measure the same protocol.
    """
    rng = np.random.default_rng(seed)
    diag_pos = A.indptr[:-1]  # first stored entry of each column = diagonal
    datas = []
    for _ in range(int(nbatch)):
        d = A.data * (1.0 + jitter * rng.random(A.data.size))
        d[diag_pos] += 2.0 * jitter * np.abs(A.data[diag_pos])
        datas.append(d)
    return datas
