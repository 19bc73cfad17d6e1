"""The four named workloads and their seeded inputs.

A workload is one set of inputs to the same measured program (``bench.py``):

* a **primary** pattern — the direct, time-stepping requests
  (``plan.factorize(values).solve(b)`` on every engine, block solve, rank-2
  update) run on it with the plan built once in set-up;
* six **served** patterns — cold requests (fingerprint → plan → factorize →
  solve on a fresh pattern) and the closed-loop gateway traffic run on them;
* the gateway's cache **capacity** and the **popularity** of the served
  patterns, i.e. how much of the traffic the plan cache can absorb.

Patterns and the gateway's pick sequence are fixed; ``--seed`` drives
values, right-hand sides and update vectors.  Sizes are what fits the
driver's budget of about half a minute per run on a 2-core box (the whole
request path of every workload, set up three times, then measured).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.sparse import (
    SymmetricCSC,
    grid_laplacian,
    kkt_like,
    random_spd,
    spd_value_sweep,
    vector_stencil,
)
from repro.update import structured_update

#: value sets per pattern (time steps revisited round-robin)
NVALUES = 4
#: gateway traffic comes in blocks of this many picks, every block the same
#: sequence, so every block — and every throughput sample — has the same
#: composition
BLOCK = 12
#: every fourth pick of a block is an update slot: a pick there to a pattern
#: the cache holds is a rank-2 update instead of a plain request
UPDATE_EVERY = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    primary: tuple          # (builder, args, kwargs) full size
    served: tuple           # six of the same
    smoke_primary: tuple
    smoke_served: tuple
    capacity: int           # gateway plan-cache capacity
    zipf: float             # popularity exponent over the served patterns


def _p(fn, *args, **kwargs):
    return (fn, args, kwargs)


def _mixed(scale):
    """Six pattern families at gateway scale (n ≈ 400-600 when ``scale`` is
    1): 2-D 5- and 9-point grids, 3-D 7-point grid, 3-dof vector stencil,
    KKT-like saddle point, random sparse."""
    s = scale
    return (
        _p(grid_laplacian, (int(24 * s), int(24 * s))),
        _p(grid_laplacian, (int(20 * s), int(20 * s)), connectivity="box"),
        _p(grid_laplacian, (int(8 * s),) * 3),
        _p(vector_stencil, (int(5 * s), int(5 * s), int(6 * s)), 3),
        _p(kkt_like, int(450 * s * s), int(100 * s * s), density=0.01 / (s * s)),
        _p(random_spd, int(500 * s * s), density=0.006 / (s * s)),
    )


_SMOKE_MIXED = _mixed(0.5)

WORKLOADS = (
    Workload(
        name="refactor_vec3d",
        why="4-dof 27-point 3-D stencil, 32 supernodes up to 748 columns wide: "
            "the dense kernels do the largest share of a request of the four, "
            "so a BLAS-side win shows here first",
        primary=_p(vector_stencil, (10, 10, 10), 4, connectivity="box"),
        served=tuple(_p(vector_stencil, s, 3) for s in
                     ((5, 5, 5), (5, 5, 6), (5, 6, 6), (6, 6, 6), (5, 5, 7), (5, 6, 7))),
        smoke_primary=_p(vector_stencil, (4, 4, 4), 4, connectivity="box"),
        smoke_served=tuple(_p(vector_stencil, s, 3) for s in
                           ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 4), (2, 3, 4))),
        capacity=5, zipf=1.1,
    ),
    Workload(
        name="refactor_grid2d",
        why="2-D 5-point grid, 957 narrow supernodes: per-supernode Python, "
            "index assembly and per-task overhead dominate and solve costs as "
            "much as factorize; a BLAS-side win should not move it",
        primary=_p(grid_laplacian, (64, 64)),
        served=tuple(_p(grid_laplacian, s) for s in
                     ((20, 20), (20, 24), (24, 24), (22, 26), (24, 28), (26, 26))),
        smoke_primary=_p(grid_laplacian, (12, 12)),
        smoke_served=tuple(_p(grid_laplacian, s) for s in
                           ((5, 5), (5, 6), (6, 6), (5, 7), (6, 7), (7, 7))),
        capacity=5, zipf=1.1,
    ),
    Workload(
        name="cold_mix",
        why="six pattern families, uniform popularity, plan cache of four: 7 of "
            "every 12 gateway requests miss and pay ordering and symbolic "
            "analysis, so the cache is mostly bypassed",
        primary=_p(kkt_like, 1800, 400, density=0.003),
        served=_mixed(1.0),
        smoke_primary=_p(kkt_like, 120, 30, density=0.05),
        smoke_served=_SMOKE_MIXED,
        capacity=4, zipf=0.0,
    ),
    Workload(
        name="gateway_zipf",
        why="the same six families, Zipf-1.1 popularity, plan cache of five: 9 of "
            "every 12 gateway requests hit a warm plan and run through the session "
            "and the threaded fine executor; evictions still recur",
        primary=_p(grid_laplacian, (13, 13, 13)),
        served=_mixed(1.0),
        smoke_primary=_p(grid_laplacian, (5, 5, 5)),
        smoke_served=_SMOKE_MIXED,
        capacity=5, zipf=1.1,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def build(spec):
    fn, args, kwargs = spec
    return fn(*args, **kwargs)


def fresh(A, data=None):
    """A new matrix object with ``A``'s pattern (and ``data``): nothing a
    previous request cached on the object — matvec plan, structure identity
    — is visible to the next one."""
    return SymmetricCSC(A.n, A.indptr.copy(), A.indices.copy(),
                        (A.data if data is None else data).copy(), check=False)


@dataclass
class PatternInputs:
    """Seeded inputs of one pattern."""
    A: SymmetricCSC
    values: list            # NVALUES flat data arrays
    b: np.ndarray
    seed: int

    def full(self, k):
        """Value set ``k`` as a full symmetric ``scipy.sparse`` matrix: the
        checks multiply with it, not with the program's own matvec."""
        A = self.A
        lower = sp.csc_matrix((self.values[k], A.indices, A.indptr), shape=(A.n, A.n))
        return (lower + sp.tril(lower, -1).T).tocsr()

    def update_vectors(self, plan):
        """Rank-2 modification inside the factor's structure (no new fill),
        entering the elimination tree at fixed columns so the path length —
        and with it the update's cost — does not depend on the seed."""
        n = plan.n
        return structured_update(plan.symb, plan.perm, [n // 2, (3 * n) // 4],
                                 seed=self.seed)


def pattern_inputs(spec, seed):
    A = build(spec)
    rng = np.random.default_rng(seed)
    return PatternInputs(A=A, values=spd_value_sweep(A, NVALUES, seed=seed),
                         b=rng.standard_normal(A.n), seed=seed)


def popularity_counts(npatterns, zipf):
    """Requests per pattern in one block of :data:`BLOCK`: Zipf weights
    ``1 / rank**zipf`` rounded by largest remainder, every pattern at least
    once."""
    w = 1.0 / np.arange(1, npatterns + 1) ** zipf
    share = w / w.sum() * (BLOCK - npatterns)
    counts = np.floor(share).astype(int)
    for i in np.argsort(-(share - counts), kind="stable")[:BLOCK - npatterns - counts.sum()]:
        counts[i] += 1
    return counts + 1


def block_picks(npatterns, zipf):
    """One period of the gateway request sequence: a fixed shuffle of the
    :func:`popularity_counts` multiset.  It belongs to the workload, not to
    the run: every gateway block replays it, which puts the plan cache in
    the same state at the start of every block, so each block is the same
    hits, misses and updates and the blocks' durations are samples of one
    quantity — whatever the seed."""
    block = np.repeat(np.arange(npatterns), popularity_counts(npatterns, zipf))
    return np.random.default_rng(npatterns).permutation(block)
