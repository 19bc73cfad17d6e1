"""Elimination-tree level schedule for the supernodal triangular solves.

The forward sweep ``L y = b`` has exactly the elimination tree's dependency
structure: supernode ``J`` may solve its diagonal block only after every
*descendant* whose below-diagonal rows reach into ``J``'s columns has
subtracted its contribution, and ``J``'s own GEMV then updates segments of
``y`` owned by ``J``'s ancestors.  Grouping supernodes by tree depth from
the leaves yields the classical *level schedule*: every supernode in level
``ℓ`` depends only on supernodes in levels ``< ℓ``, so whole levels are
independent solve tasks (the backward sweep runs the same schedule in
reverse).  The number of levels is the height of the supernodal elimination
tree; the width of each level bounds the exploitable task parallelism.

:func:`solve_schedule` computes everything the parallel sweeps need —
levels, per-supernode update *runs* (which ancestor owns which slice of the
below rows) and both dependency directions — once per pattern, memoised on
:meth:`SymbolicFactor.cache() <repro.symbolic.structure.SymbolicFactor.cache>`
like the factorization task-DAG plans, so repeated solves (many right-hand
sides, streaming serving) do no structural work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolveSchedule", "solve_schedule", "solve_levels", "solve_shapes"]


def solve_levels(symb):
    """Level of every supernode in the supernodal elimination tree.

    ``level[s] = 0`` for leaves, otherwise ``1 + max(level of children)`` —
    the earliest forward-solve round in which ``s`` can run.  One ascending
    pass suffices because the analyzed system is postordered (children
    precede parents).
    """
    level = np.zeros(symb.nsup, dtype=np.int64)
    parent = symb.sn_parent
    for s in range(symb.nsup):
        p = parent[s]
        if p >= 0:
            level[p] = max(level[p], level[s] + 1)
    return level


@dataclass(frozen=True)
class SolveSchedule:
    """Pattern-only schedule of the level-scheduled triangular solves.

    Attributes
    ----------
    level:
        Forward level per supernode (leaves = 0); the backward sweep uses
        the same levels in descending order.
    level_ptr / level_nodes:
        CSR grouping of supernodes by level: level ``ℓ`` holds
        ``level_nodes[level_ptr[ℓ]:level_ptr[ℓ+1]]`` (ascending supernode
        ids, the serial sweep order within a level).
    runs:
        Per supernode ``s``, a tuple of ``(owner, lo, hi)`` triples: slice
        ``lo:hi`` of ``s``'s below-diagonal row list is owned by ancestor
        supernode ``owner`` (rows are sorted, so owners form contiguous
        runs).  These are the forward sweep's scatter targets and the
        backward sweep's read dependencies.
    fwd_expected:
        ``{target: {source: 1}}`` — the forward sweep's ordered-commit
        contract (one update run per (source, target) pair), same shape as
        the factorization DAG plans consume.
    fwd_roots:
        Supernodes with no incoming forward updates (initially ready).
    fwd_static / bwd_static / fused_static:
        The same contracts pre-finalized for
        :meth:`OrderedCommitter.from_static
        <repro.numeric.executor.OrderedCommitter.from_static>`: tuples of
        ``(target, ascending source order, expected counts)``.  Sorting
        and dict-building happen once per pattern, so per-solve committer
        construction is a thin per-run-counter wrapper — this keeps
        repeated solves (many-RHS serving) off the graph-build cost.
        ``fused_static`` is the *combined* full-solve graph's backward
        half: backward task ``s`` (id ``nsup + s``) waits for its own
        forward task (source ``-1``) plus its ancestors' backward tasks,
        so one task graph runs both sweeps on one pool, overlapping the
        backward leaves with the forward root.
    bwd_dependents:
        ``{ancestor: (dependents...)}`` — supernodes whose backward task
        becomes ready once ``ancestor``'s segment of ``x`` is final.
    bwd_roots:
        Supernodes with no below-diagonal rows (tree roots; initially ready
        in the backward sweep).
    """

    level: np.ndarray
    level_ptr: np.ndarray
    level_nodes: np.ndarray
    runs: tuple
    fwd_expected: dict
    fwd_roots: tuple
    fwd_static: tuple
    bwd_dependents: dict
    bwd_roots: tuple
    bwd_static: tuple
    fused_static: tuple

    @property
    def nlevels(self):
        """Height of the schedule (number of solve rounds per sweep)."""
        return int(self.level_ptr.size - 1)

    def level_supernodes(self, lev):
        """Supernodes of level ``lev`` (ascending ids)."""
        return self.level_nodes[self.level_ptr[lev]:self.level_ptr[lev + 1]]

    def level_widths(self):
        """Supernodes per level — the task-parallelism profile."""
        return np.diff(self.level_ptr)

    @property
    def max_width(self):
        """Widest level: the peak number of independent solve tasks."""
        return int(self.level_widths().max())

    @property
    def avg_width(self):
        """Mean level width — the average exploitable parallelism."""
        return float(self.level.size / self.nlevels)


def _below_runs(symb, s):
    """Contiguous same-owner runs of ``s``'s below-diagonal rows."""
    below = symb.snode_below_rows(s)
    if not below.size:
        return ()
    owners = symb.col2sn[below]
    cuts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [owners.size]))
    return tuple(
        (int(owners[bounds[i]]), int(bounds[i]), int(bounds[i + 1]))
        for i in range(bounds.size - 1)
    )


def solve_shapes(symb):
    """Per supernode ``(first, last, w, below)`` — column range and width as
    plain ints, below-diagonal row indices — memoised on the symbolic cache:
    the pattern-static half of
    :meth:`~repro.numeric.storage.FactorStorage.solve_program`."""
    cache = symb.cache()
    shapes = cache.get("solve_shapes")
    if shapes is None:
        snptr = symb.snptr.tolist()
        shapes = cache["solve_shapes"] = tuple(
            (snptr[s], snptr[s + 1], snptr[s + 1] - snptr[s],
             symb.snode_below_rows(s))
            for s in range(symb.nsup)
        )
    return shapes


def solve_schedule(symb):
    """The :class:`SolveSchedule` of ``symb``, memoised on its cache."""
    cache = symb.cache()
    sched = cache.get("solve_schedule")
    if sched is not None:
        return sched
    nsup = symb.nsup
    level = solve_levels(symb)
    nlevels = int(level.max()) + 1 if nsup else 0
    level_ptr = np.zeros(nlevels + 1, dtype=np.int64)
    np.add.at(level_ptr, level + 1, 1)
    np.cumsum(level_ptr, out=level_ptr)
    # stable ascending-id order within each level (the serial sweep order)
    level_nodes = np.argsort(level, kind="stable").astype(np.int64)

    runs = tuple(_below_runs(symb, s) for s in range(nsup))
    fwd_expected = {}
    bwd_dependents = {}
    for s in range(nsup):
        for p, _, _ in runs[s]:
            fwd_expected.setdefault(p, {})[s] = 1
            bwd_dependents.setdefault(p, []).append(s)
    fwd_roots = tuple(s for s in range(nsup) if s not in fwd_expected)
    bwd_roots = tuple(s for s in range(nsup) if not runs[s])
    # pre-finalized OrderedCommitter contracts (ascending-source order;
    # sources/owners of sorted runs are naturally ascending already)
    fwd_static = tuple(
        (target, tuple(sorted(sources)), sources)
        for target, sources in fwd_expected.items()
    )
    bwd_static = tuple(
        (s, tuple(p for p, _, _ in runs[s]), {p: 1 for p, _, _ in runs[s]})
        for s in range(nsup) if runs[s]
    )
    # fused full-solve graph: backward task s (id nsup + s) additionally
    # waits for its own forward task, encoded as pseudo-source -1 (sorts
    # before every real supernode id; commit order is irrelevant — the
    # backward dependencies are no-op closures)
    fused_static = tuple(
        (nsup + s,
         (-1,) + tuple(p for p, _, _ in runs[s]),
         {-1: 1, **{p: 1 for p, _, _ in runs[s]}})
        for s in range(nsup)
    )
    sched = SolveSchedule(
        level=level,
        level_ptr=level_ptr,
        level_nodes=level_nodes,
        runs=runs,
        fwd_expected=fwd_expected,
        fwd_roots=fwd_roots,
        fwd_static=fwd_static,
        bwd_dependents={p: tuple(d) for p, d in bwd_dependents.items()},
        bwd_roots=bwd_roots,
        bwd_static=bwd_static,
        fused_static=fused_static,
    )
    cache["solve_schedule"] = sched
    return sched
