"""The update-vs-refactorize crossover: modeled cost of both roads.

A rank-k up/downdate sweeps each rank's elimination-tree path one
supernode segment at a time (:mod:`repro.numeric.updown`): a per-(rank,
path supernode) overhead plus ``~6`` flops per touched factor entry per
rank at an effective sweep rate — while a refactorize replays the whole
task DAG at BLAS-3 throughput (the graded-dilation machine model of
:mod:`repro.gpu.costmodel` prices that road).  Short elimination-tree
paths make the update a few panels of work against the full factor's
cubic flops; as the rank grows, or the entry columns sink toward the
bottom of the tree, ``k ×`` path cost overtakes the one-off DAG replay
and the crossover flips.  :func:`update_cost` prices both sides for a
concrete ``W`` pattern so :meth:`repro.api.Factor.apply` can pick the
winner automatically — and reports when the no-new-fill containment check
fails, where refactorize is the only sound road regardless of cost.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["UpdateCost", "UpdateCostModel", "update_cost", "DEFAULT_UPDATE_MODEL"]

# flops per touched factor entry per rank, counted as the GGMS rotation's
# (rewrite the column: 3, carry w forward: 3); the blocked sweep spends them
# as GEMMs, and ``sweep_gflops`` is the fitted rate of this count
_FLOPS_PER_ENTRY = 6.0


@dataclass(frozen=True)
class UpdateCostModel:
    """Throughput/overhead constants pricing the two roads.

    The sweep: an overhead per (rank, path supernode) segment plus the
    rotation flops at an effective rate, both fitted by
    ``benchmarks/fit_update_model.py`` to the measured ``Factor.update``
    on the four benchmark primaries, less the gather and plan of ``W``
    that :meth:`repro.api.Factor.apply` pays before it picks a road.  The
    refactorize road: the factor's flops at a BLAS-3 rate plus a
    per-supernode scheduling/assembly overhead.
    """

    sweep_gflops: float = 0.8
    segment_overhead_s: float = 4.5e-5
    refactorize_gflops: float = 10.0
    snode_overhead_s: float = 6.0e-6

    def update_seconds(self, flops, segments):
        """Modeled seconds for a path sweep of ``flops`` total rotation
        flops issued as ``segments`` (rank, path supernode) kernel calls."""
        return segments * self.segment_overhead_s + flops / (self.sweep_gflops * 1e9)

    def refactorize_seconds(self, flops, nsup):
        """Modeled seconds for replaying the full factorization DAG."""
        return nsup * self.snode_overhead_s + flops / (
            self.refactorize_gflops * 1e9
        )


DEFAULT_UPDATE_MODEL = UpdateCostModel()


@dataclass(frozen=True)
class UpdateCost:
    """Both roads priced for one concrete modification pattern.

    ``recommended`` is what ``policy="auto"`` will do: ``"update"`` when
    the modeled path sweep beats the modeled refactorize *and* the
    modification creates no new fill, else ``"refactorize"``.
    """

    rank: int
    path_cols: int
    path_snodes: int
    update_flops: float
    refactorize_flops: float
    update_seconds: float
    refactorize_seconds: float
    contained: bool
    recommended: str

    @property
    def modeled_speedup(self):
        """Modeled refactorize-over-update ratio (>1 favors the update)."""
        if self.update_seconds == 0.0:
            return float("inf")
        return self.refactorize_seconds / self.update_seconds


def _column_entries(symb, path):
    """Touched factor entries (diagonal included) per path column,
    vectorized per supernode: column ``first + i`` of a supernode with
    ``nrows`` panel rows owns ``nrows - i`` entries."""
    snodes = symb.col2sn[path]
    first = symb.snptr[snodes]
    nrows = symb.rowptr[snodes + 1] - symb.rowptr[snodes]
    return nrows - (path - first)


def update_cost(symb, mod, *, model=None):
    """Price update vs refactorize for one planned modification.

    Parameters
    ----------
    symb:
        The :class:`~repro.symbolic.structure.SymbolicFactor`.
    mod:
        The modification's plan on ``symb``
        (:func:`repro.numeric.updown._modification_plan`): its per-rank
        paths, merged union, touched supernodes and containment verdict
        are priced as they stand — nothing is derived from ``W`` here.
    model:
        :class:`UpdateCostModel` constants (default
        :data:`DEFAULT_UPDATE_MODEL`).

    Returns
    -------
    :class:`UpdateCost`
    """
    model = model or DEFAULT_UPDATE_MODEL
    # each rank sweeps its own root-to-tree-root path; price them
    # individually (the union alone would overprice disjoint short paths)
    update_flops = 0.0
    segments = 0
    for path, path_segments in zip(mod.paths, mod.segments):
        update_flops += _FLOPS_PER_ENTRY * float(_column_entries(symb, path).sum())
        segments += len(path_segments)
    refz_flops = float(symb.factor_flops())
    up_s = model.update_seconds(update_flops, segments)
    refz_s = model.refactorize_seconds(refz_flops, symb.nsup)
    contained = mod.uncontained is None
    return UpdateCost(
        rank=len(mod.roots),
        path_cols=int(mod.union.size),
        path_snodes=len(mod.snodes),
        update_flops=update_flops,
        refactorize_flops=refz_flops,
        update_seconds=up_s,
        refactorize_seconds=refz_s,
        contained=contained,
        recommended="update" if (contained and up_s <= refz_s) else "refactorize",
    )
