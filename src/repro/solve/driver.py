"""Legacy high-level solver driver — now a facade over the staged API.

.. deprecated::
    ``CholeskySolver`` remains fully supported for existing code, but new
    code should use the staged ``plan → Factor`` pipeline of
    :mod:`repro.api` — explicit, immutable stage objects that also unlock
    batched same-pattern serving (see ``docs/api.md`` for the old→new
    migration table)::

        plan = repro.plan(A)                        # symbolic, once
        factor = plan.factorize(engine="rl_gpu")    # numeric
        x = factor.solve(b)
        batch = plan.factorize_batch(values_list, engine="rlb_par")

``CholeskySolver`` bundles the whole pipeline — symbolic analysis
(ordering, merging, refinement), numeric factorization by any of the
paper's engines, and permutation-aware triangular solves::

    from repro import CholeskySolver
    solver = CholeskySolver(A, method="rl_gpu")
    solver.factorize()
    x = solver.solve(b)

Engines come from the unified registry
(:mod:`repro.numeric.registry`): ``"rl"``, ``"rlb"`` (CPU); ``"rl_par"``,
``"rlb_par"`` (the threaded task-DAG runtime of
:mod:`repro.numeric.executor` at coarse / fine granularity — pass
``factor_kwargs={"workers": N}``); ``"rl_gpu"``, ``"rlb_gpu_v1"``,
``"rlb_gpu_v2"``, ``"multifrontal_gpu"`` (simulated-GPU offload);
``"left_looking"``, ``"multifrontal"`` (baselines).  The parallel engines
produce bit-identical factors for any worker count (deterministic commit
ordering).

When the matrix changes *numerically* but not *structurally* — parameter
sweeps, time stepping, re-weighted least squares — use the symbolic-reuse
API instead of building a new solver::

    solver.factorize()                  # symbolic + numeric, once
    for A_t in matrices_with_same_pattern:
        solver.refactorize(A_t.data)    # numeric only: no ordering, no
        x = solver.solve(b)             # symbolic analysis, no index work

``refactorize`` pushes the new values through the cached permutation gather
and the cached panel :class:`~repro.numeric.storage.ScatterPlan`, so the
per-iteration cost is the dense BLAS work alone.  (For *throughput* over a
whole batch of same-pattern matrices, prefer
:meth:`repro.api.SymbolicPlan.factorize_batch`, which overlaps the
factorizations on one worker pool instead of running them back to back.)
"""

from __future__ import annotations

import warnings

from ..numeric.registry import ENGINES, engine_names
from ..sparse.csc import SymmetricCSC
from .refine import relative_residual

__all__ = ["CholeskySolver"]


class CholeskySolver:
    """Sparse SPD direct solver with a choice of factorization engine.

    A thin stateful facade over the staged objects of :mod:`repro.api`:
    :meth:`analyze` builds a :class:`~repro.api.SymbolicPlan`,
    :meth:`factorize` asks it for a :class:`~repro.api.Factor`, and the
    mutating methods (:meth:`update_values` / :meth:`refactorize`) swap
    same-pattern values into the plan.  Kept for backwards compatibility;
    see the module docstring for the migration path.

    Parameters
    ----------
    A:
        :class:`~repro.sparse.csc.SymmetricCSC` (or anything
        ``SymmetricCSC.from_scipy`` accepts via the ``from_any`` helper).
    method:
        Factorization engine (see
        :data:`repro.numeric.registry.ENGINES`).
    analyze_kwargs:
        Options forwarded to :func:`repro.symbolic.analyze` (ordering,
        merge/refine toggles, growth cap, ...).
    factor_kwargs:
        Options forwarded to the engine (machine model, GPU threshold,
        device memory, ...).
    """

    def __init__(self, A, *, method="rl", analyze_kwargs=None,
                 factor_kwargs=None):
        warnings.warn(
            "CholeskySolver is deprecated; use the staged pipeline — "
            "plan = repro.plan(A); factor = plan.factorize(...); "
            "x = factor.solve(b) — see docs/api.md for the migration "
            "table. Behavior is unchanged.",
            DeprecationWarning, stacklevel=2,
        )
        if method not in ENGINES:
            raise ValueError(
                f"unknown method {method!r}; choose from {engine_names()}"
            )
        self.A = A
        self.method = method
        self._analyze_kwargs = dict(analyze_kwargs or {})
        self._factor_kwargs = dict(factor_kwargs or {})
        self.system = None
        self.result = None
        self._plan = None
        self._factor = None

    # ------------------------------------------------------------------
    def analyze(self):
        """Run (or re-run) the symbolic pipeline; returns the
        :class:`~repro.symbolic.analyze.AnalyzedSystem`."""
        from ..api import SymbolicPlan
        from ..symbolic.analyze import analyze

        self._plan = SymbolicPlan(self.A, analyze(self.A,
                                                  **self._analyze_kwargs))
        self.system = self._plan.system
        return self.system

    def factorize(self):
        """Numeric factorization; returns the
        :class:`~repro.numeric.result.FactorizeResult`."""
        if self.system is None:
            self.analyze()
        self._factor = self._plan.factorize(engine=self.method,
                                            **self._factor_kwargs)
        self.result = self._factor.result
        return self.result

    @property
    def factor(self):
        """The current :class:`~repro.api.Factor` (``None`` before
        :meth:`factorize` / after :meth:`update_values`) — the staged-API
        object behind :attr:`result`."""
        return self._factor

    # ------------------------------------------------------------------
    # symbolic-reuse API
    # ------------------------------------------------------------------
    def update_values(self, values):
        """Replace ``A``'s numeric values, keeping its sparsity pattern.

        ``values`` is either a :class:`~repro.sparse.csc.SymmetricCSC` with
        exactly ``A``'s pattern or a flat array of length ``A.nnz_lower``
        aligned with ``A.data`` (lower-triangle CSC order).  The permuted
        system matrix is updated through a cached data gather — no
        reordering, no structural work — and any stale factorization result
        is dropped.  Raises ``ValueError`` on a pattern mismatch.
        """
        from ..api import same_pattern_values

        A = self.A
        new_data = same_pattern_values(
            A, values, hint="build a fresh CholeskySolver instead")
        new_A = SymmetricCSC(A.n, A.indptr, A.indices, new_data,
                             check=False)
        new_A._mv_plan = A._mv_plan  # structure unchanged: keep matvec cache
        self.A = new_A
        if self.system is not None:
            M = self.system.matrix
            # reuse M's structure arrays so the cached ScatterPlan still
            # matches by identity; the plan owns the one gather cache
            new_M = SymmetricCSC(
                M.n, M.indptr, M.indices, new_data[self._plan.gather],
                check=False,
            )
            new_M._mv_plan = M._mv_plan
            self._plan._install_values(new_A, new_M)
        self.result = None
        self._factor = None
        return self

    def refactorize(self, values=None):
        """Numeric re-factorization reusing all symbolic work.

        Optionally installs ``values`` first (see :meth:`update_values`),
        then re-runs the engine against the existing symbolic factorization.
        The ordering, supernode structure, relative-index caches and panel
        scatter plan are all reused, so a same-pattern refactorize costs only
        the numeric kernels.  Returns the new
        :class:`~repro.numeric.result.FactorizeResult`.
        """
        if values is not None:
            self.update_values(values)
        return self.factorize()

    # ------------------------------------------------------------------
    def solve(self, b):
        """Solve ``A x = b`` (factorizing first if needed); ``b`` may be a
        single ``(n,)`` vector or an ``(n, k)`` block of right-hand sides."""
        if self.result is None:
            self.factorize()
        return self._factor.solve(b)

    def residual_norm(self, x, b):
        """Relative residual ``||b - A x|| / ||b||`` (infinity norm; for
        block right-hand sides the max of the *per-column* relative
        residuals, so differently scaled columns are judged separately)."""
        return relative_residual(self.A, x, b)
