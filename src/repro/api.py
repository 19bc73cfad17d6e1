"""Staged ``plan → Factor`` pipeline API.

The paper's pipeline is inherently staged: one *symbolic* analysis
(ordering, supernodes, relative indices — pattern-only work) is amortized
over many *numeric* factorizations, each of which serves many solves.  This
module exposes those stages as explicit, immutable objects::

    import repro

    plan = repro.plan(A)                       # symbolic work, once
    factor = plan.factorize(engine="rlb_par")  # numeric work
    x = factor.solve(b)                        # triangular solves

    for values_t in value_stream:              # same pattern, new values
        f_t = plan.factorize(values_t)         # numeric kernels only
        x_t = f_t.solve(b)

A closed batch of same-pattern values is that loop, one ``factorize``
per value set, returning the list of factors (and naming the failing
position)::

    factors = plan.factorize_batch(values_list, engine="rl")
    xs = [f.solve(b) for f in factors]         # one solution per matrix

The *solve* side is staged the same way.  ``plan.solve_plan()`` exposes the
pattern-only elimination-tree level schedule as a :class:`SolvePlan`;
``factor.solve(b, workers=N)`` executes the level-scheduled forward/backward
sweeps on the task-graph runtime (bit-identical to the serial sweeps for
every worker count).  And when same-pattern requests *overlap* — arriving
one at a time from concurrent clients — :meth:`SymbolicPlan.serve` opens a
streaming :class:`ServingSession`: one persistent worker pool that drains
every in-flight request, ``submit``/``submit_solve`` returning futures —
on any registered engine::

    with plan.serve(engine="rlb_par", workers=4) as session:
        futures = [session.submit_solve(vals, b) for vals in value_stream]
        xs = [f.result() for f in futures]     # per-matrix solutions

Separation of concerns:

:class:`SymbolicPlan`
    Owns the pattern-only state: the analyzed system, the permutation
    data-gather, the panel scatter plan and (lazily, per engine) the
    relative-index caches and task DAGs.  Stateless with respect to values —
    calling ``factorize`` never mutates the plan's numeric inputs.
:class:`Factor`
    One immutable numeric factorization: ``solve``, ``solve_refined``,
    ``logdet``, ``diag``, ``residual_norm``.  A new set of values makes a
    new ``Factor``; nothing is re-analyzed and nothing is invalidated
    behind your back.

Which engine a request runs, and which keyword arguments that engine
takes, is decided in one place — :func:`repro.numeric.registry.resolve` —
so every entry point below rejects the same requests with the same
``ValueError``.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import Future

import numpy as np

from .dense.kernels import (
    NonFiniteValuesError,
    NotPositiveDefiniteError,
    check_finite,
    check_real,
)
from .numeric.executor import (
    StreamPool,
    _resolve_workers,
    _task_label_fn,
    _traced_run,
    dag_plan,
    stream_factorize_job,
)
from .numeric.registry import resolve, serial_twin
from .numeric.storage import FactorStorage, ScatterPlan
from .numeric.updown import _modification_plan, _run_atomic
from .solve.refine import _RefinementChain, _check_refinement, refine, relative_residual
from .solve.triangular import check_rhs, solve_graph, solve_in_place
from .sparse.csc import SymmetricCSC
from .sparse.permute import permutation_gather
from .symbolic.analyze import analyze
from .symbolic.levels import leaf_block, solve_schedule
from .symbolic.structure import pattern_digest
from .numeric.threshold import DEFAULT_STALL_RATIO
from .update.crossover import update_cost as _modeled_update_cost
from .update.matrix import UpdatedMatrix

__all__ = ["plan", "SymbolicPlan", "SolvePlan", "Factor", "ServingSession",
           "same_pattern_values", "PatternMismatchError"]


class PatternMismatchError(ValueError):
    """``values`` do not have the pattern host's sparsity pattern
    (:func:`same_pattern_values`).  The one failure a new symbolic analysis
    cures — :meth:`Factor.apply` re-plans on this and on nothing else."""


def same_pattern_values(A, values):
    """Validate same-pattern ``values`` against the pattern host ``A``.

    ``values`` is ``None`` (use ``A``'s own values), a flat array aligned
    with ``A.data`` (lower-triangle CSC order), or a full same-pattern
    :class:`~repro.sparse.csc.SymmetricCSC`; returns the flat float64 data
    array.  Raises :class:`PatternMismatchError` (a ``ValueError``) on a
    pattern or shape mismatch — the one definition of "same pattern" — and
    :class:`~repro.dense.kernels.UnsupportedDtypeError` on complex values.
    """
    if values is None:
        return A.data
    if isinstance(values, SymmetricCSC):
        if (values.n != A.n
                or not np.array_equal(values.indptr, A.indptr)
                or not np.array_equal(values.indices, A.indices)):
            raise PatternMismatchError(
                "matrix does not share the sparsity pattern; "
                "build a new plan with repro.plan(...)"
            )
        return values.data
    data = np.ascontiguousarray(check_real(values, "values"), dtype=np.float64)
    if data.shape != A.data.shape:
        raise PatternMismatchError(
            f"values must have shape {A.data.shape} "
            "(one value per stored lower-triangle entry)"
        )
    return data


def plan(A, *, ordering="nd", **analyze_kwargs):
    """Run the symbolic pipeline on ``A``; returns a :class:`SymbolicPlan`.

    ``A`` is a :class:`~repro.sparse.csc.SymmetricCSC`; ``ordering`` and
    any extra keyword arguments are forwarded to
    :func:`repro.symbolic.analyze` (merge/refine toggles, growth cap, ...).
    Everything computed here depends only on ``A``'s sparsity pattern, so
    one plan serves every same-pattern matrix.
    """
    # fail loudly for pre-1.2 callers of the *memory* planner, which used
    # to own the top-level name: repro.plan(symb, device_memory=...)
    if "device_memory" in analyze_kwargs or not hasattr(A, "data"):
        raise TypeError(
            "repro.plan(A, ...) is the staged-pipeline entry point since "
            "v1.2 and takes a SymmetricCSC; the device-memory planner "
            "moved to repro.memory_plan(symb, device_memory=...)"
        )
    system = analyze(A, ordering=ordering, **analyze_kwargs)
    return SymbolicPlan(A, system)


class SymbolicPlan:
    """Reusable symbolic stage: pattern-only analysis plus every cache the
    numeric engines need (permutation gather, panel scatter plan,
    relative-index runs, block lists, task-DAG plans).

    Build with :func:`plan`.  The plan treats the matrix it was built from
    as the *pattern host*; any same-pattern values (a flat array aligned
    with ``A.data`` or a full same-pattern ``SymmetricCSC``) can then be
    pushed through :meth:`factorize` / :meth:`factorize_batch` without any
    structural work.
    """

    def __init__(self, A, system):
        self._A = A
        self._system = system
        self._gather = None  # values → permuted values; computed on demand
        self._fingerprint = None
        # pre-warm the panel scatter plan so every factorize is index-free
        ScatterPlan.get(system.symb, system.matrix)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def system(self):
        """The underlying :class:`~repro.symbolic.analyze.AnalyzedSystem`."""
        return self._system

    @property
    def symb(self):
        """The supernodal symbolic factorization."""
        return self._system.symb

    @property
    def perm(self):
        """Composed fill-reducing permutation (original index at slot k)."""
        return self._system.perm

    @property
    def matrix(self):
        """The pattern-host matrix the plan was built from (original
        ordering, original values)."""
        return self._A

    @property
    def n(self):
        return self._system.symb.n

    @property
    def nsup(self):
        return self._system.symb.nsup

    @property
    def gather(self):
        """Data-gather index: ``permuted.data == original.data[gather]``
        (pattern-only; computed once on first use)."""
        if self._gather is None:
            self._gather = permutation_gather(self._A, self._system.perm)
        return self._gather

    @property
    def fingerprint(self):
        """Stable hash of the plan's *permuted* pattern — 16 hex chars.

        Covers the composed fill-reducing permutation and the permuted
        ``indptr``/``indices`` arrays, so two plans share a fingerprint
        exactly when they would produce interchangeable factorizations:
        same input pattern *and* same ordering decisions.  Stable across
        processes (SHA-256 over the ``int64`` index bytes, not ``hash()``),
        which is what lets a serving gateway key its warm-plan cache on it.

        Related: :func:`repro.pattern_fingerprint` hashes the *raw*
        (unpermuted) pattern of a matrix — computable without running
        symbolic analysis, hence the request key of
        :class:`repro.serving.Gateway`.
        """
        if self._fingerprint is None:
            B = self._system.matrix
            self._fingerprint = pattern_digest(
                B.n, self._system.perm, B.indptr, B.indices)
        return self._fingerprint

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"SymbolicPlan(n={self.n}, nsup={self.nsup}, "
                f"factor_nnz={self.symb.factor_nnz_dense()})")

    # ------------------------------------------------------------------
    # values plumbing
    # ------------------------------------------------------------------
    def _values_of(self, values):
        """Validate same-pattern ``values`` (flat data array or full
        ``SymmetricCSC``); returns the flat data in ``A.data`` order.
        Every numeric door funnels through here, so this is also where
        NaN/Inf values are refused
        (:class:`~repro.dense.kernels.NonFiniteValuesError`)."""
        return check_finite(same_pattern_values(self._A, values), "values")

    def _original_matrix(self, data):
        """Same-pattern ``SymmetricCSC`` in the original ordering holding
        ``data`` (structure arrays shared with the host).

        The data is *copied*: a ``Factor`` documents immutability, so the
        caller mutating its values buffer afterwards (buffer-reusing time
        stepping) must not corrupt the factor's matrix, ``residual_norm``
        or ``solve_refined``.
        """
        A = self._A
        if data is A.data:
            return A
        return SymmetricCSC(A.n, A.indptr, A.indices, data.copy(), check=False)

    def _permuted_matrix(self, data):
        """The permuted system matrix for ``data`` — a pure gather through
        the cached permutation, sharing the analyzed matrix's structure
        arrays so the memoised :class:`ScatterPlan` matches by identity."""
        B = self._system.matrix
        if data is self._A.data:
            return B
        return SymmetricCSC(B.n, B.indptr, B.indices, data[self.gather],
                            check=False)

    # ------------------------------------------------------------------
    # numeric stage
    # ------------------------------------------------------------------
    def factorize(self, values=None, *, engine="rl", workers=None,
                  backend=None, dtype=None, **engine_kwargs):
        """Numeric factorization of same-pattern ``values``; returns an
        immutable :class:`Factor`.

        Parameters
        ----------
        values:
            ``None`` (factor the plan's own matrix), a flat array aligned
            with the pattern host's ``data`` (lower-triangle CSC order), or
            a full same-pattern :class:`~repro.sparse.csc.SymmetricCSC`.
            Raises ``ValueError`` on a pattern mismatch.
        engine:
            Engine name from :mod:`repro.numeric.registry` (``"rl"``,
            ``"rlb"``, ``"rl_par"``, ``"rlb_par"``, ``"rl_gpu"``,
            ``"rlb_gpu_v2"``, ...).
        workers:
            Worker count for the engines that take one — the threads and
            process backends (threads or processes respectively).
        backend:
            ``"threads"``, ``"gpu"`` or ``"process"``: run ``engine``'s
            task-DAG granularity on that scheduling substrate
            (:func:`repro.numeric.registry.backend_engine`) — e.g.
            ``engine="rlb_par", backend="gpu"`` runs the fine DAG on
            simulated-GPU streams (``rlb_gpu_v2``), and
            ``backend="process", workers=N`` drains it through a
            shared-memory worker-process pool (``rl_proc`` / ``rlb_proc``
            — :mod:`repro.numeric.procpool`).  One DAG runs on one
            substrate.  Factors are bit-identical across backends.
        dtype:
            Factor storage/compute precision for the RL/RLB engine
            families: ``numpy.float64`` (default) or ``numpy.float32``
            (single-precision panels and BLAS, ~half the memory traffic —
            pair with :meth:`Factor.solve_refined` to recover fp64
            accuracy; see ``docs/precision.md``).  Unsupported dtypes
            raise :class:`~repro.dense.kernels.UnsupportedDtypeError`.
        engine_kwargs:
            Forwarded to the engine (``threshold=``, ``device_memory=``,
            ``tracer=``, a serial or GPU row's ``machine=``, ...).

        An option ``engine`` does not take raises ``ValueError`` naming
        the option and the engines that accept it
        (:func:`repro.numeric.registry.resolve`).
        """
        spec, kwargs = resolve(engine, backend, workers=workers, dtype=dtype,
                               **engine_kwargs)
        return self._factor(spec, kwargs, self._values_of(values))

    def _factor(self, spec, kwargs, data):
        """Run a resolved engine on validated same-pattern ``data``."""
        result = spec.fn(self._system.symb, self._permuted_matrix(data),
                         **kwargs)
        return Factor(self, result, self._original_matrix(data))

    def factorize_batch(self, values_list, *, engine="rlb_par", workers=None,
                        backend=None, dtype=None, **engine_kwargs):
        """Factorize a batch of same-pattern matrices, one after another;
        returns the list of their :class:`Factor` objects.

        The loop ``[plan.factorize(v, ...) for v in values_list]``, with
        ``engine`` and every option resolved once, exactly as in
        :meth:`factorize`, and every value set validated before the first
        factorization.  Each factor is therefore the one ``factorize``
        returns for that matrix alone, bit for bit, on every engine and
        backend.  Requests that *overlap* share a worker pool through
        :meth:`serve` instead.

        A NaN/Inf value set raises
        :class:`~repro.dense.kernels.NonFiniteValuesError` and a non-SPD
        matrix :class:`~repro.dense.kernels.NotPositiveDefiniteError`, with
        ``batch_index`` set to the first failing position in
        ``values_list``.
        """
        spec, kwargs = resolve(engine, backend, workers=workers, dtype=dtype,
                               **engine_kwargs)
        datas = []
        for b, values in enumerate(values_list):
            try:
                datas.append(self._values_of(values))
            except NonFiniteValuesError as exc:
                raise NonFiniteValuesError(exc.count, batch_index=b) from exc
        factors = []
        for b, data in enumerate(datas):
            try:
                factors.append(self._factor(spec, kwargs, data))
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError.for_batch(exc, b) from exc
        return factors

    # ------------------------------------------------------------------
    # solve stage
    # ------------------------------------------------------------------
    def solve_plan(self):
        """The pattern-only :class:`SolvePlan` of this pattern: the
        elimination-tree level schedule both triangular sweeps follow when
        run with ``workers=N``.  Computed once and memoised on
        :meth:`SymbolicFactor.cache()
        <repro.symbolic.structure.SymbolicFactor.cache>` (like the
        factorization DAG plans), so every factor and serving session of
        this plan shares it."""
        return SolvePlan(self, solve_schedule(self._system.symb))

    def serve(self, *, engine="rlb_par", workers=None, backend=None,
              threshold=None, dtype=None, pool=None, tracer=None,
              trace_origin=None, **engine_kwargs):
        """Open a streaming :class:`ServingSession` on this pattern.

        Where :meth:`factorize_batch` runs a closed batch one matrix after
        another, a serving session owns ONE persistent worker pool and accepts
        same-pattern matrices *as they arrive*: ``session.submit(values)``
        returns a future resolving to a :class:`Factor`,
        ``session.submit_solve(values, b)`` one resolving to the solution
        array, and a non-SPD matrix fails only its own future — the pool
        keeps serving.  Use as a context manager::

            with plan.serve(engine="rlb_par", workers=4) as session:
                futs = [session.submit_solve(v, b) for v in value_stream]
                xs = [f.result() for f in futs]

        ``engine`` / ``backend`` / ``threshold`` (and any further engine
        option, e.g. ``device_memory=`` or a serial or GPU row's
        ``machine=``) select the engine exactly as in :meth:`factorize`,
        and every registered row can be served.  The
        threaded engines (``rl_par`` / ``rlb_par``) drain each submission's
        task DAG across the pool's workers; every other row runs each
        submission as ONE pool task (the process rows drain their DAG
        through the shared worker-process pool — create it on the main
        thread first via
        :func:`repro.numeric.procpool.default_process_pool` when using
        ``fork``).  Every produced factor and solution is bit-identical
        to ``plan.factorize(values, engine=...).solve(b)`` on the same
        row.

        ``dtype=`` sets the session's default factor precision
        (``numpy.float32`` for the mixed-precision serving lane; see
        ``docs/precision.md``); :meth:`ServingSession.submit` /
        :meth:`~ServingSession.submit_solve` take a per-submission
        override.

        ``pool=`` binds the session to an externally owned
        :class:`~repro.numeric.executor.StreamPool` instead of creating
        (and later closing) its own — the sharing seam the multi-tenant
        :class:`repro.serving.Gateway` uses to multiplex many per-pattern
        sessions over one set of workers.  ``tracer=`` records measured
        per-task (threaded) or per-submission (every other row) spans, with
        times relative to ``trace_origin`` (a ``time.perf_counter()``
        value; default: session creation).
        """
        return ServingSession(self, engine=engine, workers=workers,
                              backend=backend, threshold=threshold,
                              dtype=dtype, pool=pool, tracer=tracer,
                              trace_origin=trace_origin, **engine_kwargs)


class SolvePlan:
    """Pattern-only plan of the level-scheduled triangular solves.

    Wraps the memoised :class:`~repro.symbolic.levels.SolveSchedule` of one
    :class:`SymbolicPlan` with the introspection a capacity planner wants:
    how many dependency *levels* each sweep has (the critical-path length)
    and how wide they are (the exploitable task parallelism).  Purely
    informational — :meth:`Factor.solve` consults the same cached schedule
    internally; build it via :meth:`SymbolicPlan.solve_plan`.
    """

    __slots__ = ("_plan", "_schedule")

    def __init__(self, plan, schedule):
        self._plan = plan
        self._schedule = schedule

    @property
    def plan(self):
        """The :class:`SymbolicPlan` this solve plan belongs to."""
        return self._plan

    @property
    def schedule(self):
        """The underlying :class:`~repro.symbolic.levels.SolveSchedule`."""
        return self._schedule

    @property
    def nsup(self):
        return self._plan.nsup

    @property
    def nlevels(self):
        """Dependency levels per sweep — the level schedule's round count
        (the backward sweep runs the same levels in reverse)."""
        return self._schedule.nlevels

    @property
    def max_parallelism(self):
        """Peak number of independent per-supernode solve tasks."""
        return self._schedule.max_width

    @property
    def avg_parallelism(self):
        """Mean level width (supernodes / levels)."""
        return self._schedule.avg_width

    def level_widths(self):
        """Supernodes per level, leaves first (``np.ndarray``)."""
        return self._schedule.level_widths()

    @property
    def leaf_block(self):
        """``(supernodes, columns, entries, nbytes)`` of the pattern's
        :func:`~repro.symbolic.levels.leaf_block`: the narrow leaves solved as
        one block, their columns, factor entries gathered per sweep, index bytes."""
        block = leaf_block(self._plan.symb)
        return len(block.members), block.cols.size, block.pos.size, block.nbytes()

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"SolvePlan(nsup={self.nsup}, nlevels={self.nlevels}, "
                f"max_parallelism={self.max_parallelism}, "
                f"leaf_block={self.leaf_block})")


def _guarded(fn, future):
    """Run a completion callback, routing its failure to ``future`` so a
    broken callback can never strand a streaming submission unresolved."""

    def run():
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - defensive
            if not future.done():
                future.set_exception(exc)

    return run


def _submit_solve_graph(pool, storage, y, future, on_done):
    """Submit the fused level-scheduled solve of one factor on a
    persistent pool.  ``y`` is the already-permuted right-hand side
    (solved in place by :func:`repro.solve.triangular.solve_graph` — both
    sweeps, one task graph); when it drains, ``on_done(y)`` runs on a
    worker thread (its exceptions, like the graph's, land on
    ``future``).  The graph preserves the serial accumulation order, so
    the solved buffer is bit-identical to the serial sweeps'."""

    def done():
        on_done(check_finite(y, "solution"))

    ntasks, roots, run_task = solve_graph(storage, y)
    pool.submit_graph(ntasks, roots, run_task,
                      on_complete=_guarded(done, future),
                      on_error=future.set_exception)


class Factor:
    """One immutable numeric Cholesky factorization ``P A P^T = L L^T``.

    Produced by :meth:`SymbolicPlan.factorize`; never mutated afterwards —
    new values mean a new ``Factor`` from the same plan.  All solve methods
    accept a single ``(n,)`` vector or an ``(n, k)`` block of right-hand
    sides.
    """

    __slots__ = ("_plan", "_result", "_matrix")

    def __init__(self, plan, result, matrix):
        self._plan = plan
        self._result = result
        self._matrix = matrix

    # ------------------------------------------------------------------
    @property
    def plan(self):
        """The :class:`SymbolicPlan` this factor was produced from."""
        return self._plan

    @property
    def result(self):
        """The engine's :class:`~repro.numeric.result.FactorizeResult`
        (modeled seconds, kernel counts, executor wall time, ...)."""
        return self._result

    @property
    def storage(self):
        """The numeric factor panels
        (:class:`~repro.numeric.storage.FactorStorage`)."""
        return self._result.storage

    @property
    def matrix(self):
        """The factored matrix, original ordering."""
        return self._matrix

    @property
    def engine(self):
        """Name of the engine that produced this factor."""
        return self._result.method

    @property
    def dtype(self):
        """Precision of the factor panels (``numpy.dtype``):
        ``float64``, or ``float32`` for the mixed-precision lane
        (``plan.factorize(..., dtype=numpy.float32)``)."""
        return self.storage.dtype

    @property
    def n(self):
        return self._plan.n

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Factor(n={self.n}, engine={self.engine!r})"

    def _serial_engine(self):
        """The serial engine producing this factor's bits at full
        precision (``"rl"`` for a result no registered engine names)."""
        try:
            return serial_twin(self.engine)
        except ValueError:
            return "rl"

    def solve_plan(self):
        """The pattern's :class:`SolvePlan` (shared, memoised) — what
        ``workers=N`` executes."""
        return self._plan.solve_plan()

    # ------------------------------------------------------------------
    def solve(self, b, *, workers=None):
        """Solve ``A x = b``.

        ``workers=None`` runs the serial sweeps, one supernode after
        another; ``workers=N`` runs the elimination-tree level schedule of
        :meth:`solve_plan` as one task graph on N threads.  Solutions are
        **bit-identical** for every worker count — the graph preserves the
        serial accumulation order.
        """
        # validate BEFORE the permutation gather: b[perm] would silently
        # truncate an oversized right-hand side
        b = check_rhs(self.n, b, "b", copy=False)
        if workers is not None:
            workers = _resolve_workers(workers)
        perm = self._plan.perm
        # b[perm] is a fresh gather; both sweeps run in place on it
        y = solve_in_place(self.storage, b[perm], workers)
        x = np.empty_like(y)
        x[perm] = y
        return x

    def solve_refined(self, b, *, tol=1e-14, max_iter=5, workers=None,
                      return_info=False, stall_ratio=None, fallback=True):
        """Solve ``A x = b`` with iterative refinement.

        Runs iterative refinement (:func:`repro.solve.refine.refine`)
        until the relative residual reaches ``tol`` or ``max_iter``
        residuals were evaluated; ``max_iter=0`` is the plain
        :meth:`solve`, bit for bit.  ``workers=N`` routes every repeated
        solve (the initial one and each correction) through the
        level-scheduled fused task graph — the refined solution is
        bit-identical to the serial path, the inner solves just run in
        parallel.  Returns the refined ``x``; with ``return_info=True``
        returns the full :class:`~repro.solve.refine.RefinementResult`
        (residual history, iteration count, convergence flag).

        **Mixed-precision recovery** (see ``docs/precision.md``): on a
        reduced-precision factor the triangular solves run in the
        factor's own precision while the residuals and ``x`` stay fp64;
        each refinement step contracts the error by roughly
        ``cond(A) · eps32``, so a well-conditioned system reaches fp64
        accuracy in a few cheap steps.  When the chain *stalls* — one
        step fails to shrink the residual to below ``stall_ratio ×`` the
        previous one (default
        :data:`~repro.numeric.threshold.DEFAULT_STALL_RATIO`; the
        split rule of :func:`repro.numeric.threshold
        .refinement_stalled`) — or exhausts ``max_iter`` short of
        ``tol``, the factor's precision is the binding constraint and
        ``fallback=True`` (default) **refactorizes in fp64** (this
        factor's serial-twin engine) and re-refines on the full-precision
        factor.  The recovery is recorded in
        ``factor.result.extra["refine_fallback"]`` (reason, the
        reduced-precision residual history, and the fp64 engine used);
        ``fallback=False`` returns the stalled result as-is.  The
        fallback only follows a measured residual: a chain with
        ``max_iter=0`` never refactorizes.  On fp64 factors stall
        detection and fallback are inert unless ``stall_ratio`` is
        passed explicitly.
        """
        is_reduced = self.dtype != np.float64
        ratio = stall_ratio
        if ratio is None and is_reduced:
            ratio = DEFAULT_STALL_RATIO
        out = refine(self._matrix, self.storage, self._plan.perm, b,
                     tol=tol, max_iter=max_iter, workers=workers,
                     stall_ratio=ratio)
        if is_reduced and fallback and out.residual_norms and not out.converged:
            # precision-limited chain: refactorize at full precision and
            # refine on the fp64 factor (serial twin of this engine)
            eng = self._serial_engine()
            matrix = self._matrix
            if hasattr(matrix, "materialize"):  # UpdatedMatrix
                matrix = matrix.materialize()
            full = self._refactorized(matrix, eng)
            self._result.extra["refine_fallback"] = {
                "reason": "stalled" if out.stalled else "max_iter",
                "from_dtype": self.dtype.name,
                "engine": eng,
                "residual_norms": list(out.residual_norms),
            }
            out = refine(matrix, full.storage, full.plan.perm, b,
                         tol=tol, max_iter=max_iter, workers=workers)
        return out if return_info else out.x

    def residual_norm(self, x, b):
        """Relative residual ``||b - A x|| / ||b||``
        (:func:`repro.solve.refine.relative_residual`)."""
        return relative_residual(self._matrix, x, b)

    # ------------------------------------------------------------------
    # serve-time rank-k update / downdate (repro.update)
    # ------------------------------------------------------------------
    def _permuted_W(self, W, name="W", dtype=np.float64):
        """Validate a modification matrix and gather it — once — into the
        factor's ordering (``B = P A P^T`` means ``W_perm = W[perm]``).
        ``dtype=None`` is the pattern-only door: values are neither
        converted nor required to be finite."""
        W = np.asarray(check_real(W, name), dtype=dtype)
        if W.ndim == 1:
            W = W[:, None]
        if W.ndim != 2 or W.shape[0] != self.n:
            raise ValueError(f"{name} must have shape (n,) or (n, k)")
        if dtype is not None:
            check_finite(W, "update vectors")
        return W, W[self._plan.perm]

    def update(self, W, *, downdate=False):
        """Factor of ``A + W W^T`` (or ``A - W W^T``) as a NEW immutable
        :class:`Factor`, by the rank-k GGMS path sweep
        (:mod:`repro.numeric.updown`) — O(path · k), not a
        refactorization.

        Copy-on-write: only the panels of supernodes on the merged
        elimination-tree path union are copied; every untouched panel is
        *shared* with this factor, which stays valid and unmodified.  Each
        column of ``W`` must satisfy the no-new-fill containment condition
        (``ValueError`` otherwise — use :meth:`apply` to fall back to a
        refactorize automatically).  A downdate that destroys positive
        definiteness raises
        :class:`~repro.dense.kernels.NotPositiveDefiniteError` and leaves
        both factors intact; a NaN or ±Inf entry of ``W`` is refused with
        :class:`~repro.dense.kernels.NonFiniteValuesError` before any
        panel is copied.

        The new factor's :attr:`matrix` is the implicit
        :class:`~repro.update.matrix.UpdatedMatrix`, so ``solve_refined``
        and ``residual_norm`` keep working against the *updated* system.
        """
        W, Wp = self._permuted_W(W)
        mod = _modification_plan(self.storage.symb, Wp)
        return self._updated(W, Wp, mod, downdate)

    def _updated(self, W, Wp, mod, downdate):
        """:meth:`update` of a gathered (``Wp``: a private copy, swept in
        place) and planned modification."""
        mod.require_contained()
        storage = self.storage
        if mod.roots:
            panels = list(storage.panels)
            for s in mod.snodes.tolist():
                panels[s] = panels[s].copy(order="F")
            storage = FactorStorage(storage.symb, panels)
            # the sweep runs on private copies; a failure discards the
            # whole candidate storage, so the atomicity snapshot is moot
            _run_atomic(storage, Wp, mod, downdate, snapshot=False)
        extra = dict(self._result.extra,
                     update_rank=int(Wp.shape[1]),
                     update_cols=int(mod.union.size),
                     update_downdate=bool(downdate))
        result = dataclasses.replace(self._result, storage=storage,
                                     extra=extra)
        return Factor(self._plan, result,
                      UpdatedMatrix(self._matrix, W, downdate=downdate))

    def downdate(self, W):
        """Factor of ``A - W W^T`` as a new immutable :class:`Factor`
        (:meth:`update` with ``downdate=True``)."""
        return self.update(W, downdate=True)

    def update_cost(self, W_pattern):
        """Price the update-vs-refactorize crossover for a modification
        with the nonzero pattern of ``W_pattern`` (``(n,)`` or ``(n, k)``,
        values ignored) — the modeled flops and seconds of both roads,
        the containment verdict, and what ``policy="auto"`` would pick
        (:class:`~repro.update.crossover.UpdateCost`)."""
        symb = self.storage.symb
        _, Wp = self._permuted_W(W_pattern, "W_pattern", dtype=None)
        return _modeled_update_cost(symb, _modification_plan(symb, Wp))

    def apply(self, W, *, policy="auto", downdate=False, engine=None,
              **engine_kwargs):
        """Produce the factor of ``A ± W W^T``, choosing the road.

        ``policy="update"`` forces the O(path·k) sweep (:meth:`update`),
        ``policy="refactorize"`` materializes the modified matrix and
        factorizes it from scratch, and ``policy="auto"`` (default) takes
        the modeled winner from :meth:`update_cost` — automatically
        falling back to refactorize when the modification fails the
        no-new-fill containment check, where the sweep is unsound.  ``W``
        is gathered and planned once; pricing and sweep read that plan.

        The refactorize road reuses this factor's plan when the modified
        matrix keeps ``A``'s sparsity pattern and transparently builds a
        fresh plan when the modification grew it
        (:class:`PatternMismatchError` — nothing else re-analyzes).
        ``engine`` (default: this factor's serial twin) and
        ``engine_kwargs`` configure that road only.  The chosen road lands
        in ``factor.result.extra["applied_policy"]``.
        """
        if policy not in ("auto", "update", "refactorize"):
            raise ValueError(
                f"policy must be 'auto', 'update' or 'refactorize', "
                f"not {policy!r}"
            )
        W, Wp = self._permuted_W(W, "W_pattern")
        symb = self.storage.symb
        mod = _modification_plan(symb, Wp)
        cost = _modeled_update_cost(symb, mod)
        choice = cost.recommended if policy == "auto" else policy
        if choice == "update":
            out = self._updated(W, Wp, mod, downdate)
        else:
            B = UpdatedMatrix(self._matrix, W,
                              downdate=downdate).materialize()
            if engine is None:
                engine = self._serial_engine()
            out = self._refactorized(B, engine, **engine_kwargs)
        out._result.extra["applied_policy"] = choice
        out._result.extra["update_recommended"] = cost.recommended
        return out

    def _refactorized(self, B, engine, **engine_kwargs):
        """Factorize the modified matrix ``B`` on this factor's plan, or —
        when a modification grew ``A``'s pattern beyond the plan's
        (:class:`PatternMismatchError`, nothing else) — on a fresh one."""
        try:
            return self._plan.factorize(B, engine=engine, **engine_kwargs)
        except PatternMismatchError:
            return plan(B).factorize(engine=engine, **engine_kwargs)

    # ------------------------------------------------------------------
    def _diag_permuted(self):
        """Diagonal of ``L`` in the factor's (permuted) ordering."""
        symb = self.storage.symb
        d = np.empty(symb.n)
        for s in range(symb.nsup):
            first, last = symb.snode_cols(s)
            w = last - first
            d[first:last] = np.diagonal(self.storage.panel(s)[:w, :w])
        return d

    def diag(self):
        """Diagonal entries of the Cholesky factor ``L``, mapped back to
        the original ordering (entry ``i`` corresponds to row/column ``i``
        of ``A``)."""
        d = self._diag_permuted()
        out = np.empty_like(d)
        out[self._plan.perm] = d
        return out

    def logdet(self):
        """``log det(A)`` — numerically stable via
        ``2 * sum(log(diag(L)))`` (the determinant is permutation
        invariant)."""
        return 2.0 * float(np.sum(np.log(self._diag_permuted())))


class ServingSession:
    """Streaming same-pattern serving: one persistent worker pool, matrices
    submitted as they arrive.

    Produced by :meth:`SymbolicPlan.serve`, on any registered engine.  Each
    :meth:`submit` / :meth:`submit_solve` call enqueues one factorization
    graph (a threaded row's task DAG; one task for every other row) and,
    for ``submit_solve``, the chained level-scheduled forward/backward
    solve graphs on the session's :class:`~repro.numeric.executor.StreamPool`
    and immediately returns a :class:`concurrent.futures.Future` — there is
    no closed batch, and every in-flight submission's graph drains through
    the one pool, so overlapping requests keep all workers busy.  This is
    the one place the runtime runs several graphs at once (with
    :class:`repro.serving.Gateway`, which multiplexes sessions over a
    shared pool); :meth:`SymbolicPlan.factorize_batch` is a plain loop.

    Contracts:

    * **Determinism** — every factor and solution is bit-identical to the
      direct path (``plan.factorize(values, engine=...)`` /
      ``factor.solve(b)``), for
      any worker count and any interleaving of submissions (a panel is
      written by its own task alone, as everywhere else in the runtime).
    * **Failure isolation** — a non-SPD matrix raises
      :class:`~repro.dense.kernels.NotPositiveDefiniteError` (annotated
      with ``stream_index``) on *its own* future only; the pool and every
      other submission keep running.
    * **Lifecycle** — ``close()`` (or leaving the ``with`` block) drains
      all in-flight submissions, then stops the pool; submitting to a
      closed session raises ``RuntimeError``.  Submission is
      single-producer: call ``submit``/``submit_solve`` from one thread
      (results may be consumed anywhere).
    """

    def __init__(self, plan, *, engine="rlb_par", workers=None,
                 backend=None, threshold=None, dtype=None, pool=None,
                 tracer=None, trace_origin=None, **engine_kwargs):
        spec, kwargs = resolve(
            engine, backend, workers=workers, threshold=threshold,
            dtype=dtype, **engine_kwargs)
        self._dtype = kwargs.pop("dtype", None)
        self._plan = plan
        self._spec = spec
        self._granularity = spec.granularity
        self._tracer = tracer
        self._t0 = (time.perf_counter() if trace_origin is None
                    else trace_origin)
        if spec.backend == "threads":
            # the pool's threads ARE the engine's parallelism
            self._engine_kwargs = None
            pool_width = kwargs.get("workers")
        else:
            # each submission runs its engine as ONE task; the pool only
            # sequences submissions (the process engine runs on its
            # worker-process pool, so width 1 avoids oversubscription)
            self._engine_kwargs = kwargs
            pool_width = 1
        # pre-build every memoised pattern structure on this (caller)
        # thread: worker-thread callbacks may then only *read* the symbolic
        # cache (DAG plan, solve schedule, scatter plan, block offsets)
        if spec.family is not None:
            dag_plan(plan.symb, self._granularity)
        solve_schedule(plan.symb)
        if pool is not None:
            if workers is not None and spec.backend == "threads":
                raise ValueError("pass either workers= or pool=, not both")
            self._pool = pool
            self._owns_pool = False
            self.workers = pool.workers
        else:
            self._pool = StreamPool(pool_width, name="repro-serve")
            self._owns_pool = True
            self.workers = self._pool.workers
        self._submitted = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def plan(self):
        """The shared :class:`SymbolicPlan`."""
        return self._plan

    @property
    def engine(self):
        """Name of the engine factorizing the submissions."""
        return self._spec.name

    @property
    def submitted(self):
        """Number of submissions accepted so far."""
        return self._submitted

    def __repr__(self):  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (f"ServingSession(engine={self.engine!r}, "
                f"workers={self.workers}, submitted={self._submitted}, "
                f"{state})")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        """Drain every in-flight submission, then stop the worker pool.
        Futures already handed out keep resolving during the drain.
        A session bound to an external ``pool=`` only marks itself closed —
        the pool belongs to its owner (the gateway) and keeps running."""
        self._closed = True
        if self._owns_pool:
            self._pool.close()

    # ------------------------------------------------------------------
    def _enqueue(self, ntasks, roots, run_task, label_of, index, future,
                 done):
        """Submit one graph of submission ``index`` under the session's
        contracts: tasks traced (when the session has a tracer), a non-SPD
        failure annotated with ``stream_index``, every failure — the
        graph's or the completion callback ``done``'s — on ``future``."""
        if self._tracer is not None:
            run_task = _traced_run(run_task, label_of, self._tracer,
                                   self._t0)

        def err(exc):
            if isinstance(exc, NotPositiveDefiniteError):
                exc = NotPositiveDefiniteError.for_stream(exc, index)
            future.set_exception(exc)

        self._pool.submit_graph(ntasks, roots, run_task,
                                on_complete=_guarded(done, future),
                                on_error=err)

    def _enqueue_one(self, compute, label, index, future, done):
        """``compute()`` as ONE pool task (a whole factorization of a
        non-threaded row, an update): the engine schedules its own lanes
        internally, the pool still provides the streaming futures, failure
        isolation and drain semantics.  ``done(value)`` gets what it
        returned."""
        holder = []

        def run_task(tid):
            holder.append(compute())
            return ()

        self._enqueue(1, (0,), run_task, lambda tid: label, index, future,
                      lambda: done(holder.pop()))

    def _factor_job(self, values, future, on_factor, dtype=None):
        """Build one submission's factorize graph (on the caller thread —
        values validation, permutation gather, panel scatter) and enqueue
        it; ``on_factor(factor, storage)`` runs on a worker thread once the
        DAG drains.  ``dtype`` overrides the session's default factor
        precision for this submission only."""
        if self._closed:
            raise RuntimeError("serving session is closed")
        plan = self._plan
        index = self._submitted
        dt = (self._dtype if dtype is None
              else resolve(self.engine, dtype=dtype)[1]["dtype"])
        data = plan._values_of(values)
        matrix = plan._original_matrix(data)  # copies: the Factor owns it
        M = plan._permuted_matrix(data)

        def done(result):
            on_factor(Factor(plan, result, matrix), result.storage)

        if self._spec.backend == "threads":
            _, ntasks, roots, run_task, finish = stream_factorize_job(
                plan.symb, M, self._granularity,
                extra={"workers": self.workers, "backend": "threads",
                       "granularity": self._granularity,
                       "stream_index": index},
                dtype=dt,
            )
            label_of = _task_label_fn(dag_plan(plan.symb, self._granularity))
            t0 = time.perf_counter()
            self._enqueue(ntasks, roots, run_task, label_of, index, future,
                          lambda: done(finish(time.perf_counter() - t0)))
        else:
            spec, kwargs = self._spec, self._engine_kwargs
            if dt is not None:
                kwargs = dict(kwargs, dtype=dt)
            t0 = time.perf_counter()

            def finish(result):
                result.extra["stream_index"] = index
                result.extra["wall_seconds"] = time.perf_counter() - t0
                done(result)

            self._enqueue_one(lambda: spec.fn(plan.symb, M, **kwargs),
                              f"factorize:{index}", index, future, finish)
        self._submitted += 1

    def submit(self, values=None, *, dtype=None):
        """Enqueue one same-pattern factorization; returns a future
        resolving to its immutable :class:`Factor`.

        ``values`` is anything :meth:`SymbolicPlan.factorize` accepts
        (``None``, a flat data array, or a same-pattern ``SymmetricCSC``);
        pattern mismatches raise ``ValueError`` immediately, numeric
        failures (non-SPD) resolve the future with the annotated
        exception.  ``dtype`` overrides the session's default factor
        precision for this submission (``numpy.float32`` /
        ``numpy.float64``).
        """
        future = Future()
        self._factor_job(values, future,
                         lambda factor, storage: future.set_result(factor),
                         dtype=dtype)
        return future

    def submit_solve(self, values, b, *, refine=False, tol=1e-14,
                     max_iter=5, dtype=None):
        """Enqueue factorize + level-scheduled solve; returns a future
        resolving to the solution ``x`` of ``A(values) x = b``.

        The solve sweeps run as chained task graphs on the same pool, so a
        stream of ``submit_solve`` calls keeps every worker busy across
        both phases.  ``b`` is captured at submit time (``(n,)`` or
        ``(n, k)``); the caller may reuse its buffer afterwards.

        ``refine=True`` chains iterative refinement onto the same pool:
        after the initial solve, residuals are evaluated on a worker
        thread and each correction runs as one more fused solve graph,
        until the relative residual reaches ``tol`` or ``max_iter``
        corrections were taken.  The resolved ``x`` is bit-identical to
        ``factor.solve_refined(b, tol=tol, max_iter=max_iter)`` — mixed
        factorize/solve/refine streams share one worker pool end to end.

        ``dtype`` overrides the session's default factor precision for
        this submission.  Pair ``dtype=numpy.float32`` with
        ``refine=True`` for the mixed-precision serving lane: single
        precision factorization and solves, fp64 residuals and ``x``, on
        the same pool (``refine=False`` solves in float64, as
        :meth:`Factor.solve` does).  The streaming chain caps at
        ``max_iter`` without the fp64-refactorize stall fallback of
        :meth:`Factor.solve_refined` (stall recovery needs a second
        factorization — do that through :meth:`submit` +
        :meth:`Factor.solve_refined` when the system is ill-conditioned
        enough to need it).
        """
        _check_refinement(tol, max_iter)  # raised here, not on the future
        plan = self._plan
        b = check_rhs(plan.n, b, "b", copy=refine)
        perm = plan.perm
        y = b[perm]  # fresh gather, owned by the chain
        future = Future()

        def on_factor(factor, storage):
            # the chain of refine(..., stall_ratio=None), its solves as
            # graphs on this pool; a plain solve is the chain that stops
            # at x0
            chain = _RefinementChain(factor.matrix, b, perm, storage.dtype,
                                     tol, max_iter if refine else 0)

            def advance(buf):
                rhs = chain.step(buf)
                if rhs is None:
                    future.set_result(chain.out.x)
                else:
                    _submit_solve_graph(self._pool, storage,
                                        chain.work(rhs[perm]), future, advance)

            _submit_solve_graph(self._pool, storage, chain.work(y), future, advance)

        self._factor_job(values, future, on_factor, dtype=dtype)
        return future

    def submit_update(self, factor, W, *, b=None, downdate=False,
                      policy="update", on_factor=None):
        """Enqueue a rank-k update/downdate of ``factor`` on the session's
        pool; returns a future resolving to the NEW :class:`Factor` (or,
        with ``b``, to the solution of the *updated* system).

        ``factor`` is a :class:`Factor` of this session's plan or a future
        from :meth:`submit` / a previous ``submit_update`` — chaining
        futures streams a whole update trajectory without ever blocking
        the submitting thread.  The sweep runs as one pool task under the
        session's failure-isolation contract: a downdate that destroys
        positive definiteness (or an uncontained pattern under
        ``policy="update"``) rejects *this* future only, annotated with
        ``stream_index``; the parent factor and every other submission are
        untouched (updates are copy-on-write); a NaN or ±Inf entry of
        ``W`` raises :class:`~repro.dense.kernels.NonFiniteValuesError`
        here, at submission.  ``policy`` is
        :meth:`Factor.apply`'s knob — ``"update"`` (default) forces the
        path sweep, ``"auto"`` lets the modeled crossover fall back to a
        serial refactorize inside the task.

        ``on_factor(new_factor)``, if given, runs on a worker thread as
        soon as the updated factor exists — before any chained solve —
        so callers resolving the future to ``x`` can still observe the
        factor (the gateway records it as the pattern's next update base).
        """
        if self._closed:
            raise RuntimeError("serving session is closed")
        plan = self._plan
        index = self._submitted
        future = Future()
        # captured — and, like a NaN ``b``, refused — at submit
        W = np.array(check_real(W, "update vectors"), dtype=np.float64, copy=True)
        W = check_finite(W, "update vectors")
        y = None
        if b is not None:
            b = check_rhs(plan.n, b, "b", copy=False)
            y = b[plan.perm]  # fresh gather, owned by the chain

        def solved(buf):
            x = np.empty_like(buf)
            x[plan.perm] = buf  # back to the original ordering
            future.set_result(x)

        def enqueue(parent):
            def done(new_factor):
                if on_factor is not None:
                    on_factor(new_factor)
                if y is None:
                    future.set_result(new_factor)
                else:
                    _submit_solve_graph(self._pool, new_factor.storage, y,
                                        future, solved)

            self._enqueue_one(
                lambda: parent.apply(W, policy=policy, downdate=downdate),
                f"update:{index}", index, future, done)

        if isinstance(factor, Future):
            # chained submission: enqueue once the parent resolves — the
            # callback may run on a worker thread; submit_graph from
            # worker threads is race-free (the PR-4 contract refinement
            # chains already rely on)
            def chain(parent_future):
                exc = parent_future.exception()
                if exc is not None:
                    future.set_exception(exc)
                    return
                enqueue(parent_future.result())

            factor.add_done_callback(chain)
        else:
            enqueue(factor)
        self._submitted += 1
        return future
