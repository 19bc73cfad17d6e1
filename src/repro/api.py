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

The *solve* side reuses the plan too: ``factor.solve(b)`` runs the serial
sweeps, and ``factor.solve(b, workers=N)`` runs both sweeps as one fused
task graph over the pattern's memoised solve schedule
(:func:`repro.symbolic.levels.solve_schedule`), bit-identical to the serial
sweeps for every worker count.  And when same-pattern requests *overlap* — arriving
one at a time from concurrent clients — :meth:`SymbolicPlan.serve` opens a
streaming :class:`ServingSession`: one persistent worker pool, each
request ONE pool task running the direct door's code (the plan's request
body, then for ``submit_solve`` the refinement loop right after it),
``submit``/``submit_solve`` returning futures — on any registered engine::

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

import contextlib
import copy
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait

import numpy as np

from .dense.kernels import (
    NonFiniteValuesError,
    NotPositiveDefiniteError,
    check_finite,
    check_real,
)
from .numeric.executor import _resolve_workers, _traced_run, dag_plan
from .numeric.registry import resolve, serial_twin
from .numeric.rl import update_workspace_entries
from .numeric.storage import FactorStorage, ScatterPlan, _panel_layout
from .numeric.updown import _modification_plan, _sweep
from .solve.refine import _check_refinement, _refine, _solve_permuted, refine, relative_residual
from .solve.triangular import check_rhs
from .sparse.csc import SymmetricCSC
from .sparse.permute import permutation_gather
from .symbolic.analyze import analyze
from .symbolic.blocks import pair_index
from .symbolic.levels import path_tables, solve_shapes
from .symbolic.relind import assembly_index
from .symbolic.structure import pattern_digest
from .numeric.threshold import DEFAULT_STALL_RATIO
from .update.crossover import update_cost as _modeled_update_cost
from .update.matrix import UpdatedMatrix

__all__ = ["plan", "SymbolicPlan", "Factor", "ServingSession",
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
        self._work = {}  # dtype -> free work storages (_work_storage)
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

    @contextlib.contextmanager
    def _work_storage(self, dtype):
        """A work storage at ``dtype`` for ONE request whose factor never
        leaves it (``docs/api.md``, "Storage lifetime"): popped from the
        plan's free list — built when all are in use — and pushed back when
        the request ends, failed or not.  The compiled loops and the
        compiled solve read no views, so the factor and solve programs are
        cut only by the Python bodies, on first use.  Deque pop and append
        are atomic, so threads need no lock."""
        dtype = np.dtype(dtype)
        free = self._work.setdefault(dtype, deque())
        try:
            storage = free.pop()
        except IndexError:
            storage = FactorStorage.zeros(self.symb, dtype)
        try:
            yield storage
        finally:
            free.append(storage)

    # ------------------------------------------------------------------
    # numeric stage
    # ------------------------------------------------------------------
    def factorize(self, values=None, *, engine="rl", workers=None,
                  dtype=None, **engine_kwargs):
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
            ``"rlb_gpu_v2"``, ...).  The name says where it runs: factors
            are bit-identical across the rows of one family.
        workers:
            Worker count for the engines that take one — the threads and
            process rows (threads or processes respectively).
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
        spec, kwargs = resolve(engine, workers=workers, dtype=dtype, **engine_kwargs)
        return self._request(spec, kwargs, self._original_matrix(self._values_of(values)))

    def _request(self, spec, kwargs, matrix, answer=None, records=None, since=None):
        """ONE request, the body of :meth:`factorize`, :meth:`factorize_batch`
        and every :class:`ServingSession` task: the resolved row ``spec``
        runs with ``kwargs`` on the permuted gather of ``matrix`` (owned by
        the request: :meth:`_original_matrix`) and returns the read-only
        :class:`Factor`, ``records`` in its result's extra — with
        ``wall_seconds``, the time since ``since`` (a ``time.perf_counter()``
        reading), when given — or ``answer(factor)``, a factor that never
        leaves the request, so a row with an ``into`` body factors in a work
        storage (:meth:`_work_storage`).

        A returned factor's storage is frozen; nothing more is built for it:
        the compiled solve reads the arena, and the views the Python bodies
        cut later are read-only without being flagged."""
        M = self._permuted_matrix(matrix.data)
        if answer is None:
            result = spec.fn(self._system.symb, M, **kwargs)
            result.extra.update(records or {})
            if since is not None:
                result.extra["wall_seconds"] = time.perf_counter() - since
            result.storage.freeze()
            return Factor(self, result, matrix)
        if spec.into is None:
            return answer(Factor(self, spec.fn(self._system.symb, M, **kwargs), matrix))
        options = dict(kwargs)
        with self._work_storage(options.pop("dtype", np.float64)) as storage:
            return answer(Factor(self, spec.into(storage.refill(M), **options), matrix))

    def factorize_batch(self, values_list, *, engine="rlb_par", workers=None,
                        dtype=None, **engine_kwargs):
        """Factorize a batch of same-pattern matrices, one after another;
        returns the list of their :class:`Factor` objects.

        The loop ``[plan.factorize(v, ...) for v in values_list]``, with
        ``engine`` and every option resolved once, exactly as in
        :meth:`factorize`, and every value set validated before the first
        factorization.  Each factor is therefore the one ``factorize``
        returns for that matrix alone, bit for bit, on every engine.
        Requests that *overlap* share a worker pool through :meth:`serve`
        instead.

        A NaN/Inf value set raises
        :class:`~repro.dense.kernels.NonFiniteValuesError` and a non-SPD
        matrix :class:`~repro.dense.kernels.NotPositiveDefiniteError`, with
        ``batch_index`` set to the first failing position in
        ``values_list``.
        """
        spec, kwargs = resolve(engine, workers=workers, dtype=dtype, **engine_kwargs)
        datas = []
        for b, values in enumerate(values_list):
            try:
                datas.append(self._values_of(values))
            except NonFiniteValuesError as exc:
                raise NonFiniteValuesError(exc.count, batch_index=b) from exc
        factors = []
        for b, data in enumerate(datas):
            try:
                factors.append(self._request(spec, kwargs, self._original_matrix(data)))
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError.for_batch(exc, b) from exc
        return factors

    def serve(self, *, engine="rlb_par", workers=None, threshold=None,
              dtype=None, pool=None, tracer=None, trace_origin=None,
              **engine_kwargs):
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

        ``engine`` / ``threshold`` (and any further engine
        option, e.g. ``device_memory=`` or a serial or GPU row's
        ``machine=``) select the engine exactly as in :meth:`factorize`,
        and every registered row can be served.  Each submission is ONE
        pool task on every row — no task graph inside a request,
        concurrency across requests.  A threaded row (``rl_par`` /
        ``rlb_par``) runs its serial twin (``rl`` / ``rlb``) in that task,
        and its ``workers=`` is the pool's width: how many requests run at
        once.  The process rows drain their DAG through the shared
        worker-process pool (create it on the main thread first via
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
        :class:`concurrent.futures.Executor` instead of creating (and later
        shutting down) its own — the sharing seam the multi-tenant
        :class:`repro.serving.Gateway` uses to multiplex many per-pattern
        sessions over one set of workers.  ``tracer=`` records one
        measured span per submission, with times relative to
        ``trace_origin`` (a ``time.perf_counter()`` value; default:
        session creation).
        """
        return ServingSession(self, engine=engine, workers=workers,
                              threshold=threshold, dtype=dtype, pool=pool,
                              tracer=tracer, trace_origin=trace_origin,
                              **engine_kwargs)


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

    # ------------------------------------------------------------------
    def solve(self, b, *, workers=None):
        """Solve ``A x = b``.

        ``workers=None`` runs the serial sweeps, one supernode after
        another, as ONE compiled call (an fp32 factor's over an exact
        float64 upcast of its panels; the Python walk where no library could
        be built: :func:`repro.solve.triangular.serial_body`).
        ``workers=N`` runs both sweeps as ONE fused task graph
        (:func:`repro.solve.triangular.solve_graph`, one task per task
        range of the pattern's memoised
        :func:`~repro.symbolic.levels.solve_schedule`) on N threads, with
        the Python task bodies: it loses to the compiled serial solve on
        every benchmark pattern (``docs/solve.md``).  Solutions are
        **bit-identical** for every worker count — the graph preserves the
        serial accumulation order and calls the same routines.
        """
        b = check_rhs(self.n, b, "b", copy=False)  # before the gather, which would truncate it
        if workers is not None:
            workers = _resolve_workers(workers)
        return _solve_permuted(self.storage, self._plan.perm, b, workers=workers)

    def solve_refined(self, b, *, tol=1e-14, max_iter=5,
                      return_info=False, stall_ratio=None, fallback=True):
        """Solve ``A x = b`` with iterative refinement.

        Runs iterative refinement (:func:`repro.solve.refine.refine`, on
        the serial sweeps) until the relative residual reaches ``tol`` or
        ``max_iter`` residuals were evaluated; ``max_iter=0`` is the plain
        :meth:`solve`, bit for bit.  Returns the refined ``x``; with
        ``return_info=True`` the full
        :class:`~repro.solve.refine.RefinementResult` (residual history,
        iteration count, convergence flag).

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
        factor.  The recovery is recorded on the returned result's
        ``fallback`` (reason, the reduced-precision residual history, and
        the fp64 engine used); the factor itself is never written.
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
                     tol=tol, max_iter=max_iter, stall_ratio=ratio)
        if is_reduced and fallback and out.residual_norms and not out.converged:
            # precision-limited chain: refactorize at full precision and
            # refine on the fp64 factor (serial twin of this engine)
            eng = self._serial_engine()
            matrix = self._matrix
            if hasattr(matrix, "materialize"):  # UpdatedMatrix
                matrix = matrix.materialize()
            full = self._refactorized(matrix, eng)
            record = {
                "reason": "stalled" if out.stalled else "max_iter",
                "from_dtype": self.dtype.name,
                "engine": eng,
                "residual_norms": list(out.residual_norms),
            }
            out = refine(matrix, full.storage, full.plan.perm, b,
                         tol=tol, max_iter=max_iter)
            out.fallback = record
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
        *shared* with this factor, which stays valid and unmodified, and
        read through the arena at the bottom of the update chain
        (:meth:`~repro.numeric.storage.FactorStorage.derived`), so a solve
        re-cuts only the copied panels' views.  Each
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

    def _updated(self, W, Wp, mod, downdate, **records):
        """:meth:`update` of a gathered (``Wp``: a private copy, swept in
        place) and planned modification, ``records`` in its result's extra."""
        mod.require_contained()
        storage = self.storage
        if mod.roots:
            # the sweep runs on private copies: a failure discards them
            storage = FactorStorage.derived(storage, mod.snodes)
            _sweep(storage, Wp, mod, -1.0 if downdate else 1.0)
            storage.freeze()
        extra = dict(self._result.extra,
                     update_rank=int(Wp.shape[1]),
                     update_cols=int(mod.union.size),
                     update_downdate=bool(downdate),
                     **records)
        # not dataclasses.replace, which reads (so prices) every model field
        result = copy.copy(self._result)
        result.storage, result.extra = storage, extra
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
        records = {"applied_policy": choice, "update_recommended": cost.recommended}
        if choice == "update":
            return self._updated(W, Wp, mod, downdate, **records)
        B = UpdatedMatrix(self._matrix, W, downdate=downdate).materialize()
        engine = self._serial_engine() if engine is None else engine
        return self._refactorized(B, engine, records, **engine_kwargs)

    def _refactorized(self, B, engine, records=None, **engine_kwargs):
        """Factorize the modified matrix ``B`` on this factor's plan, or —
        when a modification grew ``A``'s pattern beyond the plan's
        (:class:`PatternMismatchError`, nothing else) — on a fresh one,
        ``records`` in the new factor's ``result.extra``."""
        spec, kwargs = resolve(engine, **engine_kwargs)
        try:
            target, data = self._plan, self._plan._values_of(B)
        except PatternMismatchError:
            target = plan(B)
            data = target._values_of(None)
        return target._request(spec, kwargs, target._original_matrix(data), records=records)

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
    :meth:`submit` / :meth:`submit_solve` / :meth:`submit_update` call
    enqueues ONE task on the session's
    :class:`concurrent.futures.ThreadPoolExecutor` and immediately returns a
    :class:`concurrent.futures.Future`.  The task is the whole request, on
    the direct door's code: the plan's request body
    (:meth:`SymbolicPlan._request`; a threaded row, ``rl_par`` /
    ``rlb_par``, runs its serial twin ``rl`` / ``rlb`` — the same bits),
    then :func:`~repro.solve.refine.refine`'s loop for a solve, or
    :meth:`Factor.apply` and :meth:`Factor.solve` for an update.  The
    session keeps only futures, ordering, cancellation, tracing and
    ``close()``.  There is no task graph inside a request; overlapping requests
    run side by side, one per worker, so the pool's width is the number of
    requests in flight.  This is the one place the runtime runs several
    requests at once (with :class:`repro.serving.Gateway`, which
    multiplexes sessions over a shared pool);
    :meth:`SymbolicPlan.factorize_batch` is a plain loop.

    Contracts:

    * **Determinism** — every factor and solution is bit-identical to the
      direct path (``plan.factorize(values, engine=...)`` /
      ``factor.solve(b)``), for any worker count and any interleaving of
      submissions.
    * **Failure isolation** — a non-SPD matrix raises
      :class:`~repro.dense.kernels.NotPositiveDefiniteError` (annotated
      with ``stream_index``) on *its own* future only; the pool and every
      other submission keep running.
    * **Cancellation** — a future cancelled before its task starts (a
      :class:`~repro.serving.GatewayTimeout`, a cancelled client) computes
      nothing: the task claims its future first
      (``set_running_or_notify_cancel``) and skips a cancelled one.  A
      running request cannot be cancelled and finishes normally.
    * **Lifecycle** — ``close()`` (or leaving the ``with`` block) drains
      all in-flight submissions, chained updates included, then shuts the
      pool down; submitting to a closed session raises ``RuntimeError``.
      Submission is single-producer: call ``submit``/``submit_solve`` from
      one thread (results may be consumed anywhere).
    """

    def __init__(self, plan, *, engine="rlb_par", workers=None,
                 threshold=None, dtype=None, pool=None, tracer=None,
                 trace_origin=None, **engine_kwargs):
        spec, kwargs = resolve(engine, workers=workers, threshold=threshold,
                               dtype=dtype, **engine_kwargs)
        self._plan = plan
        self._spec = spec
        self._tracer = tracer
        self._t0 = (time.perf_counter() if trace_origin is None
                    else trace_origin)
        if spec.backend == "threads":
            # a request runs the serial twin as one task; the row's workers
            # are the pool's, one request each
            pool_width = kwargs.get("workers")
            self._row, self._engine_kwargs = resolve(serial_twin(spec.name), dtype=dtype)
        else:
            # the pool only sequences submissions (the process engine runs
            # on its worker-process pool, so width 1 avoids oversubscription)
            pool_width = 1
            self._row, self._engine_kwargs = spec, kwargs
        # pre-build on this (caller) thread what a request reads from the
        # symbolic cache, so worker threads only ever read it: the index
        # under the running row's bodies (a process row's whole DAG plan),
        # the update path's walk tables, the panel layout and the Python
        # solve walk's shapes (where no compiler built the walk) — and on a
        # row that borrows work storages, the plan's first one
        row, symb = self._row, plan.symb
        path_tables(symb)
        _panel_layout(symb)
        solve_shapes(symb)
        if self.borrows_work:
            with plan._work_storage(self._engine_kwargs.get("dtype", np.float64)):
                pass
        if row.backend == "process":
            dag_plan(symb, row.granularity)
        else:  # the serial loop's index and workspace size
            (assembly_index if row.family == "rl" else pair_index)(symb)
            update_workspace_entries(symb)
        if pool is not None:
            if workers is not None and spec.backend == "threads":
                raise ValueError("pass either workers= or pool=, not both")
            self._pool = pool
            self._owns_pool = False
            self.workers = None  # the width belongs to the pool's owner
        else:
            # resolved here: ThreadPoolExecutor(None) is min(32, cpus + 4)
            self.workers = _resolve_workers(pool_width)
            self._pool = ThreadPoolExecutor(self.workers, thread_name_prefix="repro-serve")
            self._owns_pool = True
        self._tasks = set()  # the pool futures of queued or running requests
        self._submitted = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def plan(self):
        """The shared :class:`SymbolicPlan`."""
        return self._plan

    @property
    def engine(self):
        """Name of the engine the session was opened with (a served
        :class:`Factor` names the engine that ran: a threaded row's serial
        twin)."""
        return self._spec.name

    @property
    def borrows_work(self):
        """Whether a ``submit_solve`` factors in one of the plan's work
        storages: on the rows that run a registry ``into`` body — ``rl``,
        ``rlb`` and the threads rows, which serve them."""
        return self._row.into is not None

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
        """Drain every in-flight submission, then shut the worker pool down.
        Futures already handed out keep resolving during the drain.
        A session bound to an external ``pool=`` only marks itself closed —
        the pool belongs to its owner (the gateway) and keeps running."""
        self._closed = True
        if self._owns_pool:
            # a chained update enqueues from its parent's task, and a shut
            # down executor refuses submit: wait until no task is left that
            # could still enqueue one
            while pending := [f for f in self._tasks.copy() if not f.done()]:
                wait(pending)
            self._pool.shutdown()

    # ------------------------------------------------------------------
    def _enqueue(self, request, label, index, future):
        """``request()`` as ONE pool task resolving ``future`` with what it
        returns, under the session's contracts: the task claims ``future``
        first and does nothing once it is cancelled, its span is traced
        (when the session has a tracer), a non-SPD failure is annotated
        with ``stream_index``, every failure lands on ``future``."""

        def task(_):
            if not future.set_running_or_notify_cancel():
                return
            try:
                result = request()
            except BaseException as exc:  # lands on the future, as in the executor
                if isinstance(exc, NotPositiveDefiniteError):
                    exc = NotPositiveDefiniteError.for_stream(exc, index)
                future.set_exception(exc)
            else:
                future.set_result(result)

        if self._tracer is not None:
            task = _traced_run(task, lambda _: label, self._tracer, self._t0)
        queued = self._pool.submit(task, None)
        self._tasks.add(queued)
        queued.add_done_callback(self._tasks.discard)

    def _submit(self, values, dtype, label, answer=None):
        """Enqueue one factorization request; returns its future.  The
        values are validated and copied here, on the caller thread; the
        task is the plan's one request body (:meth:`SymbolicPlan._request`)
        with the running row, resolving to the :class:`Factor` — stamped
        with ``stream_index`` and ``wall_seconds`` — or, given ``answer``,
        to ``answer(factor)``.  ``dtype`` overrides the session's default
        factor precision for this submission only."""
        if self._closed:
            raise RuntimeError("serving session is closed")
        plan = self._plan
        index = self._submitted
        row, kwargs = self._row, self._engine_kwargs
        if dtype is not None:
            kwargs = dict(kwargs, dtype=resolve(self.engine, dtype=dtype)[1]["dtype"])
        matrix = plan._original_matrix(plan._values_of(values))  # copies: the Factor owns it
        t0 = time.perf_counter()

        def request():
            if answer is not None:
                return plan._request(row, kwargs, matrix, answer)
            return plan._request(row, kwargs, matrix, records={"stream_index": index}, since=t0)

        future = Future()
        self._enqueue(request, f"{label}:{index}", index, future)
        self._submitted += 1
        return future

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
        return self._submit(values, dtype, "factorize")

    def submit_solve(self, values, b, *, refine=False, tol=1e-14,
                     max_iter=5, dtype=None):
        """Enqueue factorize + solve; returns a future resolving to the
        solution ``x`` of ``A(values) x = b``.

        The answer, right after the factorization in the same pool task, is
        ``refine(factor.matrix, factor.storage, factor.plan.perm, b,
        tol=tol, max_iter=max_iter if refine else 0, stall_ratio=None).x``
        (:func:`repro.solve.refine.refine`): without ``refine`` the plain
        :meth:`Factor.solve`, with it ``factor.solve_refined(b, tol=tol,
        max_iter=max_iter, stall_ratio=None, fallback=False)``, bit for
        bit.  ``b`` (``(n,)`` or ``(n, k)``) is validated and copied at
        submit; the caller may reuse its buffer afterwards.

        ``dtype`` overrides the session's default factor precision for
        this submission.  Pair ``dtype=numpy.float32`` with
        ``refine=True`` for the mixed-precision serving lane: single
        precision factorization and solves, fp64 residuals and ``x``
        (``refine=False`` solves in float64, as :meth:`Factor.solve`
        does).  The served chain caps at ``max_iter`` without the
        fp64-refactorize stall fallback of :meth:`Factor.solve_refined`
        (stall recovery needs a second factorization — do that through
        :meth:`submit` + :meth:`Factor.solve_refined` when the system is
        ill-conditioned enough to need it).
        """
        _check_refinement(tol, max_iter)  # raised here, not on the future
        b = check_rhs(self._plan.n, b, "b")
        steps = max_iter if refine else 0

        def solve(factor):
            # refine(..., stall_ratio=None) of the b validated above
            return _refine(factor.matrix, factor.storage, factor.plan.perm, b,
                           tol=tol, max_iter=steps).x

        return self._submit(values, dtype, "solve", solve)

    def submit_update(self, factor, W, *, b=None, downdate=False,
                      policy="update", on_factor=None):
        """Enqueue a rank-k update/downdate of ``factor`` on the session's
        pool; returns a future resolving to the NEW :class:`Factor` (or,
        with ``b``, to the solution of the *updated* system).

        ``factor`` is a :class:`Factor` of this session's plan or a future
        from :meth:`submit` / a previous ``submit_update`` — chaining
        futures streams a whole update trajectory without ever blocking
        the submitting thread.  The request is :meth:`Factor.apply` and,
        with ``b`` (copied at submit), ``new_factor.solve(b)`` on the new
        factor's own plan, as one pool task under the session's
        failure-isolation contract: a downdate that destroys positive
        definiteness (or an uncontained pattern under ``policy="update"``)
        rejects *this* future only, annotated with ``stream_index``; the
        parent factor and every other submission are untouched (updates
        are copy-on-write); a NaN or ±Inf entry of ``W`` raises
        :class:`~repro.dense.kernels.NonFiniteValuesError` here, at
        submission.  ``policy`` is :meth:`Factor.apply`'s knob —
        ``"update"`` (default) forces the path sweep, ``"auto"`` lets the
        modeled crossover fall back to a refactorize inside the task (on a
        new plan when ``W`` grows the pattern).

        ``on_factor(new_factor)``, if given, runs on the worker thread as
        soon as the updated factor exists — before any solve — so callers
        resolving the future to ``x`` can still observe the factor (the
        gateway records it as the pattern's next update base).
        """
        if self._closed:
            raise RuntimeError("serving session is closed")
        index = self._submitted
        future = Future()
        # captured — and, like a NaN ``b``, refused — at submit
        W = np.array(check_real(W, "update vectors"), dtype=np.float64, copy=True)
        W = check_finite(W, "update vectors")
        if b is not None:
            b = check_rhs(self._plan.n, b, "b")

        def enqueue(parent):
            def request():
                new_factor = parent.apply(W, policy=policy, downdate=downdate)
                if on_factor is not None:
                    on_factor(new_factor)
                return new_factor if b is None else new_factor.solve(b)

            self._enqueue(request, f"update:{index}", index, future)

        if isinstance(factor, Future):
            # chained submission: enqueue once the parent resolves — the
            # callback may run on a worker thread, inside the parent's task
            def chain(parent_future):
                if parent_future.cancelled():
                    future.cancel()  # nothing to update: the chain ends here
                elif parent_future.exception() is None:
                    try:
                        enqueue(parent_future.result())
                    except RuntimeError as exc:  # a shared pool shut down by its owner
                        if future.set_running_or_notify_cancel():
                            future.set_exception(exc)
                elif future.set_running_or_notify_cancel():
                    future.set_exception(parent_future.exception())

            factor.add_done_callback(chain)
        else:
            enqueue(factor)
        self._submitted += 1
        return future
