"""Unified factorization-engine registry.

One table row per engine: ``(name, callable, family, backend)``.  Which
keyword arguments a row takes is not typed in — :attr:`EngineSpec.accepts`
is read off the callable's own signature — and every place a request
enters (:meth:`repro.api.SymbolicPlan.factorize` / ``factorize_batch`` /
``serve``, :class:`repro.serving.Gateway`, the CLI's ``--engine`` /
``--backend``) asks :func:`resolve` which engine runs and with which
arguments, so a new engine is registered exactly once, every row can be
served, and every door gives the same answer.

``family`` names the algorithm a row runs (``"rl"`` — the per-supernode RL
bodies, the coarse DAG; ``"rlb"`` — one body per block pair, the fine DAG;
the CPU backends schedule whole task ranges of either,
:mod:`repro.symbolic.ranges`; ``None`` for the one row with no serial twin,
the paper's negative-result ``rlb_gpu_v1``).  ``backend`` names what
schedules it:

``"serial"``
    One supernode after another on the host; modeled best-over-threads
    timing, real BLAS numerics.
``"threads"``
    The task DAG on a worker-thread pool (:mod:`repro.numeric.executor`);
    measured wall-clock.  A serving session drains these rows' tasks
    across its pool; every other row runs a submission as one pool task.
``"gpu"``
    Offload to the simulated device; modeled seconds.  Each row is the
    paper's host loop over the supernodes driving one device
    (:func:`~repro.numeric.rl_gpu.factorize_rl_gpu`,
    :func:`~repro.numeric.rlb_gpu.factorize_rlb_gpu` versions 2 and 1).
``"process"``
    The task DAG drained by a persistent worker-process pool over
    shared-memory panels (:mod:`repro.numeric.procpool`).

Within a family the backends are interchangeable — factors are
bit-identical — which is what :func:`backend_engine` ("run rlb on the
gpu") and :func:`serial_twin` look up.  The rows, as
:func:`engine_table` prints them (``docs/backends.md`` and the README carry
the same block) — appended below.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, field
from typing import Callable

from ..dense.kernels import check_dtype
from .executor import _FAMILY, factorize_executor
from .procpool import factorize_process
from .rl import factorize_rl_cpu
from .rl_gpu import factorize_rl_gpu
from .rlb import factorize_rlb_cpu
from .rlb_gpu import factorize_rlb_gpu, factorize_rlb_gpu_v1

__all__ = [
    "EngineSpec",
    "ENGINES",
    "BACKENDS",
    "engine_names",
    "engine_table",
    "get_engine",
    "serial_twin",
    "backend_engine",
    "resolve",
    "SolveModeSpec",
    "SOLVE_MODES",
    "solve_mode_names",
    "get_solve_mode",
]

#: Task-DAG granularity of each family (the inverse of the executor's map).
_GRANULARITY = {family: g for g, family in _FAMILY.items()}


@dataclass(frozen=True)
class EngineSpec:
    """One registered factorization engine.

    ``fn(symb, A, **fixed, **options)`` runs the engine.  ``family`` is
    ``"rl"`` | ``"rlb"`` | ``None`` and ``backend`` is ``"serial"`` |
    ``"threads"`` | ``"gpu"`` | ``"process"`` (see the module docstring).
    ``accepts`` — the option names a caller may pass — is computed from
    ``fn``'s signature: every parameter after ``(symb, A)`` that ``fixed``
    does not already bind.
    """

    name: str
    fn: Callable
    fixed: dict = field(default_factory=dict)
    family: str | None = None
    backend: str = "serial"
    description: str = ""
    accepts: frozenset = field(init=False)

    def __post_init__(self):
        params = list(inspect.signature(self.fn).parameters)[2:]
        object.__setattr__(self, "accepts", frozenset(params) - set(self.fixed))

    @property
    def granularity(self):
        """Task-DAG granularity of the row's family (rl: ``"coarse"``,
        rlb: ``"fine"``); ``None`` without a family."""
        return _GRANULARITY.get(self.family)


def _row(name, fn, family, backend, description, **fixed):
    """A table row; the DAG callables are bound to the family's
    granularity."""
    if "granularity" in inspect.signature(fn).parameters:
        fixed["granularity"] = _GRANULARITY[family]
    return EngineSpec(name, fn, fixed, family, backend, description)


_ROWS = (
    _row("rl", factorize_rl_cpu, "rl", "serial", "right-looking, full update matrix"),
    _row("rlb", factorize_rlb_cpu, "rlb", "serial", "right-looking blocked, in-place updates"),
    _row("rl_par", factorize_executor, "rl", "threads", "coarse DAG on worker threads"),
    _row("rlb_par", factorize_executor, "rlb", "threads", "fine DAG on worker threads"),
    _row("rl_gpu", factorize_rl_gpu, "rl", "gpu", "RL offload (Table I): per-supernode loop"),
    _row("rlb_gpu_v2", factorize_rlb_gpu, "rlb", "gpu", "RLB offload v2 (Table II)", version=2),
    _row("rl_proc", factorize_process, "rl", "process", "coarse DAG on worker processes"),
    _row("rlb_proc", factorize_process, "rlb", "process", "fine DAG on worker processes"),
    _row("rlb_gpu_v1", factorize_rlb_gpu_v1, None, "gpu", "RLB offload v1: one batched D2H"),
)

#: Engine name -> :class:`EngineSpec`; the single source of truth.  Rows
#: with a family are unique on ``(family, backend)``.
ENGINES = {spec.name: spec for spec in _ROWS}

#: ``(family, backend)`` -> row name, over the rows with a family.
_BY_COLUMNS = {(spec.family, spec.backend): spec.name for spec in _ROWS if spec.family}

#: Public backend names -> the DAG engine of each task granularity:
#: ``BACKENDS["gpu"]["fine"] == "rlb_gpu_v2"``.  The ``--backend`` choices.
BACKENDS = {}
for (_family, _backend), _name in _BY_COLUMNS.items():
    if _backend != "serial":
        BACKENDS.setdefault(_backend, {})[_GRANULARITY[_family]] = _name


def engine_names():
    """Sorted names of every registered engine."""
    return sorted(ENGINES)


def get_engine(name):
    """The :class:`EngineSpec` for ``name``; raises ``ValueError`` (listing
    the valid names) when unknown."""
    spec = ENGINES.get(name)
    if spec is None:
        raise ValueError(f"unknown engine {name!r}; choose from {engine_names()}")
    return spec


def serial_twin(name):
    """The serial engine of ``name``'s family — bit-identical factors on
    one host thread (``rl_par`` / ``rl_gpu`` / ``rl_proc`` -> ``rl``,
    likewise ``rlb``); engines without a family map to themselves.  Unknown
    names raise like :func:`get_engine`."""
    spec = get_engine(name)
    return _BY_COLUMNS.get((spec.family, "serial"), spec.name)


def _names(rows):
    """The names of ``rows``, sorted, for an error message."""
    return ", ".join(sorted(spec.name for spec in rows)) or "no engine"


def backend_engine(name, backend):
    """The engine running ``name``'s task DAG on ``backend``.

    ``backend`` is a :data:`BACKENDS` key (``"threads"``, ``"gpu"``,
    ``"process"``); ``name`` is any engine with a family.
    Raises ``ValueError`` for unknown backends or family-less engines.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")
    spec = get_engine(name)
    if spec.family is None:
        raise ValueError(
            f"engine {name!r} has no task-DAG family; backends apply to the "
            f"RL/RLB families ({_names(s for s in _ROWS if s.family)})"
        )
    return _BY_COLUMNS[spec.family, backend]


def resolve(engine, backend=None, **options):
    """Which engine runs and with which keyword arguments:
    ``(spec, kwargs)`` such that ``spec.fn(symb, A, **kwargs)`` is the
    request.

    ``backend`` re-targets ``engine`` through :func:`backend_engine`;
    options that are ``None`` mean "not given".  An option the row's
    callable does not take — or one its name already fixes — raises ONE
    ``ValueError`` naming the option, the engine and the engines that do
    accept it.  ``workers`` must be >= 1 and ``dtype`` passes
    through :func:`~repro.dense.kernels.check_dtype` (unsupported dtypes
    raise :class:`~repro.dense.kernels.UnsupportedDtypeError`).
    """
    if backend is not None:
        engine = backend_engine(engine, backend)
    spec = get_engine(engine)
    options = {k: v for k, v in options.items() if v is not None}
    for key in options:
        if key not in spec.accepts:
            verb = "fixed" if key in spec.fixed else "not accepted"
            raise ValueError(
                f"{key}= is {verb} by engine {spec.name!r}; "
                f"accepted by: {_names(s for s in _ROWS if key in s.accepts)}"
            )
    if "workers" in options:
        options["workers"] = operator.index(options["workers"])  # 2.5 is a TypeError
        if options["workers"] < 1:
            raise ValueError("workers must be >= 1")
    if "dtype" in options:
        options["dtype"] = check_dtype(options["dtype"], context="storage")
    return spec, {**spec.fixed, **options}


def engine_table():
    """The engine table as GitHub-flavoured markdown, one line per row:
    name, family, backend, accepted options — generated, so the docs
    cannot drift from the callables."""
    lines = ["| engine | family | backend | accepted options |", "|---|---|---|---|"]
    for spec in _ROWS:
        options = ", ".join(f"`{o}`" for o in sorted(spec.accepts))
        lines.append(f"| `{spec.name}` | {spec.family or '—'} | {spec.backend} | {options} |")
    return "\n".join(lines)


__doc__ += "\n" + engine_table() + "\n"


# ---------------------------------------------------------------------------
# Solve-side dispatch.  The triangular sweeps are one algorithm under two
# *schedules*; this table is the one place their public names live, shared
# by :meth:`repro.api.Factor.solve`, the CLI ``solve --workers`` path and
# the docs (mirror of the factorization ENGINES table above).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SolveModeSpec:
    """One registered triangular-solve schedule.

    ``parallel`` marks the modes that accept ``workers=`` (executed by the
    task-graph runtime); ``offload`` marks the simulated-device mode (the
    solve graphs' modeled device clock,
    :func:`~repro.solve.gpu_solve.solve_factored_gpu_dag`).
    All modes produce bit-identical solutions — every schedule preserves the
    serial sweeps' accumulation order.
    """

    name: str
    parallel: bool
    description: str
    offload: bool = False


#: Solve-mode name -> :class:`SolveModeSpec`; the solve-side registry.
SOLVE_MODES = {
    spec.name: spec
    for spec in (
        SolveModeSpec("serial", False, "one supernode after another (the historical sweeps)"),
        SolveModeSpec("level", True, "level schedule on the task-graph runtime; accepts workers="),
        SolveModeSpec("gpu", False, "solve graphs on simulated-GPU streams", offload=True),
    )
}


def solve_mode_names():
    """Sorted names of every registered solve mode."""
    return sorted(SOLVE_MODES)


def get_solve_mode(name):
    """The :class:`SolveModeSpec` for ``name``; raises ``ValueError``
    (listing the valid names) when unknown."""
    spec = SOLVE_MODES.get(name)
    if spec is None:
        raise ValueError(f"unknown solve mode {name!r}; choose from {solve_mode_names()}")
    return spec
