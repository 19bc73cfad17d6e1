"""Unified factorization-engine registry.

One table row per engine: ``(name, callable, family, backend)``.  Which
keyword arguments a row takes is not typed in — :attr:`EngineSpec.accepts`
is read off the callable's own signature — and every place a request
enters (:meth:`repro.api.SymbolicPlan.factorize` / ``factorize_batch`` /
``serve``, :class:`repro.serving.Gateway`, the CLI's ``--engine``) asks
:func:`resolve` which engine runs and with which arguments, so a new engine
is registered exactly once, every row can be served, and every door gives
the same answer.

``family`` names the algorithm a row runs (``"rl"`` — the per-supernode RL
bodies, the coarse DAG; ``"rlb"`` — one body per block pair, the fine DAG;
the CPU backends schedule whole task ranges of either,
:mod:`repro.symbolic.ranges`).  ``backend`` names what schedules it:

``"serial"``
    One supernode after another on the host; modeled best-over-threads
    timing, real BLAS numerics.
``"threads"``
    The task DAG on a worker-thread pool (:mod:`repro.numeric.executor`);
    measured wall-clock.  A serving session runs the row's serial twin as
    one pool task per submission, like every other row's submission.
``"gpu"``
    Offload to the simulated device; modeled seconds.  Each row's clock is
    the paper's host loop over the supernodes driving one device, walked
    on the pattern (:func:`~repro.numeric.rl_gpu.gpu_schedule`), and its
    factor is the serial twin's body
    (:func:`~repro.numeric.rl_gpu.factorize_rl_gpu`,
    :func:`~repro.numeric.rlb_gpu.factorize_rlb_gpu` versions 2 and 1).
``"process"``
    The coarse task DAG drained by a persistent worker-process pool over
    shared-memory panels (:mod:`repro.numeric.procpool`); rl only.

Within a family the backends are interchangeable — factors are
bit-identical — which is what :func:`serial_twin` looks up.  A row is
named, never re-targeted: ``engine="rlb_gpu_v2"``, not ``engine="rlb"``
plus a substrate.  The rows, as
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
from .rl import _factorize_rl_in, factorize_rl_cpu
from .rl_gpu import factorize_rl_gpu
from .rlb import _factorize_rlb_in, factorize_rlb_cpu
from .rlb_gpu import factorize_rlb_gpu, factorize_rlb_gpu_v1

__all__ = [
    "EngineSpec",
    "ENGINES",
    "engine_names",
    "engine_table",
    "get_engine",
    "serial_twin",
    "resolve",
]

#: Task-DAG granularity of each family (the inverse of the executor's map).
_GRANULARITY = {family: g for g, family in _FAMILY.items()}


@dataclass(frozen=True)
class EngineSpec:
    """One registered factorization engine.

    ``fn(symb, A, **fixed, **options)`` runs the engine.  ``family`` is
    ``"rl"`` | ``"rlb"`` and ``backend`` is ``"serial"`` |
    ``"threads"`` | ``"gpu"`` | ``"process"`` (see the module docstring).
    ``accepts`` — the option names a caller may pass — is computed from
    ``fn``'s signature: every parameter after ``(symb, A)`` that ``fixed``
    does not already bind.  ``into(storage, **options)``, on the serial
    rows only and never a caller's option, runs the engine on a storage
    already holding the values (a served request's work storage).
    """

    name: str
    fn: Callable
    fixed: dict = field(default_factory=dict)
    family: str | None = None
    backend: str = "serial"
    description: str = ""
    into: Callable | None = None
    accepts: frozenset = field(init=False)

    def __post_init__(self):
        params = list(inspect.signature(self.fn).parameters)[2:]
        object.__setattr__(self, "accepts", frozenset(params) - set(self.fixed))

    @property
    def granularity(self):
        """Task-DAG granularity of the row's family (rl: ``"coarse"``,
        rlb: ``"fine"``)."""
        return _GRANULARITY.get(self.family)


def _row(name, fn, family, backend, description, into=None, **fixed):
    """A table row; the DAG callables are bound to the family's
    granularity."""
    if "granularity" in inspect.signature(fn).parameters:
        fixed["granularity"] = _GRANULARITY[family]
    return EngineSpec(name, fn, fixed, family, backend, description, into)


_ROWS = (
    _row("rl", factorize_rl_cpu, "rl", "serial", "right-looking, full update matrix",
         into=_factorize_rl_in),
    _row("rlb", factorize_rlb_cpu, "rlb", "serial", "right-looking blocked, in-place updates",
         into=_factorize_rlb_in),
    _row("rl_par", factorize_executor, "rl", "threads", "coarse DAG on worker threads"),
    _row("rlb_par", factorize_executor, "rlb", "threads", "fine DAG on worker threads"),
    _row("rl_gpu", factorize_rl_gpu, "rl", "gpu", "RL offload (Table I): per-supernode loop"),
    _row("rlb_gpu_v2", factorize_rlb_gpu, "rlb", "gpu", "RLB offload v2 (Table II)", version=2),
    _row("rl_proc", factorize_process, "rl", "process", "coarse DAG on worker processes"),
    _row("rlb_gpu_v1", factorize_rlb_gpu_v1, "rlb", "gpu", "RLB offload v1: one batched D2H"),
)

#: Engine name -> :class:`EngineSpec`; the single source of truth.
ENGINES = {spec.name: spec for spec in _ROWS}

#: family -> its one serial row (two gpu rows share ``("rlb", "gpu")``).
_SERIAL = {spec.family: spec.name for spec in _ROWS if spec.backend == "serial"}


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
    likewise ``rlb``, ``rlb_gpu_v1`` included).  Unknown names raise like
    :func:`get_engine`."""
    return _SERIAL[get_engine(name).family]


def _names(rows):
    """The names of ``rows``, sorted, for an error message."""
    return ", ".join(sorted(spec.name for spec in rows)) or "no engine"


def resolve(engine, **options):
    """Which engine runs and with which keyword arguments:
    ``(spec, kwargs)`` such that ``spec.fn(symb, A, **kwargs)`` is the
    request.

    Options that are ``None`` mean "not given".  An option the row's
    callable does not take — or one its name already fixes — raises ONE
    ``ValueError`` naming the option, the engine and the engines that do
    accept it.  ``workers`` must be >= 1 and ``dtype`` passes
    through :func:`~repro.dense.kernels.check_dtype` (unsupported dtypes
    raise :class:`~repro.dense.kernels.UnsupportedDtypeError`).
    """
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
        lines.append(f"| `{spec.name}` | {spec.family} | {spec.backend} | {options} |")
    return "\n".join(lines)


__doc__ += "\n" + engine_table() + "\n"

