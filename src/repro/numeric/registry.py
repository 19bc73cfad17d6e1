"""Unified factorization-engine registry.

One table maps every public engine name to its callable, its fixed keyword
arguments and a coarse *kind* tag.  The staged ``plan → Factor`` API
(:mod:`repro.api`), the legacy :class:`~repro.solve.driver.CholeskySolver`
facade and the CLI all resolve engines here, so a new engine is registered
exactly once.

Kinds
-----
``"cpu"``
    Serial CPU engines (``rl``, ``rlb``, baselines).  Modeled
    best-over-threads timing; real BLAS numerics.
``"threaded"``
    The task-DAG worker-pool engines (``rl_par``, ``rlb_par``) of
    :mod:`repro.numeric.executor`.  Accept ``workers=``; also the engines
    that power batched same-pattern serving
    (:meth:`repro.api.SymbolicPlan.factorize_batch`).
``"gpu"``
    Simulated-device offload engines.  Accept ``threshold=`` /
    ``device=`` / ``machine=``.
``"stream"``
    The DAG-scheduled GPU engines (``rl_gpu_dag``, ``rlb_gpu_dag``) of
    :mod:`repro.numeric.gpu_dag`: the task-DAG runtime on a
    :class:`~repro.numeric.executor.GpuStreamBackend`.  Accept
    ``devices=`` / ``threshold=`` / ``machine=`` / ``tracer=``.
``"hybrid"``
    The heterogeneous engines (``rl_hybrid``, ``rlb_hybrid``) of
    :func:`repro.numeric.gpu_dag.factorize_hybrid`: one task DAG across
    measured CPU worker lanes and modeled GPU stream lanes on a
    :class:`~repro.numeric.executor.HybridBackend`.  Accept ``workers=``
    AND ``devices=`` / ``threshold=`` / ``machine=`` / ``tracer=``.
``"process"``
    The multiprocess engines (``rl_proc``, ``rlb_proc``) of
    :mod:`repro.numeric.procpool`: the same task DAGs drained by a
    persistent worker-process pool over shared-memory panels — real
    parallelism for the GIL-bound scatter/commit python.  Accept
    ``workers=`` / ``start_method=`` / ``tracer=``.

:data:`BACKENDS` maps the public backend names of
``plan.factorize(..., backend=...)`` and the CLI ``--backend`` flag to the
engine of each task-DAG granularity; :func:`backend_engine` resolves an
engine name onto a backend ("run rlb's fine DAG on gpu streams").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .executor import factorize_executor
from .gpu_dag import factorize_gpu_dag, factorize_hybrid
from .left_looking import factorize_left_looking
from .left_looking_gpu import factorize_left_looking_gpu
from .multifrontal import factorize_multifrontal, factorize_multifrontal_gpu
from .procpool import factorize_process
from .rl import factorize_rl_cpu
from .rl_gpu import factorize_rl_gpu
from .rlb import factorize_rlb_cpu
from .rlb_gpu import factorize_rlb_gpu

__all__ = [
    "EngineSpec",
    "ENGINES",
    "BACKENDS",
    "engine_names",
    "get_engine",
    "serial_twin",
    "backend_engine",
    "SolveModeSpec",
    "SOLVE_MODES",
    "solve_mode_names",
    "get_solve_mode",
]


@dataclass(frozen=True)
class EngineSpec:
    """One registered factorization engine.

    ``fn(symb, A, **fixed, **user_kwargs)`` runs the engine; ``kind`` is
    ``"cpu"`` | ``"threaded"`` | ``"gpu"`` (see module docstring);
    ``granularity`` is set for threaded engines only and names the task-DAG
    granularity the executor uses for it.  ``supports_dtype`` marks the
    engines whose callable accepts a ``dtype=`` keyword (the RL/RLB
    families' mixed-precision lane; see :doc:`docs/precision`) — the staged
    API rejects ``dtype=np.float32`` for engines without it rather than
    passing an unknown keyword through.
    """

    name: str
    fn: Callable
    kind: str
    fixed: dict = field(default_factory=dict)
    granularity: str | None = None
    description: str = ""
    supports_dtype: bool = False

    @property
    def is_gpu(self) -> bool:
        return self.kind == "gpu"

    @property
    def is_threaded(self) -> bool:
        return self.kind == "threaded"

    @property
    def is_stream(self) -> bool:
        return self.kind == "stream"

    @property
    def is_hybrid(self) -> bool:
        return self.kind == "hybrid"

    @property
    def is_process(self) -> bool:
        return self.kind == "process"


def _spec(name, fn, kind, fixed=None, granularity=None, description="",
          supports_dtype=False):
    return EngineSpec(name=name, fn=fn, kind=kind, fixed=dict(fixed or {}),
                      granularity=granularity, description=description,
                      supports_dtype=supports_dtype)


#: Engine name -> :class:`EngineSpec`; the single source of truth.
ENGINES = {
    spec.name: spec
    for spec in (
        _spec("rl", factorize_rl_cpu, "cpu", supports_dtype=True,
              description="right-looking, full update matrix (serial)"),
        _spec("rlb", factorize_rlb_cpu, "cpu", supports_dtype=True,
              description="right-looking blocked, in-place updates (serial)"),
        _spec("rl_par", factorize_executor, "threaded",
              fixed={"granularity": "coarse"}, granularity="coarse",
              supports_dtype=True,
              description="threaded task-DAG, one task per supernode"),
        _spec("rlb_par", factorize_executor, "threaded",
              fixed={"granularity": "fine"}, granularity="fine",
              supports_dtype=True,
              description="threaded task-DAG, one task per block pair"),
        _spec("rl_gpu", factorize_rl_gpu, "gpu", supports_dtype=True,
              description="RL with large-supernode GPU offload"),
        _spec("rlb_gpu_v1", factorize_rlb_gpu, "gpu", fixed={"version": 1},
              supports_dtype=True,
              description="blocked GPU offload, per-pair transfers"),
        _spec("rlb_gpu_v2", factorize_rlb_gpu, "gpu", fixed={"version": 2},
              supports_dtype=True,
              description="blocked GPU offload, batched transfers"),
        _spec("rl_gpu_dag", factorize_gpu_dag, "stream",
              fixed={"granularity": "coarse"}, granularity="coarse",
              supports_dtype=True,
              description="RL offload pipeline scheduled by the task DAG "
                          "on simulated-GPU streams (devices=N)"),
        _spec("rlb_gpu_dag", factorize_gpu_dag, "stream",
              fixed={"granularity": "fine"}, granularity="fine",
              supports_dtype=True,
              description="RLB v2 per-pair pipeline scheduled by the task "
                          "DAG on simulated-GPU streams (devices=N)"),
        _spec("rl_proc", factorize_process, "process",
              fixed={"granularity": "coarse"}, granularity="coarse",
              supports_dtype=True,
              description="multiprocess coarse DAG over shared-memory "
                          "panels (escapes the GIL; workers=N processes)"),
        _spec("rlb_proc", factorize_process, "process",
              fixed={"granularity": "fine"}, granularity="fine",
              supports_dtype=True,
              description="multiprocess fine DAG over shared-memory "
                          "panels (escapes the GIL; workers=N processes)"),
        _spec("rl_hybrid", factorize_hybrid, "hybrid",
              fixed={"granularity": "coarse"}, granularity="coarse",
              supports_dtype=True,
              description="heterogeneous coarse DAG: small supernodes on "
                          "CPU worker threads, large ones on GPU streams"),
        _spec("rlb_hybrid", factorize_hybrid, "hybrid",
              fixed={"granularity": "fine"}, granularity="fine",
              supports_dtype=True,
              description="heterogeneous fine DAG: small supernodes' block "
                          "pairs on CPU workers, large ones on GPU streams"),
        _spec("left_looking", factorize_left_looking, "cpu",
              description="left-looking baseline (serial)"),
        _spec("left_looking_gpu", factorize_left_looking_gpu, "gpu",
              description="left-looking baseline with GPU offload"),
        _spec("multifrontal", factorize_multifrontal, "cpu",
              description="multifrontal baseline (serial)"),
        _spec("multifrontal_gpu", factorize_multifrontal_gpu, "gpu",
              description="multifrontal baseline with GPU offload"),
    )
}

#: DAG engine of each granularity <-> its serial bit-identity twin.
_SERIAL_TWIN = {
    "rl_par": "rl",
    "rlb_par": "rlb",
    "rl_gpu_dag": "rl_gpu",
    "rlb_gpu_dag": "rlb_gpu_v2",
    "rl_hybrid": "rl",
    "rlb_hybrid": "rlb",
    "rl_proc": "rl",
    "rlb_proc": "rlb",
}

#: Public backend names -> the DAG engine of each task granularity.  One
#: DAG runtime, four scheduling substrates: worker threads (measured
#: wall-clock), simulated-GPU streams (modeled offload), both at once
#: (the hybrid per-task placement), or worker processes over shared
#: memory (measured, GIL-free).  The single source of truth for the
#: ``plan.factorize(backend=...)`` API and the CLI ``--backend`` choices.
BACKENDS = {
    "threads": {"coarse": "rl_par", "fine": "rlb_par"},
    "gpu": {"coarse": "rl_gpu_dag", "fine": "rlb_gpu_dag"},
    "hybrid": {"coarse": "rl_hybrid", "fine": "rlb_hybrid"},
    "process": {"coarse": "rl_proc", "fine": "rlb_proc"},
}


def engine_names():
    """Sorted names of every registered engine."""
    return sorted(ENGINES)


def get_engine(name):
    """The :class:`EngineSpec` for ``name``; raises ``ValueError`` (listing
    the valid names) when unknown."""
    spec = ENGINES.get(name)
    if spec is None:
        raise ValueError(
            f"unknown engine {name!r}; choose from {engine_names()}"
        )
    return spec


def serial_twin(name):
    """The serial engine producing bit-identical factors to the DAG engine
    ``name`` (``rl_par``/``rl_hybrid``/``rl_proc -> rl``,
    ``rlb_par``/``rlb_hybrid``/``rlb_proc -> rlb``, ``rl_gpu_dag ->
    rl_gpu``, ``rlb_gpu_dag -> rlb_gpu_v2``); other engines map to
    themselves."""
    return _SERIAL_TWIN.get(name, name)


def backend_engine(name, backend):
    """The engine running ``name``'s task-DAG granularity on ``backend``.

    ``backend`` is a :data:`BACKENDS` key (``"threads"``, ``"gpu"``,
    ``"hybrid"``); ``name`` is any engine with a DAG granularity
    (``rl_par``, ``rlb_par``, ``rl_gpu_dag``, ``rlb_gpu_dag``,
    ``rl_hybrid``, ``rlb_hybrid``) or a serial engine whose family
    implies one (``rl``/``rl_gpu`` -> coarse, ``rlb``/``rlb_gpu_v*`` ->
    fine).  Raises ``ValueError`` for unknown backends or engines without
    a DAG granularity.
    """
    granularities = BACKENDS.get(backend)
    if granularities is None:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    spec = get_engine(name)
    granularity = spec.granularity
    if granularity is None:
        granularity = {"rl": "coarse", "rl_gpu": "coarse", "rlb": "fine",
                       "rlb_gpu_v1": "fine", "rlb_gpu_v2": "fine"}.get(name)
    if granularity is None:
        raise ValueError(
            f"engine {name!r} has no task-DAG granularity; backends apply "
            "to the RL/RLB families (rl, rl_par, rl_gpu, rl_gpu_dag, "
            "rl_hybrid, rlb, rlb_par, rlb_gpu_v1, rlb_gpu_v2, rlb_gpu_dag, "
            "rlb_hybrid)"
        )
    return granularities[granularity]


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
    task-graph runtime); ``offload`` marks the simulated-device modes that
    accept ``devices=`` (the solve graphs on a
    :class:`~repro.numeric.executor.GpuStreamBackend`).  All modes produce
    bit-identical solutions — every schedule preserves the serial sweeps'
    accumulation order.
    """

    name: str
    parallel: bool
    description: str
    offload: bool = False


#: Solve-mode name -> :class:`SolveModeSpec`; the solve-side registry.
SOLVE_MODES = {
    spec.name: spec
    for spec in (
        SolveModeSpec("serial", False,
                      "one supernode after another (the historical sweeps)"),
        SolveModeSpec("level", True,
                      "elimination-tree level schedule on the threaded "
                      "task-graph runtime; accepts workers="),
        SolveModeSpec("gpu", False,
                      "offloaded sweeps: the forward/backward solve graphs "
                      "on the simulated-GPU stream backend; accepts "
                      "devices=", offload=True),
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
        raise ValueError(
            f"unknown solve mode {name!r}; choose from {solve_mode_names()}"
        )
    return spec
