"""repro — reproduction of *GPU Accelerated Sparse Cholesky Factorization*
(Karsavuran, Ng, Peyton; SC 2024, arXiv:2409.14009).

Right-looking supernodal sparse Cholesky in two variants — **RL** (full
update matrix + relative-index assembly) and **RLB** (blocked, in-place
updates) — with GPU offload of the large dense BLAS calls on a *simulated*
device (memory-capacity accounting, async transfers, calibrated cost model;
see ``docs/backends.md`` and :mod:`repro.gpu.costmodel`), plus a threaded
task-DAG runtime executing the real kernels.

Quickstart — the staged ``plan → Factor`` pipeline::

    import numpy as np
    import repro
    from repro.sparse import grid_laplacian

    A = grid_laplacian((20, 20, 10))
    plan = repro.plan(A)                        # symbolic analysis, once
    factor = plan.factorize(engine="rl_gpu")    # numeric factorization
    x = factor.solve(np.ones(A.n))              # triangular solves

Symbolic reuse, batches and serving
-----------------------------------
Symbolic analysis (ordering, supernodes, relative indices) and the panel
scatter plan depend only on the sparsity pattern, so a sequence of
factorizations with fixed structure and changing values — time stepping,
parameter sweeps, re-weighted least squares — reuses one plan::

    plan = repro.plan(A)
    for data_t in value_stream:                 # same pattern, new values
        x = plan.factorize(data_t).solve(b)     # numeric kernels only

and a closed *batch* is that loop in one call, returning the list of
factors::

    factors = plan.factorize_batch(list_of_values, engine="rl")
    xs = [f.solve(b) for f in factors]

Requests that overlap in time share one worker pool through
``plan.serve(...)`` (a :class:`~repro.api.ServingSession`) or the
multi-tenant :class:`repro.serving.Gateway`; both serve every registered
engine.

Under the hood the relative-index runs, block lists, task DAGs and
value-scatter plan are all memoised on the
:class:`~repro.symbolic.structure.SymbolicFactor` (see
``SymbolicFactor.cache()``), so every engine — CPU, threaded and
simulated-GPU — skips the index bookkeeping on refactorization.

Subpackages
-----------
``repro.sparse``
    Symmetric CSC storage, generators, Matrix Market I/O, benchmark suite.
``repro.ordering``
    Nested dissection (METIS stand-in), minimum degree, RCM.
``repro.symbolic``
    Elimination trees, column counts, supernodes, amalgamation, partition
    refinement, relative indices, blocks.
``repro.dense``
    DPOTRF/DTRSM/DSYRK/DGEMM wrappers + flop counts.
``repro.gpu``
    Simulated device, timeline, transfer engine, cost models.
``repro.numeric``
    The factorization engines (RL, RLB, threaded DAG, GPU variants) and
    the unified engine registry.
``repro.solve``
    Triangular solves, iterative refinement.
``repro.analysis``
    Performance profiles (Dolan–Moré) and report tables.
"""

from .sparse import SymmetricCSC
from .symbolic import analyze, pattern_fingerprint
from .numeric import (
    factorize_rl_cpu,
    factorize_rlb_cpu,
    factorize_rl_gpu,
    factorize_rlb_gpu,
    rank1_update,
    rank_k_update,
)
from .numeric import WorkerDiedError
from .numeric import plan as memory_plan
from .numeric.registry import ENGINES, engine_names, get_engine
from .dense import NonFiniteValuesError, NotPositiveDefiniteError
from .gpu import SimulatedGpu, MachineModel, DeviceOutOfMemory, Tracer
from .api import (
    plan,
    SymbolicPlan,
    SolvePlan,
    Factor,
    ServingSession,
)

__version__ = "1.2.0"

__all__ = [
    "SymmetricCSC",
    "analyze",
    "pattern_fingerprint",
    "plan",
    "SymbolicPlan",
    "SolvePlan",
    "Factor",
    "ServingSession",
    "ENGINES",
    "engine_names",
    "get_engine",
    "NotPositiveDefiniteError",
    "NonFiniteValuesError",
    "WorkerDiedError",
    "factorize_rl_cpu",
    "factorize_rlb_cpu",
    "factorize_rl_gpu",
    "factorize_rlb_gpu",
    "rank1_update",
    "rank_k_update",
    "memory_plan",
    "SimulatedGpu",
    "MachineModel",
    "DeviceOutOfMemory",
    "Tracer",
    "__version__",
]
