"""Numeric factorization engines: RL / RLB (CPU), their GPU-offloaded
variants, and factor storage."""

from .storage import FactorStorage, ScatterPlan
from .result import FactorizeResult
from .rl import (
    factorize_rl_cpu,
    snode_update,
    assemble_update,
    update_workspace_entries,
)
from .rlb import (
    factorize_rlb_cpu,
    compute_block_pair,
    commit_block_pair,
)
from .executor import (
    factorize_executor,
    GRANULARITIES,
    default_workers,
)
from .rl_gpu import factorize_rl_gpu
from .rlb_gpu import factorize_rlb_gpu
from .procpool import (
    ProcessPool,
    WorkerDiedError,
    factorize_process,
    default_process_pool,
    close_default_pools,
)
from .blas_limits import BLAS_ENV_VARS, limit_blas_threads, pinned_blas_env
from .planner import MemoryPlan, plan, predict_peak_device_bytes
from .updown import column_structure
from .threshold import (
    DEFAULT_RL_THRESHOLD,
    DEFAULT_RLB_THRESHOLD,
    DEFAULT_DEVICE_MEMORY,
    gpu_snode_mask,
    scaled_panel_entries_array,
)
from .registry import (
    ENGINES,
    EngineSpec,
    engine_names,
    get_engine,
    serial_twin,
)

__all__ = [
    "FactorStorage",
    "ScatterPlan",
    "FactorizeResult",
    "factorize_rl_cpu",
    "factorize_rlb_cpu",
    "factorize_rl_gpu",
    "factorize_rlb_gpu",
    "assemble_update",
    "update_workspace_entries",
    "snode_update",
    "compute_block_pair",
    "commit_block_pair",
    "factorize_executor",
    "ProcessPool",
    "WorkerDiedError",
    "factorize_process",
    "default_process_pool",
    "close_default_pools",
    "BLAS_ENV_VARS",
    "limit_blas_threads",
    "pinned_blas_env",
    "GRANULARITIES",
    "default_workers",
    "ENGINES",
    "EngineSpec",
    "engine_names",
    "get_engine",
    "serial_twin",
    "DEFAULT_RL_THRESHOLD",
    "DEFAULT_RLB_THRESHOLD",
    "DEFAULT_DEVICE_MEMORY",
    "gpu_snode_mask",
    "scaled_panel_entries_array",
    "MemoryPlan",
    "plan",
    "predict_peak_device_bytes",
    "column_structure",
]
