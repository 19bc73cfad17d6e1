"""Multi-tenant async serving: the production front door of the staged API.

One :class:`Gateway` accepts arbitrary symmetric-positive-definite systems
from many concurrent tenants, keys them by sparsity-pattern fingerprint
(:func:`repro.pattern_fingerprint`) into an LRU cache of warm
:class:`~repro.api.SymbolicPlan` objects, and multiplexes every
per-pattern :class:`~repro.api.ServingSession` over ONE shared
:class:`concurrent.futures.ThreadPoolExecutor` — symbolic analysis (the
expensive, perfectly-cacheable stage) is paid once per pattern and
amortized across every tenant that shares it.

See ``docs/gateway.md`` for the architecture, admission-control knobs and
metrics table.
"""

from .gateway import (
    Gateway,
    GatewayOverloaded,
    GatewayRejected,
    GatewayStats,
    GatewayTimeout,
    NoBaseFactorError,
    PatternStats,
    TenantBudgetExceeded,
    UnknownPatternError,
    plan_nbytes,
)

__all__ = [
    "Gateway",
    "GatewayStats",
    "PatternStats",
    "GatewayRejected",
    "GatewayOverloaded",
    "TenantBudgetExceeded",
    "GatewayTimeout",
    "UnknownPatternError",
    "NoBaseFactorError",
    "plan_nbytes",
]
