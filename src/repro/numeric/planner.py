"""Device-memory planning: which engine fits on the GPU, *before* running.

The paper's Table I footnote — "nlpkkt120 could not be run because its
largest update matrix is too big to store on GPU" while RLB-v2 succeeds —
is a static property of the symbolic factorization.  A gpu row's device
working set is pattern-only, so its peak is read off the row's own schedule
walk (:func:`~repro.numeric.rl_gpu.gpu_schedule`) on an unbounded device —
the simulator's exact peak, not a formula beside it:

* **RL**: panel + full update matrix of the largest offloaded supernode;
* **RLB v2**: panel + the ``inflight`` pair-update buffers in flight (only
  small blocks ever coexist on the device — the low-memory design);
* **RLB v1**: panel + *all* pair buffers of the supernode (≈ the lower
  triangle of the full update matrix — why the paper says v1 has no
  advantage over RL).

``plan()`` compares the predictions against a device capacity and
recommends the fastest feasible engine, reproducing the paper's
"RL if it fits, RLB v2 otherwise" decision rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rl_gpu import gpu_schedule
from .threshold import DEFAULT_DEVICE_MEMORY

__all__ = ["predict_peak_device_bytes", "MemoryPlan", "plan"]

#: Engines the planner understands, in the paper's preference order.
_ENGINES = ("rl_gpu", "rlb_gpu_v2", "rlb_gpu_v1")


def predict_peak_device_bytes(symb, *, method="rl_gpu", machine=None,
                              threshold=None, inflight=2):
    """Peak device memory (dilated bytes, fp64) of ``method``: its
    :func:`~repro.numeric.rl_gpu.gpu_schedule` on an unbounded device.

    Returns 0.0 when no supernode crosses the threshold; ``threshold=None``
    is the row's default.
    """
    if method not in _ENGINES:
        raise ValueError(f"unknown method {method!r}; one of {_ENGINES}")
    walk = gpu_schedule(symb, method, machine=machine, threshold=threshold,
                        device_memory=float("inf"), inflight=inflight)
    return walk.gpu_stats.peak_memory


@dataclass
class MemoryPlan:
    """Outcome of :func:`plan`: per-engine predictions and the pick."""

    device_memory: float
    predictions: dict
    feasible: list
    recommended: str | None

    def headroom(self, method):
        """Fraction of the device left free at the predicted peak."""
        need = self.predictions[method]
        return 1.0 - need / self.device_memory


def plan(symb, *, machine=None, device_memory=DEFAULT_DEVICE_MEMORY,
         thresholds=None, inflight=2):
    """Predict all engines' peaks and recommend one.

    ``thresholds`` optionally maps method name to threshold.  The
    recommendation follows the paper: RL when it fits (fastest), otherwise
    RLB v2 (low memory), otherwise nothing (refactor the problem).
    """
    thresholds = thresholds or {}
    preds = {
        m: predict_peak_device_bytes(
            symb, method=m, machine=machine,
            threshold=thresholds.get(m), inflight=inflight)
        for m in _ENGINES
    }
    feasible = [m for m in _ENGINES if preds[m] <= device_memory]
    recommended = None
    for m in ("rl_gpu", "rlb_gpu_v2"):
        if m in feasible:
            recommended = m
            break
    return MemoryPlan(device_memory=float(device_memory), predictions=preds,
                      feasible=feasible, recommended=recommended)
