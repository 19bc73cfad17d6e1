"""Device-memory planning: which engine fits on the GPU, *before* running.

The paper's Table I footnote — "nlpkkt120 could not be run because its
largest update matrix is too big to store on GPU" while RLB-v2 succeeds —
is a static property of the symbolic factorization.  This module predicts
each GPU engine's peak device working set from the structure alone:

* **RL**: panel + full update matrix of the largest offloaded supernode
  (``mw + b²`` entries, dilated);
* **RLB v2**: panel + the ``inflight`` largest pair-update buffers (only
  small blocks ever coexist on the device — the low-memory design);
* **RLB v1**: panel + *all* pair buffers of the supernode (≈ the lower
  triangle of the full update matrix — why the paper says v1 has no
  advantage over RL).

``plan()`` compares the predictions against a device capacity and
recommends the fastest feasible engine, reproducing the paper's
"RL if it fits, RLB v2 otherwise" decision rule; the predictions are
validated against the simulator's measured peaks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.costmodel import MachineModel
from ..symbolic.blocks import pair_index
from .threshold import (
    DEFAULT_DEVICE_MEMORY,
    DEFAULT_RL_THRESHOLD,
    DEFAULT_RLB_THRESHOLD,
)

__all__ = ["predict_peak_device_bytes", "MemoryPlan", "plan"]

#: Engines the planner understands, in the paper's preference order.
_ENGINES = ("rl_gpu", "rlb_gpu_v2", "rlb_gpu_v1")


def _offloaded(symb, machine, threshold):
    m = np.diff(symb.rowptr)
    w = np.diff(symb.snptr)
    for s in range(symb.nsup):
        if machine.scaled_panel_entries(int(m[s] * w[s])) >= threshold:
            yield s, int(m[s]), int(w[s])


def predict_peak_device_bytes(symb, *, method="rl_gpu", machine=None,
                              threshold=None, inflight=2):
    """Predicted peak device memory (dilated bytes) of ``method``.

    Returns 0.0 when no supernode crosses the threshold.  The prediction is
    an upper bound that is tight for RL (its working set is deterministic)
    and within the double-buffering slack for RLB v2.
    """
    if method not in _ENGINES:
        raise ValueError(f"unknown method {method!r}; one of {_ENGINES}")
    machine = machine or MachineModel()
    if threshold is None:
        threshold = (DEFAULT_RLB_THRESHOLD if method.startswith("rlb")
                     else DEFAULT_RL_THRESHOLD)
    peak = 0.0
    for s, m, w in _offloaded(symb, machine, threshold):
        b = m - w
        panel = machine.scaled_bytes(8.0 * m * w)
        if method == "rl_gpu":
            need = panel + machine.scaled_bytes(8.0 * b * b)
        else:
            index = pair_index(symb)
            pairs = slice(index.pair_ptr[s], index.pair_ptr[s + 1])
            entries = index.blk_len[index.upper[pairs]] * index.blk_len[index.lower[pairs]]
            sizes = sorted((machine.scaled_bytes(8.0 * e) for e in entries.tolist()),
                           reverse=True)
            if method == "rlb_gpu_v1":
                need = panel + sum(sizes)
            else:
                need = panel + sum(sizes[:inflight])
        peak = max(peak, need)
    return peak


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
    machine = machine or MachineModel()
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
