"""Where does the modeled time go?  Per-kernel-class breakdowns.

For a given symbolic factorization and machine model, compute the modeled
seconds each method spends per cost class — ``potrf``, ``trsm``, ``syrk``,
``gemm``, ``assembly``, ``h2d``/``d2h`` transfers and host launch
overhead — without running the numerics.  This is the analysis behind the
paper's design choices: SYRK dominates RL, the update-matrix D2H is the
transfer that matters, and RLB trades one SYRK for many smaller calls.

``breakdown(symb, method=...)`` returns a :class:`Breakdown`;
``render_breakdowns`` formats several into one comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.costmodel import MachineModel
from ..numeric.result import kernel_stream
from ..numeric.threshold import (
    DEFAULT_RL_THRESHOLD,
    DEFAULT_RLB_THRESHOLD,
)

__all__ = ["Breakdown", "breakdown", "render_breakdowns", "COST_CLASSES"]

COST_CLASSES = ("potrf", "trsm", "syrk", "gemm", "assembly", "h2d", "d2h",
                "launch")

_LAUNCH_S = 2.0e-6


@dataclass
class Breakdown:
    """Per-class modeled seconds for one method on one matrix."""

    method: str
    seconds: dict = field(default_factory=dict)

    @property
    def total(self):
        return float(sum(self.seconds.values()))

    def fraction(self, cls):
        """Share of the total in class ``cls``."""
        t = self.total
        return self.seconds.get(cls, 0.0) / t if t else 0.0

    def dominant(self):
        """The most expensive cost class."""
        return max(self.seconds, key=self.seconds.get)


def _add(sec, cls, dt):
    sec[cls] = sec.get(cls, 0.0) + dt


def breakdown(symb, *, method="rl_gpu", machine=None, threshold=None,
              threads=None):
    """Compute the per-class modeled time breakdown of ``method``.

    Methods: ``"rl"``, ``"rlb"`` (CPU; ``threads`` defaults to 128),
    ``"rl_gpu"``, ``"rlb_gpu"`` (GPU with the default thresholds unless
    overridden).  GPU breakdowns ignore overlap — they report *resource
    seconds per class*, not the critical path, which is what a where-does-
    the-time-go analysis wants.

    Every method prices the same :func:`~repro.numeric.result
    .kernel_stream` the engines' modeled report is priced from, so a CPU
    breakdown's total is ``FactorizeResult.cpu_times_by_threads[threads]``
    split by class.
    """
    machine = machine or MachineModel()
    threads = threads or machine.gpu_run_cpu_threads
    gpu = method.endswith("_gpu")
    if threshold is None:
        threshold = (DEFAULT_RL_THRESHOLD if method.startswith("rl_")
                     else DEFAULT_RLB_THRESHOLD) if gpu else 0
    blocked = method.startswith("rlb")
    sec = {}
    for s, kind, m, n, k in kernel_stream(symb, "rlb" if blocked else "rl"):
        if kind == "assembly":  # RL's host scatter pass; m = bytes moved
            _add(sec, kind, machine.assembly_seconds(m, threads=threads))
            continue
        rows, cols = symb.panel_shape(s)
        if not gpu or machine.scaled_panel_entries(rows * cols) < threshold:
            _add(sec, kind,
                 machine.cpu_kernel_seconds(kind, m, n, k, threads=threads))
            continue
        _add(sec, kind, machine.gpu_kernel_seconds(kind, m, n, k))
        _add(sec, "launch", _LAUNCH_S)
        if kind == "trsm":  # the panel goes down and comes back
            panel_bytes = 8.0 * rows * cols
            _add(sec, "h2d", machine.transfer_seconds(panel_bytes))
            _add(sec, "d2h", machine.transfer_seconds(panel_bytes))
        elif kind != "potrf":  # SYRK (m = 0: square in n) / GEMM output
            nb = 8.0 * (m or n) * n
            _add(sec, "d2h", machine.transfer_seconds(nb))
            if blocked:
                _add(sec, "assembly",
                     machine.assembly_seconds(2 * nb, threads=threads))
    return Breakdown(method=method, seconds=sec)


def render_breakdowns(breakdowns, *, title=None):
    """Format several :class:`Breakdown` objects as one comparison table."""
    from .report import format_table

    headers = ["class"] + [b.method for b in breakdowns]
    rows = []
    for cls in COST_CLASSES:
        if not any(b.seconds.get(cls) for b in breakdowns):
            continue
        rows.append((cls, *(
            f"{b.seconds.get(cls, 0.0):.4f} ({100 * b.fraction(cls):.0f}%)"
            for b in breakdowns)))
    rows.append(("total", *(f"{b.total:.4f}" for b in breakdowns)))
    return format_table(headers, rows, title=title)
