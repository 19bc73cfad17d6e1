"""The benchmark's estimators: fastest-quarter mean, high percentile.

This sandbox's speed drifts in phases of 10-30 s (a fixed numpy+Python probe
ranged 2.9-4.0 ms across 3-s windows of one 90-s run), so a timing metric's
value is the **mean of the fastest quarter of its samples**, taken
round-robin with every other timed operation of the workload: slow phases
land in the discarded three quarters of every operation alike.  The median
and the highest percentile with at least ten samples beyond it are printed
beside each value; they are what a user sees on a busy machine.
"""

from __future__ import annotations

import statistics

import numpy as np

#: percentiles a summary may report, ascending
PERCENTILES = (50, 75, 90, 95, 99)


def fastest_quarter(samples, *, higher_is_better=False):
    """Mean of the best quarter of ``samples`` (at least one sample): the
    smallest for a time, the largest for a rate."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples, reverse=higher_is_better)
    k = max(1, len(xs) // 4)
    return sum(xs[:k]) / k


def percentile(samples, p):
    """``p``-th percentile by linear interpolation between order statistics."""
    return float(np.percentile(samples, p))


def highest_resolved_percentile(n):
    """The highest of :data:`PERCENTILES` with at least ten of ``n`` samples
    beyond it, or ``None`` when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n * (100 - p) / 100.0 >= 10:
            best = p
    return best


def summarize(samples, *, higher_is_better=False):
    """``{"value", "median", "tail_p", "tail", "n"}`` of a sample list:
    ``value`` is the fastest-quarter mean, ``tail`` the
    :func:`highest_resolved_percentile` (``None`` below 20 samples)."""
    p = highest_resolved_percentile(len(samples))
    return {
        "value": fastest_quarter(samples, higher_is_better=higher_is_better),
        "median": statistics.median(samples),
        "tail_p": p,
        "tail": None if p is None else percentile(samples, p),
        "n": len(samples),
    }


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``) — the driver's run-to-run
    spread.  Needs at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
