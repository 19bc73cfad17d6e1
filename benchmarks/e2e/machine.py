"""Machine stamp and the speed probe every timing is normalised by.

This sandbox's speed moves in spells of 5-60 s — longer than a run — during
which *everything* runs 20-60 % slower (see README.md, "Estimator").  No
statistic of a run's own samples can remove a spell that covers the run, so
the benchmark measures the machine alongside the program: a fixed **probe**
of four kernels — numpy and plain Python only, nothing from ``repro``, so no
change to the program can move it — is sampled between the timed operations,
and every timing is reported in **reference seconds**::

    reference seconds = measured seconds ÷ this run's slowdown
    slowdown = mean over the kernels of (kernel seconds ÷ its REFERENCE_S)

The kernels were chosen by measurement (README.md): a spell slows
interpreter-bound, cache-hungry work about 1.6 times as much (in log terms)
as a small dgemm or a tight ``for`` loop, so the probe mixes a dgemm, a
streaming pass and two interpreter loops with the program's own habits —
gather / multiply / scatter on small blocks of a large array, and churn of
small objects.  ``REFERENCE_S`` is this sandbox when quiet, so here a
reference second is a quiet-machine second.  The value as measured is
printed beside every metric.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

from e2e.estimator import fastest_quarter

#: seconds of each probe kernel on the machine the baseline in README.md was
#: taken on (2-core sandbox, quiet)
REFERENCE_S = {"dgemm": 0.54e-3, "stream": 0.24e-3, "blocks": 1.20e-3, "objects": 1.21e-3}
KERNELS = tuple(REFERENCE_S)

_DGEMM_N = 256
_STREAM = 250_000
_STORE = 1_000_000      # doubles the block loop gathers from and scatters into
_BLOCKS = 300
_OBJECTS = 4000
_clock = time.perf_counter


class Probe:
    """The speed probe and its samples: one ``(dgemm_s, stream_s, blocks_s,
    objects_s)`` tuple per :meth:`sample`, in recording order."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((_DGEMM_N, _DGEMM_N))
        self._b = rng.random((_DGEMM_N, _DGEMM_N))
        self._stream = rng.random(_STREAM)
        self._store = rng.random(_STORE)
        self._offsets = [int(o) for o in rng.integers(0, _STORE - 4096, _BLOCKS)]
        self._rows = [np.sort(rng.choice(2048, 48, replace=False)) for _ in range(_BLOCKS)]
        self.samples = []

    def _blocks(self):
        """A supernodal loop in miniature: gather a block out of a large
        array by index, multiply, scatter a row back."""
        store = self._store
        seen = {}
        for k, (o, rows) in enumerate(zip(self._offsets, self._rows)):
            block = store[o:o + 2048][rows].reshape(8, 6)
            u = block @ block.T
            store[o + 2048:o + 4096][rows[:8]] -= u[0] * 1e-9
            seen[k] = (o, u.shape)
        return seen

    def _objects(self):
        """Interpreter work that allocates: tuples, lists, strings, a dict."""
        d = {}
        for i in range(_OBJECTS):
            d[i] = (i, [i, i + 1], str(i))
        return sum(len(v[2]) for v in d.values())

    def _kernels(self):
        t0 = _clock()
        self._a @ self._b
        t1 = _clock()
        (self._stream * 1.0001).sum()
        t2 = _clock()
        self._blocks()
        t3 = _clock()
        self._objects()
        return t1 - t0, t2 - t1, t3 - t2, _clock() - t3

    def sample(self, n=1):
        """Record ``n`` samples.  Each runs the kernels twice and keeps the
        second pass: the first refills the caches the timed operation before
        it emptied, so the reading does not depend on what ran last."""
        for _ in range(n):
            self._kernels()
            self.samples.append(self._kernels())

    def slowdown(self, lo=0, hi=None, estimate=fastest_quarter):
        """This machine's probe over ``samples[lo:hi]`` against the
        reference machine's: the mean over the kernels of ``estimate`` of
        the kernel's samples (the fastest-quarter mean, the estimator the
        timings themselves use) ÷ its reference seconds."""
        window = self.samples[lo:hi]
        return statistics.fmean(estimate([s[i] for s in window]) / REFERENCE_S[k]
                                for i, k in enumerate(KERNELS))

    def speed(self, lo=0, hi=None):
        """1 ÷ :meth:`slowdown`: multiply measured seconds by it to get
        reference seconds (above 1 on a faster machine)."""
        return 1.0 / self.slowdown(lo, hi)

    def drift(self, marks):
        """Slowest ÷ fastest stretch of the run, a stretch being
        ``samples[marks[i]:marks[i + 1]]`` (one round) and its reading the
        slowdown of its median samples: how much the machine's speed moved
        during the run."""
        per_round = [self.slowdown(lo, hi, statistics.median)
                     for lo, hi in zip(marks, marks[1:]) if hi > lo]
        return max(per_round) / min(per_round)

    def dgemm_gflops(self):
        """SNIPPETS snippet 2's protocol: ``2 n³ / best seconds``."""
        return 2.0 * _DGEMM_N ** 3 / min(s[0] for s in self.samples) / 1e9

    def pyloop_ms(self):
        """Fastest-quarter milliseconds of the object-churn interpreter
        loop: the currency of the per-supernode Python overhead."""
        return fastest_quarter([s[3] for s in self.samples]) * 1e3


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_vendor():
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def stamp():
    """The machine a result was measured on."""
    import scipy

    return {
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": _blas_vendor(),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
