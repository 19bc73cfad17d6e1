"""Event tracing for the simulated machine: Gantt charts and Chrome traces.

Attach a :class:`Tracer` to a :class:`~repro.gpu.device.Timeline` and every
modeled operation — host work, device kernels, H2D/D2H transfers, host sync
waits — is recorded as a ``(lane, name, start, end)`` interval.  This is the
simulated analogue of an ``nsys``/``nvprof`` timeline and makes the paper's
scheduling claims *visible*: the asynchronous panel D2H of RL-GPU overlapping
the SYRK, RLB-v2's per-block copies pipelining with the next block's kernel,
and the serialization that the synchronous ablation variants reintroduce.

Outputs:

* :meth:`Tracer.chrome_trace` / :meth:`Tracer.save_chrome_trace` — the
  Chrome ``chrome://tracing`` / Perfetto JSON array format;
* :meth:`Tracer.ascii_gantt` — a terminal Gantt chart, one row per lane;
* :meth:`Tracer.lane_busy` / :meth:`Tracer.utilization` /
  :meth:`Tracer.overlap` — aggregate concurrency statistics.

A simulated-device run records modeled lanes; the threaded and process
executors record measured worker lanes.

Example::

    from repro.gpu import Tracer

    tracer = Tracer()
    factorize_rl_gpu(symb, A, tracer=tracer, device_memory=4 * 2**30)
    print(tracer.ascii_gantt())
    tracer.save_chrome_trace("rl_gpu.trace.json")
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "Tracer", "LANES"]

#: Timeline lanes in display order.
LANES = ("cpu", "gpu", "copy_in", "copy_out")

_LANE_CHAR = {"cpu": "=", "gpu": "#", "copy_in": ">", "copy_out": "<"}


@dataclass(frozen=True)
class TraceEvent:
    """One modeled operation occupying ``[start, end]`` on a lane.

    ``lane`` is one of :data:`LANES`; ``name`` is the operation label
    (``"potrf"``, ``"h2d"``, ``"assembly"``, ``"sync"``, ...); ``nbytes``
    is the dilated payload for transfers (0 for kernels).
    """

    lane: str
    name: str
    start: float
    end: float
    nbytes: float = 0.0

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class Tracer:
    """Collects :class:`TraceEvent` records from a
    :class:`~repro.gpu.device.Timeline`.

    ``record`` is called by the timeline; everything else is read-side.
    Zero-duration events are dropped (launch overheads shorter than the
    display resolution remain visible in the Chrome trace via the host
    ``launch`` events that do have extent).
    """

    events: list = field(default_factory=list)
    counters: list = field(default_factory=list)

    def record(self, lane, name, start, end, nbytes=0.0):
        """Record one interval (ignored if empty or inverted)."""
        if end > start:
            self.events.append(TraceEvent(lane, name, float(start),
                                          float(end), float(nbytes)))

    def counter(self, lane, name, t, value):
        """Record one counter sample: series ``name`` on ``lane`` had
        ``value`` at time ``t``.

        Counters are instantaneous levels, not intervals — queue depth,
        in-flight requests, cache occupancy.  The serving gateway samples
        its admission-control state through this, so the Chrome trace shows
        the load curves stacked above the worker/stream lanes (Chrome
        ``"ph": "C"`` counter tracks)."""
        self.counters.append((lane, name, float(t), float(value)))

    def counter_samples(self, lane, name):
        """``(t, value)`` samples of one counter series, in time order."""
        return sorted((t, v) for ln, nm, t, v in self.counters
                      if ln == lane and nm == name)

    # -- queries ---------------------------------------------------------
    def lane_names(self):
        """Every lane in display order: the fixed :data:`LANES` first, then
        any dynamically recorded lanes sorted by name.  The simulated
        timeline only ever uses the fixed lanes; the executors'
        real-occupancy instrumentation records one lane per worker thread
        (``repro-exec-0``, ...)."""
        extra = sorted({e.lane for e in self.events} - set(LANES))
        return tuple(LANES) + tuple(extra)

    def by_lane(self, lane):
        """Events on one lane, in start order."""
        return sorted((e for e in self.events if e.lane == lane),
                      key=lambda e: (e.start, e.end))

    def span(self):
        """``(t0, t1)`` covering every recorded event."""
        if not self.events:
            return (0.0, 0.0)
        return (min(e.start for e in self.events),
                max(e.end for e in self.events))

    def lane_busy(self, lane, *, include=None):
        """Total busy seconds on a lane (union of intervals, so overlapping
        records are not double counted).  ``include`` optionally filters by
        event name."""
        ivs = [(e.start, e.end) for e in self.by_lane(lane)
               if include is None or e.name in include]
        return _union_length(ivs)

    def utilization(self, lane):
        """Busy fraction of a lane over the trace span."""
        t0, t1 = self.span()
        if t1 <= t0:
            return 0.0
        return self.lane_busy(lane) / (t1 - t0)

    def overlap(self, lane_a, lane_b):
        """Seconds during which *both* lanes are busy — e.g.
        ``overlap("gpu", "copy_out")`` measures how much D2H traffic hides
        under compute (the paper's async-transfer benefit)."""
        ia = _merge([(e.start, e.end) for e in self.by_lane(lane_a)])
        ib = _merge([(e.start, e.end) for e in self.by_lane(lane_b)])
        total = 0.0
        i = j = 0
        while i < len(ia) and j < len(ib):
            lo = max(ia[i][0], ib[j][0])
            hi = min(ia[i][1], ib[j][1])
            if hi > lo:
                total += hi - lo
            if ia[i][1] < ib[j][1]:
                i += 1
            else:
                j += 1
        return total

    # -- exports ---------------------------------------------------------
    def chrome_trace(self):
        """The trace as a Chrome/Perfetto JSON-serializable list (complete
        events, microsecond timestamps).  Every lane — fixed or dynamic
        (executor worker threads) — gets its own named process row."""
        pids = {lane: i for i, lane in enumerate(self.lane_names())}
        out = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": lane}}
            for lane, pid in pids.items()
        ]
        for e in sorted(self.events, key=lambda e: e.start):
            rec = {
                "name": e.name,
                "ph": "X",
                "pid": pids[e.lane],
                "tid": 0,
                "ts": e.start * 1e6,
                "dur": e.duration * 1e6,
            }
            if e.nbytes:
                rec["args"] = {"dilated_bytes": e.nbytes}
            out.append(rec)
        counter_pids = {}
        for lane, name, t, value in sorted(self.counters, key=lambda c: c[2]):
            pid = counter_pids.get(lane)
            if pid is None:
                pid = counter_pids[lane] = len(pids) + len(counter_pids)
                out.append({"name": "process_name", "ph": "M", "pid": pid,
                            "tid": 0, "args": {"name": f"{lane} (counters)"}})
            out.append({"name": name, "ph": "C", "pid": pid, "tid": 0,
                        "ts": t * 1e6, "args": {name: value}})
        return out

    def save_chrome_trace(self, path):
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
        return path

    def ascii_gantt(self, *, width=88, lanes=None):
        """Render the trace as a fixed-width terminal Gantt chart.

        One row per lane; a cell is filled when the lane is busy anywhere in
        that cell's time bucket.  A scale line and per-lane utilization
        percentages are appended.  ``lanes=None`` shows every lane present
        (:meth:`lane_names`) — the fixed simulated lanes plus any executor
        worker-thread lanes.
        """
        if lanes is None:
            lanes = self.lane_names()
        t0, t1 = self.span()
        if t1 <= t0:
            return "(empty trace)"
        scale = (t1 - t0) / width
        rows = []
        for lane in lanes:
            cells = [" "] * width
            for e in self.by_lane(lane):
                lo = int((e.start - t0) / scale)
                hi = max(lo + 1, int((e.end - t0) / scale + 0.999999))
                for k in range(lo, min(hi, width)):
                    cells[k] = _LANE_CHAR.get(lane, "*")
            pct = 100.0 * self.utilization(lane)
            rows.append(f"{lane:>9} |{''.join(cells)}| {pct:5.1f}%")
        rows.append(f"{'':>9}  t = {t0:.3e} .. {t1:.3e} s "
                    f"({len(self.events)} events)")
        return "\n".join(rows)

    def summary(self):
        """Dict of per-lane busy seconds plus key overlaps."""
        out = {f"busy_{lane}": self.lane_busy(lane) for lane in LANES}
        out["overlap_gpu_copy_out"] = self.overlap("gpu", "copy_out")
        out["overlap_gpu_copy_in"] = self.overlap("gpu", "copy_in")
        out["overlap_cpu_gpu"] = self.overlap("cpu", "gpu")
        out["span"] = self.span()[1] - self.span()[0]
        return out


def _merge(intervals):
    """Merge possibly-overlapping ``(lo, hi)`` intervals."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _union_length(intervals):
    return sum(hi - lo for lo, hi in _merge(intervals))
