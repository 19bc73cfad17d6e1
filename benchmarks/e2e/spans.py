"""Benchmark-side spans: name, start, end, parent, request id.

Spans are recorded around the benchmark's calls into each layer's public
functions (spans inside ``src/`` are a later change).  They live in memory
and are written when the run ends, as Chrome-trace JSON (``chrome://tracing``
/ Perfetto) and as a per-layer summary.  A span's *self time* is its
duration minus the part its child spans cover; the layer of a span is the
prefix of its name before the first dot (``symbolic.etree`` → ``symbolic``).

The current span is a :class:`contextvars.ContextVar`, so nesting is tracked
per thread *and* per asyncio task: the gateway workload's client coroutines
interleave on one loop without adopting each other's parents.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time
from collections import defaultdict

_current = contextvars.ContextVar("e2e_current_span", default=None)


class Spans:
    """In-memory span recorder.  ``rows`` holds one
    ``[name, start, end, parent_index, request]`` list per span."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.rows = []

    @contextlib.contextmanager
    def span(self, name, request=None):
        """Record one span around the ``with`` body.  ``request`` defaults
        to the enclosing span's request id.  Yields the row, whose duration
        is valid after the block ends."""
        parent = _current.get()
        if request is None and parent is not None:
            request = self.rows[parent][4]
        row = [name, 0.0, 0.0, parent, request]
        index = len(self.rows)
        self.rows.append(row)
        token = _current.set(index)
        row[1] = time.perf_counter()
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            _current.reset(token)

    def add(self, name, start, seconds, request=None):
        """Record an *aggregate* child of the current span: ``seconds`` of
        work summed over many short calls (one supernode's DPOTRF, ...) that
        are too many to record one by one.  Returns its end time, so
        consecutive aggregates can be laid end to end."""
        parent = _current.get()
        if request is None and parent is not None:
            request = self.rows[parent][4]
        self.rows.append([name, start, start + seconds, parent, request])
        return start + seconds

    # ------------------------------------------------------------------
    def self_times(self):
        """Per-span self time (duration minus the children's), aligned with
        ``rows``."""
        own = [r[2] - r[1] for r in self.rows]
        for r in self.rows:
            if r[3] is not None:
                own[r[3]] -= r[2] - r[1]
        return own

    def layers(self):
        """``{layer: {"self_s", "spans"}}`` — self time summed per layer."""
        out = defaultdict(lambda: {"self_s": 0.0, "spans": 0})
        for row, own in zip(self.rows, self.self_times()):
            layer = row[0].split(".", 1)[0]
            out[layer]["self_s"] += own
            out[layer]["spans"] += 1
        return dict(out)

    def by_name(self):
        """``{name: {"total_s", "self_s", "spans"}}``."""
        out = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "spans": 0})
        for row, own in zip(self.rows, self.self_times()):
            e = out[row[0]]
            e["total_s"] += row[2] - row[1]
            e["self_s"] += own
            e["spans"] += 1
        return dict(out)

    def chrome_trace(self):
        """The spans as a Chrome-trace event list: one track per top-level
        request (``tid``), complete (``"X"``) events in microseconds."""
        tids = {}
        events = []
        for i, (name, t0, t1, parent, request) in enumerate(self.rows):
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (t0 - self.origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "pid": 1,
                "tid": tids.setdefault(request, len(tids)),
                "args": {"span": i, "parent": parent, "request": request},
            })
        return events

    def write(self, directory, stem):
        """Write ``<stem>.trace.json`` and ``<stem>.layers.json`` under
        ``directory``; returns the two paths."""
        directory.mkdir(parents=True, exist_ok=True)
        trace = directory / f"{stem}.trace.json"
        layers = directory / f"{stem}.layers.json"
        trace.write_text(json.dumps({"traceEvents": self.chrome_trace()}))
        layers.write_text(json.dumps(
            {"layers": self.layers(), "spans": self.by_name()}, indent=1,
            sort_keys=True))
        return trace, layers
