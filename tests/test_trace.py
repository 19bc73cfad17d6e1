"""Tests for the event tracer (Gantt / Chrome-trace / overlap stats)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.gpu import LANES, Tracer
from repro.numeric import factorize_rl_gpu, factorize_rlb_gpu
from repro.sparse import grid_laplacian
from repro.symbolic import analyze


@pytest.fixture(scope="module")
def system():
    return analyze(grid_laplacian((8, 8, 3)))


def traced_run(system, fn=factorize_rl_gpu, **kwargs):
    tracer = Tracer()
    res = fn(system.symb, system.matrix, tracer=tracer,
             device_memory=10 ** 12, threshold=0, **kwargs)
    return tracer, res


class TestRecording:
    def test_events_recorded_on_all_lanes(self, system):
        tracer, _ = traced_run(system)
        lanes = {e.lane for e in tracer.events}
        assert lanes == set(LANES)

    def test_kernel_names_present(self, system):
        tracer, _ = traced_run(system)
        names = {e.name for e in tracer.events if e.lane == "gpu"}
        assert {"potrf", "trsm", "syrk"} <= names

    def test_lane_events_do_not_overlap_each_other(self, system):
        """Each lane is a serial resource: its intervals must not overlap."""
        tracer, _ = traced_run(system)
        for lane in LANES:
            evs = tracer.by_lane(lane)
            for a, b in zip(evs, evs[1:]):
                assert b.start >= a.end - 1e-15

    def test_span_matches_modeled_seconds(self, system):
        tracer, res = traced_run(system)
        t0, t1 = tracer.span()
        assert t0 >= 0
        # the host clock ends the run; trace may end later only by the
        # (already waited-on) copy tail, so spans agree
        assert t1 == pytest.approx(res.modeled_seconds, rel=1e-9)

    def test_transfer_events_carry_bytes(self, system):
        tracer, _ = traced_run(system)
        copies = [e for e in tracer.events
                  if e.lane in ("copy_in", "copy_out")]
        assert copies and all(e.nbytes > 0 for e in copies)

    def test_empty_tracer(self):
        t = Tracer()
        assert t.span() == (0.0, 0.0)
        assert t.utilization("gpu") == 0.0
        assert t.ascii_gantt() == "(empty trace)"


class TestStats:
    def test_utilization_in_unit_interval(self, system):
        tracer, _ = traced_run(system)
        for lane in LANES:
            assert 0.0 <= tracer.utilization(lane) <= 1.0

    def test_busy_le_span(self, system):
        tracer, _ = traced_run(system)
        span = tracer.span()[1] - tracer.span()[0]
        for lane in LANES:
            assert tracer.lane_busy(lane) <= span + 1e-15

    def test_async_panel_copy_overlaps_compute(self, system):
        """The paper's async panel D2H: copy-out busy time must overlap GPU
        compute somewhere in an RL-GPU run."""
        tracer, _ = traced_run(system)
        assert tracer.overlap("gpu", "copy_out") > 0.0

    def test_overlap_symmetry_and_bounds(self, system):
        tracer, _ = traced_run(system)
        ab = tracer.overlap("gpu", "copy_out")
        ba = tracer.overlap("copy_out", "gpu")
        assert ab == pytest.approx(ba)
        assert ab <= min(tracer.lane_busy("gpu"),
                         tracer.lane_busy("copy_out")) + 1e-15

    def test_summary_keys(self, system):
        tracer, _ = traced_run(system)
        s = tracer.summary()
        for lane in LANES:
            assert s[f"busy_{lane}"] >= 0
        assert s["span"] > 0


class TestExports:
    def test_chrome_trace_is_json_serializable(self, system, tmp_path):
        tracer, _ = traced_run(system)
        path = tracer.save_chrome_trace(tmp_path / "t.json")
        data = json.loads(open(path).read())
        xs = [r for r in data if r.get("ph") == "X"]
        assert len(xs) == len(tracer.events)
        assert all(r["dur"] >= 0 for r in xs)
        meta = [r for r in data if r.get("ph") == "M"]
        assert len(meta) == len(LANES)

    def test_ascii_gantt_structure(self, system):
        tracer, _ = traced_run(system)
        g = tracer.ascii_gantt(width=60)
        lines = g.splitlines()
        assert len(lines) == len(LANES) + 1
        for lane, line in zip(LANES, lines):
            assert lane in line
            assert "%" in line

    def test_gantt_width_respected(self, system):
        tracer, _ = traced_run(system)
        for line in tracer.ascii_gantt(width=40).splitlines()[:-1]:
            inner = line.split("|")[1]
            assert len(inner) == 40


class TestAblationFlags:
    def test_sync_panel_d2h_not_faster(self, system):
        """Removing the async overlap can only slow RL-GPU down."""
        r_async = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                                   device_memory=10 ** 12)
        r_sync = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                                  device_memory=10 ** 12,
                                  async_panel_d2h=False)
        assert r_sync.modeled_seconds >= r_async.modeled_seconds - 1e-12
        # numerics identical either way
        for s in range(system.symb.nsup):
            np.testing.assert_array_equal(r_async.storage.panel(s),
                                          r_sync.storage.panel(s))

    def test_single_buffer_rlb_not_faster(self, system):
        r2 = factorize_rlb_gpu(system.symb, system.matrix, version=2,
                               threshold=0, device_memory=10 ** 12,
                               inflight=2)
        r1 = factorize_rlb_gpu(system.symb, system.matrix, version=2,
                               threshold=0, device_memory=10 ** 12,
                               inflight=1)
        assert r1.modeled_seconds >= r2.modeled_seconds - 1e-12
