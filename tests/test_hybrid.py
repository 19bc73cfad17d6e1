"""Tests for the heterogeneous CPU+GPU backend (``rl_hybrid`` / ``rlb_hybrid``).

The acceptance contract of the hybrid refactor:

* one task DAG, per-task placement: supernodes below the threshold run on
  real worker threads (measured lanes), the rest on simulated-GPU streams
  (modeled lanes), factors bit-identical to the serial twin at any
  ``(workers, devices)``;
* degenerate thresholds select the pure substrates — ``inf`` reproduces the
  threaded executor's factor, ``0`` the stream engines';
* ``gpu_snode_mask`` edge cases (0 / inf / empty / singleton / NaN /
  negative) are well-formed or rejected;
* a hybrid Chrome trace carries both lane families on one clock origin;
* the modeled GPU clock is run-to-run deterministic.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.gpu import Tracer
from repro.gpu.costmodel import MachineModel
from repro.numeric import (
    HybridBackend,
    HybridResult,
    factorize_executor,
    factorize_gpu_dag,
    factorize_hybrid,
    factorize_rl_cpu,
    factorize_rlb_cpu,
    gpu_snode_mask,
    scaled_panel_entries_array,
)
from repro.numeric.registry import (
    BACKENDS,
    backend_engine,
    get_engine,
    serial_twin,
)
from repro.sparse import vector_stencil
from repro.symbolic import analyze
from tests.conftest import assert_factor_matches, assert_same_report

BIG = 10 ** 15

SERIAL = {"coarse": factorize_rl_cpu, "fine": factorize_rlb_cpu}


@pytest.fixture(scope="module")
def system():
    return analyze(vector_stencil((5, 5, 4), 3, seed=7))


@pytest.fixture(scope="module")
def mixed_threshold(system):
    """A threshold that genuinely splits the pattern across substrates."""
    symb = system.symb
    entries = scaled_panel_entries_array(
        MachineModel(), np.diff(symb.rowptr) * np.diff(symb.snptr))
    thr = float(np.median(entries))
    mask = gpu_snode_mask(symb, thr)
    assert 0 < mask.sum() < symb.nsup, "fixture must split the pattern"
    return thr


def _bit_identical(a, b, symb):
    return all(np.array_equal(a.storage.panel(s), b.storage.panel(s))
               for s in range(symb.nsup))


class TestBitIdentity:
    """The ISSUE's acceptance matrix: coarse and fine, workers x devices."""

    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("devices", [1, 2])
    def test_matches_serial_twin(self, system, mixed_threshold, granularity,
                                 workers, devices):
        ref = SERIAL[granularity](system.symb, system.matrix)
        res = factorize_hybrid(system.symb, system.matrix,
                               granularity=granularity, workers=workers,
                               devices=devices, threshold=mixed_threshold,
                               device_memory=BIG)
        assert isinstance(res, HybridResult)
        assert _bit_identical(res, ref, system.symb)
        assert_factor_matches(res, system)
        assert 0 < res.snodes_on_gpu < system.symb.nsup
        assert res.snodes_on_cpu + res.snodes_on_gpu == system.symb.nsup

    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    def test_combined_metric(self, system, mixed_threshold, granularity):
        res = factorize_hybrid(system.symb, system.matrix,
                               granularity=granularity, workers=2,
                               threshold=mixed_threshold, device_memory=BIG)
        assert res.measured_cpu_seconds > 0
        assert res.modeled_gpu_seconds > 0
        assert res.combined_seconds == max(res.measured_cpu_seconds / 2,
                                           res.modeled_gpu_seconds)
        assert res.modeled_seconds == res.combined_seconds
        # the CPU lanes are priced on the CPU-placed supernodes only
        whole = SERIAL[granularity](system.symb, system.matrix)
        assert 0 < res.extra["modeled_cpu_seconds"] < whole.modeled_seconds
        assert res.kernel_count == whole.kernel_count
        assert res.method == ("rl_hybrid" if granularity == "coarse"
                              else "rlb_hybrid")
        assert res.extra["workers"] == 2
        assert res.extra["backend"] == "hybrid"
        assert res.extra["tasks"] >= system.symb.nsup
        assert len(res.extra["device_task_counts"]) == res.extra["devices"]


class TestDegenerateThresholds:
    """Satellite: hybrid at inf equals the pure thread backend, at 0 the
    pure stream backend — same bits, all-or-nothing placement."""

    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    def test_inf_is_pure_cpu(self, system, granularity):
        ref = factorize_executor(system.symb, system.matrix, workers=2,
                                 granularity=granularity)
        res = factorize_hybrid(system.symb, system.matrix,
                               granularity=granularity, workers=2,
                               devices=2, threshold=float("inf"))
        assert res.snodes_on_gpu == 0
        assert res.snodes_on_cpu == system.symb.nsup
        assert res.modeled_gpu_seconds == 0.0
        assert res.extra["device_task_counts"] == [0, 0]
        assert _bit_identical(res, ref, system.symb)
        # all-CPU placement reports the threaded twin's priced pattern
        for dtype in (np.float64, np.float32):
            ref = factorize_executor(system.symb, system.matrix, workers=2,
                                     granularity=granularity, dtype=dtype)
            res = factorize_hybrid(system.symb, system.matrix, workers=2,
                                   granularity=granularity, dtype=dtype,
                                   threshold=float("inf"))
            assert res.extra["modeled_cpu_seconds"] == ref.modeled_seconds
            assert_same_report(res, ref)

    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    def test_zero_is_pure_gpu(self, system, granularity):
        ref = factorize_gpu_dag(system.symb, system.matrix,
                                granularity=granularity, threshold=0,
                                device_memory=BIG)
        res = factorize_hybrid(system.symb, system.matrix,
                               granularity=granularity, workers=2,
                               threshold=0, device_memory=BIG)
        assert res.snodes_on_gpu == system.symb.nsup
        assert res.snodes_on_cpu == 0
        assert res.measured_cpu_seconds == 0.0
        assert _bit_identical(res, ref, system.symb)


class TestMaskEdgeCases:
    """Satellite: gpu_snode_mask degenerate inputs."""

    def test_zero_offloads_everything(self, system):
        mask = gpu_snode_mask(system.symb, 0)
        assert mask.dtype == np.bool_
        assert mask.shape == (system.symb.nsup,)
        assert mask.all()

    def test_inf_keeps_everything_on_cpu(self, system):
        mask = gpu_snode_mask(system.symb, float("inf"))
        assert not mask.any()

    def test_negative_rejected(self, system):
        with pytest.raises(ValueError, match=">= 0"):
            gpu_snode_mask(system.symb, -1)

    def test_nan_rejected(self, system):
        with pytest.raises(ValueError, match="NaN"):
            gpu_snode_mask(system.symb, float("nan"))

    def test_empty_pattern(self):
        symb = SimpleNamespace(rowptr=np.zeros(1, dtype=np.int64),
                               snptr=np.zeros(1, dtype=np.int64))
        mask = gpu_snode_mask(symb, 100.0)
        assert mask.dtype == np.bool_
        assert mask.shape == (0,)

    def test_singleton_supernode(self):
        symb = SimpleNamespace(rowptr=np.array([0, 4], dtype=np.int64),
                               snptr=np.array([0, 2], dtype=np.int64))
        assert gpu_snode_mask(symb, 0).tolist() == [True]
        assert gpu_snode_mask(symb, float("inf")).tolist() == [False]
        assert gpu_snode_mask(symb, 100.0).shape == (1,)


class TestModeledDeterminism:
    def test_repeat_runs_identical(self, system, mixed_threshold):
        runs = [factorize_hybrid(system.symb, system.matrix,
                                 granularity="fine", workers=4, devices=2,
                                 threshold=mixed_threshold,
                                 device_memory=BIG)
                for _ in range(2)]
        assert runs[0].modeled_gpu_seconds == runs[1].modeled_gpu_seconds
        assert _bit_identical(runs[0], runs[1], system.symb)


    @pytest.mark.parametrize("granularity", ["coarse", "fine"])
    @pytest.mark.parametrize("devices", [1, 2])
    def test_modeled_side_is_independent_of_workers(self, system,
                                                    mixed_threshold,
                                                    granularity, devices):
        """The GPU-placed tasks are chained on the shared worker pool: one
        at a time, in priority order, whatever the CPU lanes do.  So the
        modeled clocks and transfer accounting repeat exactly across
        worker counts and runs, and the panels equal the serial twin's."""
        ref = SERIAL[granularity](system.symb, system.matrix)
        runs = [factorize_hybrid(system.symb, system.matrix,
                                 granularity=granularity, workers=workers,
                                 devices=devices, threshold=mixed_threshold,
                                 device_memory=BIG)
                for workers in (1, 2, 4, 4)]
        for res in runs:
            assert res.modeled_gpu_seconds == runs[0].modeled_gpu_seconds
            assert res.gpu_stats == runs[0].gpu_stats
            assert (res.extra["device_task_counts"]
                    == runs[0].extra["device_task_counts"])
            assert _bit_identical(res, ref, system.symb)


class TestTraceMerge:
    """Satellite: one hybrid trace carries measured worker lanes and
    modeled stream lanes on a shared clock origin."""

    def test_chrome_trace_round_trip(self, system, mixed_threshold,
                                     tmp_path):
        tracer = Tracer()
        factorize_hybrid(system.symb, system.matrix, granularity="fine",
                         workers=2, devices=1, threshold=mixed_threshold,
                         device_memory=BIG, tracer=tracer)
        path = tmp_path / "hybrid.trace.json"
        tracer.save_chrome_trace(path)
        data = json.loads(path.read_text())

        meta = {r["args"]["name"]: r["pid"] for r in data
                if r.get("ph") == "M" and r.get("name") == "process_name"}
        worker_lanes = [ln for ln in meta if ln.startswith("repro-hybrid-")]
        assert worker_lanes, "measured worker lanes missing"
        assert "gpu0" in meta and "copy_in0" in meta, \
            "modeled stream lanes missing"
        # pids follow the tracer's display order, one distinct pid per lane
        assert meta == {ln: i for i, ln in enumerate(tracer.lane_names())}

        events = [r for r in data if r.get("ph") == "X"]
        assert events
        # one clock origin: every interval (both families) is non-negative
        assert all(r["ts"] >= 0 and r["dur"] > 0 for r in events)
        assert {r["pid"] for r in events} <= set(meta.values())
        by_pid = {pid: lane for lane, pid in meta.items()}
        lanes_with_events = {by_pid[r["pid"]] for r in events}
        assert any(ln.startswith("repro-hybrid-") for ln in lanes_with_events)
        assert "gpu0" in lanes_with_events

    def test_merged_classmethod(self):
        a, b = Tracer(), Tracer()
        a.record("cpu", "x", 0.0, 1.0)
        b.record("gpu0", "y", 0.5, 2.0)
        merged = Tracer.merged(a, b)
        assert len(merged.events) == 2
        assert merged.span() == (0.0, 2.0)
        assert "gpu0" in merged.lane_names()


class TestRegistryAndApi:
    def test_backend_engine_hybrid(self):
        assert backend_engine("rl", "hybrid") == "rl_hybrid"
        assert backend_engine("rlb_par", "hybrid") == "rlb_hybrid"
        assert BACKENDS["hybrid"] == {"coarse": "rl_hybrid",
                                      "fine": "rlb_hybrid"}

    def test_engine_specs(self):
        for name in ("rl_hybrid", "rlb_hybrid"):
            spec = get_engine(name)
            assert spec.backend == "hybrid"
            assert {"workers", "devices", "threshold"} <= spec.accepts
        assert serial_twin("rl_hybrid") == "rl"
        assert serial_twin("rlb_hybrid") == "rlb"

    def test_plan_factorize_hybrid(self, mixed_threshold):
        import repro

        A = vector_stencil((5, 5, 4), 3, seed=7)
        plan = repro.plan(A)
        ref = plan.factorize(engine="rl")
        f = plan.factorize(backend="hybrid", workers=2, devices=2,
                           threshold=mixed_threshold, device_memory=BIG)
        assert f.engine == "rl_hybrid"
        assert _bit_identical(f.result, ref.result, plan.symb)
        with pytest.raises(ValueError, match="workers"):
            plan.factorize(engine="rl", workers=2)
        with pytest.raises(ValueError, match="devices"):
            plan.factorize(engine="rl_par", devices=2)

    def test_plan_factorize_batch_hybrid(self, mixed_threshold):
        import repro
        from repro.sparse import spd_value_sweep

        A = vector_stencil((5, 5, 4), 3, seed=7)
        plan = repro.plan(A)
        values = spd_value_sweep(A, 2, seed=3)
        batch = plan.factorize_batch(values, backend="hybrid", workers=2,
                                     threshold=mixed_threshold,
                                     device_memory=BIG)
        assert len(batch) == 2
        for vals, f in zip(values, batch):
            # factorize_batch defaults to the fine-granularity engine
            ref = plan.factorize(vals, engine="rlb")
            assert f.engine == "rlb_hybrid"
            assert _bit_identical(f.result, ref.result, plan.symb)

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="workers"):
            HybridBackend(workers=0)
        with pytest.raises(ValueError, match="devices"):
            HybridBackend(devices=0)

    def test_factorize_hybrid_validation(self, system):
        with pytest.raises(ValueError, match="granularity"):
            factorize_hybrid(system.symb, system.matrix, granularity="huge")
        with pytest.raises(ValueError, match="not both"):
            factorize_hybrid(system.symb, system.matrix, workers=2,
                             backend=HybridBackend(workers=2))

    def test_backend_reuse(self, system, mixed_threshold):
        backend = HybridBackend(workers=2, devices=1)
        res = factorize_hybrid(system.symb, system.matrix,
                               threshold=mixed_threshold, backend=backend)
        ref = factorize_rl_cpu(system.symb, system.matrix)
        assert _bit_identical(res, ref, system.symb)
        assert res.extra["devices"] == 1


class TestCli:
    """Satellite: --backend choices derive from the registry BACKENDS."""

    def test_backend_choices_track_registry(self):
        parser = build_parser()
        for name in BACKENDS:
            args = parser.parse_args(["factorize", "x", "--backend", name])
            assert args.backend == name
        with pytest.raises(SystemExit):
            parser.parse_args(["factorize", "x", "--backend", "quantum"])
        with pytest.raises(SystemExit):
            parser.parse_args(["batch", "x", "--backend", "quantum"])

    def test_factorize_backend_hybrid(self, capsys):
        assert main(["factorize", "Fault_639", "--backend", "hybrid",
                     "--workers", "2", "--devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "rl_hybrid" in out
        assert "workers (CPU lanes)" in out
        assert "devices (GPU lanes)" in out
        assert "measured CPU seconds" in out
        assert "modeled GPU seconds" in out
        assert "combined seconds" in out

    def test_workers_plus_devices_implies_hybrid(self, capsys):
        # no --backend: combining the two substrate flags selects hybrid
        assert main(["factorize", "Fault_639", "--workers", "2",
                     "--devices", "1", "--granularity", "fine"]) == 0
        assert "rlb_hybrid" in capsys.readouterr().out
