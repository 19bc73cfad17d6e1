"""Simulated-GPU tests: timeline semantics, memory accounting, buffer
discipline, transfer ordering invariants.  The device is size-only: buffers
are raw byte counts (``h2d(nbytes, itemsize)``) and kernels take shapes
(``potrf(buf, n)``)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import (
    DeviceOutOfMemory,
    MachineModel,
    SimulatedGpu,
    Timeline,
)


def make_gpu(capacity=10 ** 12):
    return SimulatedGpu(capacity, machine=MachineModel(), timeline=Timeline())


class TestTimeline:
    def test_cpu_advances(self):
        tl = Timeline()
        tl.advance_cpu(1.5)
        assert tl.elapsed() == 1.5

    def test_gpu_waits_for_ready(self):
        tl = Timeline()
        done = tl.enqueue_gpu(1.0, ready=5.0)
        assert done == 6.0

    def test_gpu_stream_serializes(self):
        tl = Timeline()
        a = tl.enqueue_gpu(1.0)
        b = tl.enqueue_gpu(1.0)
        assert b == a + 1.0

    def test_copy_engines_independent(self):
        tl = Timeline()
        a = tl.enqueue_copy(1.0, direction="h2d")
        b = tl.enqueue_copy(1.0, direction="d2h")
        assert a == 1.0 and b == 1.0  # no mutual serialization

    def test_same_direction_serializes(self):
        tl = Timeline()
        a = tl.enqueue_copy(1.0, direction="d2h")
        b = tl.enqueue_copy(1.0, direction="d2h")
        assert b == a + 1.0

    def test_wait_cpu_until_monotone(self):
        tl = Timeline()
        tl.advance_cpu(3.0)
        tl.wait_cpu_until(1.0)
        assert tl.cpu == 3.0
        tl.wait_cpu_until(7.0)
        assert tl.cpu == 7.0

    def test_ops_start_no_earlier_than_issue(self):
        tl = Timeline()
        tl.advance_cpu(2.0)
        assert tl.enqueue_gpu(1.0) == 3.0
        assert tl.enqueue_copy(1.0) >= 3.0


class TestMemory:
    def test_alloc_free_accounting(self):
        gpu = make_gpu(capacity=10_000_000)
        buf = gpu.h2d(8 * 10 * 10)
        assert gpu.used == buf.nbytes
        gpu.free(buf)
        assert gpu.used == 0

    def test_double_free_harmless(self):
        gpu = make_gpu()
        buf = gpu.h2d(8 * 4)
        gpu.free(buf)
        gpu.free(buf)
        assert gpu.used == 0

    def test_oom_raises_with_details(self):
        gpu = make_gpu(capacity=100)
        with pytest.raises(DeviceOutOfMemory) as ei:
            gpu.h2d(8 * 100 * 100)
        assert ei.value.capacity == 100
        assert ei.value.requested > 100

    def test_peak_tracking(self):
        gpu = make_gpu()
        a = gpu.h2d(8 * 100)
        b = gpu.h2d(8 * 50)
        peak = gpu.stats.peak_memory
        gpu.free(a)
        gpu.free(b)
        assert gpu.stats.peak_memory == peak
        assert peak == pytest.approx(
            gpu.machine.scaled_bytes(800) + gpu.machine.scaled_bytes(400))

    def test_dilated_accounting(self):
        gpu = make_gpu()
        raw = 8 * int(gpu.machine.entries_hi * 2)
        buf = gpu.h2d(raw)
        assert (buf.raw_nbytes, buf.itemsize) == (raw, 8)
        assert buf.nbytes == pytest.approx(raw * gpu.machine.dilation ** 2)


class TestBufferDiscipline:
    def test_use_after_free_raises(self):
        gpu = make_gpu()
        buf = gpu.h2d(8 * 3 * 3)
        gpu.free(buf)
        with pytest.raises(RuntimeError, match="freed"):
            gpu.potrf(buf, 3)

    def test_use_after_d2h_wait_raises(self):
        gpu = make_gpu()
        buf = gpu.h2d(8 * 3 * 3)
        handle = gpu.d2h_async(buf)
        gpu.wait(handle)
        with pytest.raises(RuntimeError, match="host"):
            gpu.potrf(buf, 3)


class TestOrderingInvariants:
    def test_kernel_waits_for_h2d(self):
        gpu = make_gpu()
        buf = gpu.h2d(8 * 200 * 200)
        upload_done = buf.ready
        done = gpu.potrf(buf, 200)
        assert done >= upload_done

    def test_d2h_waits_for_kernel(self):
        gpu = make_gpu()
        buf = gpu.h2d(8 * 50 * 50)
        kdone = gpu.potrf(buf, 50)
        handle = gpu.d2h_async(buf)
        assert handle.done_at >= kdone

    def test_wait_blocks_host(self):
        gpu = make_gpu()
        buf = gpu.h2d(8 * 500 * 500)
        gpu.potrf(buf, 500)
        handle = gpu.d2h_async(buf)
        gpu.wait(handle)
        assert gpu.timeline.cpu >= handle.done_at

    @given(st.lists(st.sampled_from(["potrf", "d2h", "h2d_new"]),
                    min_size=1, max_size=12),
           st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_clocks_monotone_random_programs(self, ops, n):
        gpu = make_gpu()
        tl = gpu.timeline
        bufs = []
        last = dict(cpu=0.0, gpu=0.0, ci=0.0, co=0.0)
        for op in ops:
            if op == "h2d_new" or not bufs:
                bufs.append(gpu.h2d(8 * n * n))
            elif op == "potrf":
                b = bufs[-1]
                if b.alive and b.on_device:
                    gpu.potrf(b, n)
            else:
                b = bufs.pop()
                if b.alive and b.on_device:
                    gpu.wait(gpu.d2h_async(b))
                    gpu.free(b)
            assert tl.cpu >= last["cpu"]
            assert tl.gpu >= last["gpu"]
            assert tl.copy_in >= last["ci"]
            assert tl.copy_out >= last["co"]
            last = dict(cpu=tl.cpu, gpu=tl.gpu, ci=tl.copy_in,
                        co=tl.copy_out)

    def test_stats_counters(self):
        gpu = make_gpu()
        buf = gpu.h2d(8 * 10 * 10)
        gpu.potrf(buf, 10)
        gpu.d2h(buf)
        assert gpu.stats.kernels == 1
        assert gpu.stats.transfers == 2
        assert gpu.stats.h2d_bytes > 0
        assert gpu.stats.d2h_bytes > 0
