"""The simulated GPU: memory, streams, transfers and a three-clock timeline.

This is the substitute for the paper's A100 + CUDA + MAGMA stack (see
:mod:`repro.gpu.costmodel`).  It computes nothing: it models *when* each
operation would complete on a device and how much device memory it holds,
from sizes alone:

* one **compute stream** — kernels run in issue order, each starting when
  both the stream and its input buffers are ready;
* two **DMA copy engines** — H2D and D2H transfers each serialize on their
  own engine but overlap each other and compute (this is what makes the
  paper's *asynchronous* panel transfer and RLB-v2's per-block transfers
  overlap SYRK/GEMM work);
* the **host clock** — CPU-side BLAS for small supernodes, assembly loops,
  and the per-call launch overhead of every device operation.

All times and sizes are charged at the machine model's *dilated* scale
(see :mod:`repro.gpu.costmodel`): a surrogate panel of ``nbytes`` occupies
``σ² × nbytes`` of simulated device memory and transfers in the time of a
paper-scale panel.  Device memory is byte-accounted against a capacity;
exceeding it raises :class:`DeviceOutOfMemory` — exactly how the paper's RL
fails on nlpkkt120.

Buffer discipline: :meth:`SimulatedGpu.h2d` and :meth:`SimulatedGpu.alloc`
hand back a :class:`DeviceBuffer` — a handle carrying the raw byte size and
itemsize of the data it stands for.  Device kernels only accept handles; a
kernel on a freed buffer, or on one handed back to the host by
:meth:`~SimulatedGpu.wait`, raises — so the schedule walk
(:func:`repro.numeric.rl_gpu.gpu_schedule`) is checked for
transfer-ordering bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costmodel import MachineModel

__all__ = [
    "DeviceOutOfMemory",
    "DeviceBuffer",
    "Timeline",
    "TransferHandle",
    "GpuStats",
    "SimulatedGpu",
]


class DeviceOutOfMemory(RuntimeError):
    """Raised when an allocation exceeds the simulated device capacity."""

    def __init__(self, requested, free, capacity):
        super().__init__(
            f"device out of memory: requested {requested:.0f} B, "
            f"free {free:.0f} B of {capacity:.0f} B (dilated scale)"
        )
        self.requested = float(requested)
        self.free = float(free)
        self.capacity = float(capacity)


@dataclass
class Timeline:
    """Monotone clocks: host CPU, GPU compute stream, and the device's two
    DMA copy engines (the A100 has independent host-to-device and
    device-to-host engines, so uploads and downloads overlap).

    Pass a :class:`~repro.gpu.trace.Tracer` as ``tracer`` to record every
    modeled interval for Gantt/Chrome-trace rendering.

    Device operations are issued *by the host*: a kernel or transfer starts
    no earlier than the host clock at its issue point — the paper's
    single-GPU, host-driven schedule.
    """

    cpu: float = 0.0
    gpu: float = 0.0
    copy_in: float = 0.0
    copy_out: float = 0.0
    tracer: object = None

    def advance_cpu(self, dt, label="host"):
        """Host does ``dt`` seconds of work."""
        if self.tracer is not None:
            self.tracer.record("cpu", label, self.cpu, self.cpu + dt)
        self.cpu += dt

    def enqueue_gpu(self, duration, ready=0.0, label="kernel"):
        """Issue a kernel now (host clock); it runs when the stream and its
        inputs are free.  Returns its completion time."""
        start = max(self.gpu, self.cpu, ready)
        self.gpu = start + duration
        if self.tracer is not None:
            self.tracer.record("gpu", label, start, self.gpu)
        return self.gpu

    def enqueue_copy(self, duration, ready=0.0, *, direction="d2h",
                     label=None, nbytes=0.0):
        """Issue a transfer now on the engine for ``direction`` (``"h2d"``
        or ``"d2h"``); engines are serial individually but independent of
        each other and of the compute stream.  Returns completion time."""
        if direction == "h2d":
            start = max(self.copy_in, self.cpu, ready)
            self.copy_in = start + duration
            done = self.copy_in
            lane = "copy_in"
        else:
            start = max(self.copy_out, self.cpu, ready)
            self.copy_out = start + duration
            done = self.copy_out
            lane = "copy_out"
        if self.tracer is not None:
            self.tracer.record(lane, label or direction, start, done,
                               nbytes=nbytes)
        return done

    def wait_cpu_until(self, t, label="sync"):
        """Host blocks until simulated time ``t``."""
        if t > self.cpu:
            if self.tracer is not None:
                self.tracer.record("cpu", label, self.cpu, t)
            self.cpu = t

    def elapsed(self):
        """Wall-clock so far = host clock (completion requires host sync)."""
        return self.cpu


class DeviceBuffer:
    """A device allocation of ``raw_nbytes`` bytes of ``itemsize``-byte
    elements.

    ``ready`` is the simulated time at which the most recent operation
    writing this buffer completes; kernels reading it start no earlier.
    ``nbytes`` is the *dilated* (simulated) size.
    """

    __slots__ = ("raw_nbytes", "itemsize", "nbytes", "ready", "alive",
                 "on_device")

    def __init__(self, raw_nbytes, itemsize, nbytes, ready):
        self.raw_nbytes = raw_nbytes
        self.itemsize = itemsize
        self.nbytes = float(nbytes)
        self.ready = float(ready)
        self.alive = True
        self.on_device = True

    def _check(self):
        if not self.alive:
            raise RuntimeError("use of freed device buffer")
        if not self.on_device:
            raise RuntimeError("buffer was transferred back to host")


@dataclass
class TransferHandle:
    """Handle of an asynchronous D2H transfer; wait on it before the host
    touches the data."""

    buffer: DeviceBuffer
    done_at: float
    completed: bool = False


@dataclass
class GpuStats:
    """Operation counters of one simulated-GPU session (dilated bytes)."""

    kernels: int = 0
    kernel_seconds: float = 0.0
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    transfers: int = 0
    peak_memory: float = 0.0


class SimulatedGpu:
    """Simulated device: allocator + kernel/transfer scheduling.

    Parameters
    ----------
    memory_bytes:
        Device capacity in *dilated* bytes (the suite default corresponds to
        a scaled A100 — see :mod:`repro.numeric.threshold`).
    machine:
        :class:`~repro.gpu.costmodel.MachineModel` supplying kernel,
        transfer and dilation parameters.
    timeline:
        Optional shared :class:`Timeline` (one per factorization run).
    launch_overhead_s:
        Host-side cost of issuing any device operation (cudaLaunch /
        cudaMemcpyAsync call overhead).
    """

    def __init__(self, memory_bytes, *, machine=None, timeline=None,
                 launch_overhead_s=2.0e-6):
        self.capacity = float(memory_bytes)
        self.used = 0.0
        self.machine = machine or MachineModel()
        self.timeline = timeline if timeline is not None else Timeline()
        self.launch_overhead_s = float(launch_overhead_s)
        self.stats = GpuStats()

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    @property
    def free_bytes(self):
        """Unallocated device memory (dilated bytes)."""
        return self.capacity - self.used

    def _reserve(self, raw_nbytes, itemsize):
        """Account a new allocation of ``raw_nbytes`` (raises
        :class:`DeviceOutOfMemory` when it does not fit)."""
        nbytes = self.machine.scaled_bytes(raw_nbytes, itemsize)
        if nbytes > self.free_bytes:
            raise DeviceOutOfMemory(nbytes, self.free_bytes, self.capacity)
        self.used += nbytes
        self.stats.peak_memory = max(self.stats.peak_memory, self.used)
        return nbytes

    def free(self, buf):
        """Release a buffer's device memory (host side, immediate)."""
        if buf.alive:
            self.used -= buf.nbytes
            buf.alive = False

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def _launch(self):
        """Charge the host-side issue overhead of one device operation."""
        self.timeline.advance_cpu(self.launch_overhead_s, label="launch")

    def h2d(self, raw_nbytes, itemsize=8):
        """Allocate ``raw_nbytes`` on the device and copy host data into
        it (async; the returned buffer's ``ready`` marks copy
        completion)."""
        nbytes = self._reserve(raw_nbytes, itemsize)
        self._launch()
        done = self.timeline.enqueue_copy(
            self.machine.transfer_seconds(raw_nbytes, itemsize),
            direction="h2d", label="h2d", nbytes=nbytes,
        )
        self.stats.h2d_bytes += nbytes
        self.stats.transfers += 1
        return DeviceBuffer(raw_nbytes, itemsize, nbytes, done)

    def alloc(self, raw_nbytes, itemsize=8):
        """Allocate an uninitialised device buffer (e.g. an update
        matrix)."""
        nbytes = self._reserve(raw_nbytes, itemsize)
        self._launch()
        return DeviceBuffer(raw_nbytes, itemsize, nbytes, self.timeline.cpu)

    def d2h_async(self, buf):
        """Start copying a buffer back to the host; returns a
        :class:`TransferHandle` to wait on."""
        buf._check()
        self._launch()
        raw, itemsize = buf.raw_nbytes, buf.itemsize
        done = self.timeline.enqueue_copy(
            self.machine.transfer_seconds(raw, itemsize), ready=buf.ready,
            label="d2h", nbytes=self.machine.scaled_bytes(raw, itemsize),
        )
        self.stats.d2h_bytes += self.machine.scaled_bytes(raw, itemsize)
        self.stats.transfers += 1
        return TransferHandle(buf, done)

    def d2h(self, buf):
        """Blocking D2H: host waits for the copy before proceeding."""
        handle = self.d2h_async(buf)
        self.wait(handle)

    def wait(self, handle, *, keep_on_device=False):
        """Block the host until an async transfer completes; afterwards the
        host holds the data.

        By default the buffer is considered handed back to the host (further
        device kernels on it raise — the transfer-ordering discipline).
        ``keep_on_device=True`` models a plain snapshot copy after which the
        device-resident data remains valid (used by the synchronous-transfer
        ablation variants, which copy mid-schedule and keep computing).
        """
        if not handle.completed:
            self.timeline.wait_cpu_until(handle.done_at)
            handle.completed = True
            if not keep_on_device:
                handle.buffer.on_device = False

    # ------------------------------------------------------------------
    # kernels (time is modeled from the shapes; nothing is computed)
    # ------------------------------------------------------------------
    def _issue(self, kind, m, n, k, *bufs):
        for b in bufs:
            b._check()
        self._launch()
        dt = self.machine.gpu_kernel_seconds(
            kind, m, n, k, itemsize=bufs[0].itemsize
        )
        ready = max(b.ready for b in bufs)
        done = self.timeline.enqueue_gpu(dt, ready=ready, label=kind)
        for b in bufs:
            b.ready = done
        self.stats.kernels += 1
        self.stats.kernel_seconds += dt
        return done

    def potrf(self, buf, n):
        """Device DPOTRF on an ``n × n`` diagonal block within ``buf``."""
        return self._issue("potrf", 0, n, 0, buf)

    def trsm(self, buf, m, n):
        """Device DTRSM on an ``m × n`` rectangle within ``buf``."""
        return self._issue("trsm", m, n, 0, buf)

    def syrk(self, src, dst, n, k):
        """Device DSYRK: an ``n × n`` lower update from ``n × k`` rows of
        ``src`` into ``dst``."""
        return self._issue("syrk", 0, n, k, src, dst)

    def gemm(self, src, dst, m, n, k):
        """Device DGEMM: an ``m × n`` update from two row blocks (``m × k``,
        ``n × k``) of ``src`` into ``dst``."""
        return self._issue("gemm", m, n, k, src, dst)
