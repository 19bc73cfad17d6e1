"""Simulated GPU subsystem: device, timeline, transfer engine, cost models.

See :mod:`repro.gpu.costmodel` (and ``docs/backends.md``) for why the GPU
is simulated and what the simulation preserves (all control flow, memory
pressure and overlap semantics of the paper's CUDA/MAGMA implementation;
only the clock is modeled)."""

from .costmodel import (
    CpuModel,
    GpuModel,
    TransferModel,
    MachineModel,
    CPU_THREAD_CHOICES,
    kernel_flops,
)
from .device import (
    DeviceOutOfMemory,
    DeviceBuffer,
    Timeline,
    TransferHandle,
    SimulatedGpu,
)
from .trace import TraceEvent, Tracer, LANES

__all__ = [
    "CpuModel",
    "GpuModel",
    "TransferModel",
    "MachineModel",
    "CPU_THREAD_CHOICES",
    "kernel_flops",
    "DeviceOutOfMemory",
    "DeviceBuffer",
    "Timeline",
    "TransferHandle",
    "SimulatedGpu",
    "TraceEvent",
    "Tracer",
    "LANES",
]
