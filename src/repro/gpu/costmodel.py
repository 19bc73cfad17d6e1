"""Performance models for the simulated hardware.

The paper ran on a Perlmutter node: 2× AMD EPYC 7763 (128 cores, MKL
multithreaded BLAS) and one NVIDIA A100-40GB (MAGMA BLAS, CUDA transfers over
PCIe 4).  No GPU exists in this environment, so runtimes are *modeled*: every
BLAS call and transfer advances a simulated clock according to the models
below, while the factor itself is the serial engines' (LAPACK/BLAS on the
host) so results stay verifiable.

**Dimension dilation.**  The surrogate matrices are scaled-down meshes of the
paper's problems: a surrogate supernode with an ``(m, w)`` panel corresponds
to a paper-scale supernode of roughly ``(σ·m, σ·w)`` (σ = ``dilation``,
default 10 — e.g. the Queen_4147 surrogate is a 15×15×11 mesh standing in
for a ~150×150×110-scale problem whose separators are ~σ× wider).  The cost
model therefore charges every kernel at its *dilated* dimensions
(flops × σ³) and every transfer/assembly at dilated sizes (bytes × σ²),
which restores the paper-scale ratio of arithmetic to per-call overhead and
lets all hardware constants below be **real, documented A100 / EPYC / PCIe
figures** rather than invented ones.  Modeled runtimes consequently land in
the paper's seconds range.

A convenient corollary: the paper's supernode-size thresholds (600,000 panel
entries for RL, 750,000 for RLB) apply *unchanged* in dilated units — see
:mod:`repro.numeric.threshold`.

Constant provenance
-------------------
* ``CpuModel.per_core_gflops = 20``: EPYC 7763 core peak is 39.2 GF/s FP64
  (2.45 GHz × 16 flops/cycle); sustained MKL DGEMM ≈ 50 %.
* ``GpuModel.peak_gflops = 16000``: A100 FP64 tensor-core DGEMM peak is
  19.5 TF/s; MAGMA/cuBLAS sustain ≈ 16 TF/s on large matrices.
* ``GpuModel.half_flops = 5e8``: A100 DGEMM reaches half its peak around
  matrix dimension ~600–900.
* ``TransferModel``: PCIe 4.0 ×16 sustains ~24 GB/s per direction with
  ~10 µs end-to-end latency; the effective 48 GB/s reflects the dual DMA
  engines' aggregate when pipelined through pinned staging buffers (and is
  a calibrated effective value — see ``benchmarks/calibrate.py``).
* ``MachineModel.flops_hi = 3e7`` / ``entries_hi = 3e4``: dilation ramp
  endpoints — the largest surrogate kernels/panels map to σ = 10.
* ``GpuModel.launch_s = 2e-5``: CUDA kernel launch plus MAGMA dispatch /
  synchronization per call (~10–30 µs in practice).
* ``CpuModel.fp32_speedup = 2.0``: SGEMM moves half the bytes and the EPYC
  core retires twice the FP32 flops/cycle (32 vs 16) — the classic ~2×
  single-precision BLAS throughput win.
* ``GpuModel.fp32_speedup = 2.0``: A100 non-tensor FP32 peak is 19.5 TF/s
  vs 9.7 TF/s FP64 CUDA-core; MAGMA's Cholesky kernels ride the CUDA cores.
  (Tensor-core mixed-precision GEMM can reach far higher — up to ~12.7× on
  V100-class hardware — but that path changes the numerics; the modeled
  lane stays at the conservative non-tensor 2×.)

Every byte-accounting helper takes an ``itemsize`` (default 8): the graded
dilation ramps are *entry*-count ramps, so fp32 objects of E entries dilate
like fp64 objects of E entries while moving half the bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..dense import flops as _fl

__all__ = [
    "CpuModel",
    "GpuModel",
    "TransferModel",
    "MachineModel",
    "CPU_THREAD_CHOICES",
    "kernel_flops",
]

#: MKL thread counts the paper sweeps for the CPU baseline (§IV-B).
CPU_THREAD_CHOICES = (8, 16, 32, 64, 128)


def kernel_flops(kind, m, n, k=0):
    """Flops of a kernel by name: ``potrf(n)``, ``trsm(m,n)``, ``syrk(n,k)``,
    ``gemm(m,n,k)``."""
    if kind == "potrf":
        return _fl.potrf_flops(n)
    if kind == "trsm":
        return _fl.trsm_flops(m, n)
    if kind == "syrk":
        return _fl.syrk_flops(n, k)
    if kind == "gemm":
        return _fl.gemm_flops(m, n, k)
    raise ValueError(f"unknown kernel kind {kind!r}")


@dataclass(frozen=True)
class CpuModel:
    """Multithreaded CPU BLAS model (MKL on 2× EPYC 7763).

    A kernel of ``f`` flops on ``t`` available threads effectively engages
    ``t_eff = clamp(f / parallel_grain_flops, 1, t)`` threads — MKL will not
    spread a small kernel across the machine — and runs at
    ``per_core_gflops × t_eff``.  This reproduces the paper's observation
    that the best MKL thread count depends on the matrix (8–128 swept, best
    taken).
    """

    per_core_gflops: float = 20.0
    parallel_grain_flops: float = 2.0e8
    call_overhead_s: float = 1.0e-6
    assembly_thread_gbs: float = 6.0
    assembly_max_gbs: float = 120.0
    assembly_overhead_s: float = 1.0e-5
    fp32_speedup: float = 2.0

    def kernel_time(self, flops, threads, speedup=1.0):
        """Modeled seconds for one BLAS call of ``flops`` on ``threads``
        (``speedup`` > 1 for the single-precision lane)."""
        t_eff = min(max(flops / self.parallel_grain_flops, 1.0), threads)
        rate = self.per_core_gflops * 1e9 * t_eff * speedup
        return self.call_overhead_s + flops / rate

    def assembly_time(self, nbytes, threads):
        """Modeled seconds for one scatter-add pass of ``nbytes``
        (read+write) with ``threads`` OpenMP threads: a fork-join overhead
        plus bandwidth-bound streaming.  The fork-join term is what makes
        per-block assembly (RLB-GPU v2) relatively expensive — one of the
        reasons the paper finds RL-GPU faster."""
        bw = min(threads * self.assembly_thread_gbs, self.assembly_max_gbs)
        return self.assembly_overhead_s + nbytes / (bw * 1e9)

    def best_threads(self, total_time_by_threads):
        """Given ``{threads: seconds}``, return ``(threads, seconds)`` of the
        best configuration — the paper's baseline protocol."""
        t = min(total_time_by_threads, key=total_time_by_threads.get)
        return t, total_time_by_threads[t]


@dataclass(frozen=True)
class GpuModel:
    """GPU kernel model (A100 + MAGMA).

    ``kernel_time`` is launch latency plus ``flops`` at the size-dependent
    rate ``peak × f / (f + half_flops)``: kernels far below ``half_flops``
    cannot fill the device — the reason the paper keeps small supernodes on
    the CPU.
    """

    peak_gflops: float = 16000.0
    half_flops: float = 5.0e8
    launch_s: float = 2.0e-5
    fp32_speedup: float = 2.0

    def kernel_time(self, flops, speedup=1.0):
        """Modeled seconds for one device kernel of ``flops`` (``speedup``
        > 1 for the single-precision lane)."""
        return self.launch_s + (flops + self.half_flops) / (
            self.peak_gflops * 1e9 * speedup
        )


@dataclass(frozen=True)
class TransferModel:
    """PCIe 4.0 transfer model: fixed latency plus bytes over bandwidth.

    The paper's §IV-B finding — "latency is negligible but bandwidth is
    important" — is the regime where ``nbytes / bandwidth`` dominates
    ``latency_s`` for update-matrix transfers; at dilated sizes that holds.
    """

    latency_s: float = 1.0e-5
    bandwidth_gbs: float = 64.0

    def time(self, nbytes):
        """Modeled seconds to move ``nbytes`` one way."""
        return self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)


@dataclass(frozen=True)
class MachineModel:
    """Bundle of the three device models plus global simulation parameters.

    **Size-graded dilation.**  Refining a mesh by σ leaves the *bottom* of
    the elimination tree unchanged (leaf supernodes are the same absolute
    size — there are just more of them) while widening the top separators by
    ~σ.  The dilation factor is therefore graded by operation size: an
    operation of ``f`` raw flops is charged at ``σ(f)³ × f`` where ``σ(f)``
    ramps log-linearly from 1 (at/below ``flops_lo``) to ``dilation``
    (at/above ``flops_hi``); transfers and assemblies of ``E`` raw entries
    are charged at ``σ_b(E)² × bytes`` with the analogous ``entries_lo/hi``
    ramp.  Small supernodes thus live in the real hardware's launch/latency-
    dominated regime (where the paper's GPU-only variant loses) and big
    separator panels in its bandwidth/flop-dominated regime (where the GPU
    wins 4×+).

    Attributes
    ----------
    dilation:
        Maximum dimension dilation σ_max.
    gpu_run_cpu_threads:
        Host MKL/OpenMP thread count used for the CPU portions (small
        supernodes, assembly) of the GPU-accelerated runs.
    """

    cpu: CpuModel = field(default_factory=CpuModel)
    gpu: GpuModel = field(default_factory=GpuModel)
    transfer: TransferModel = field(default_factory=TransferModel)
    gpu_run_cpu_threads: int = 128
    dilation: float = 10.0
    flops_lo: float = 1.0e4
    flops_hi: float = 3.0e7
    entries_lo: float = 1.0e3
    entries_hi: float = 3.0e5

    # -- graded dilation factors ----------------------------------------
    def _sigma(self, x, lo, hi):
        if x <= lo:
            return 1.0
        if x >= hi:
            return self.dilation
        frac = math.log(x / lo) / math.log(hi / lo)
        return self.dilation ** frac

    def sigma_flops(self, flops_raw):
        """Graded dimension-dilation factor for a kernel of raw flops."""
        return self._sigma(flops_raw, self.flops_lo, self.flops_hi)

    def sigma_entries(self, entries_raw):
        """Graded dilation factor for a data object of raw entries."""
        return self._sigma(entries_raw, self.entries_lo, self.entries_hi)

    # -- dilated accounting helpers ------------------------------------
    def scaled_kernel_flops(self, kind, m=0, n=0, k=0):
        """Flops of a kernel at (graded) dilated dimensions."""
        f = kernel_flops(kind, m, n, k)
        return f * self.sigma_flops(f) ** 3

    def scaled_bytes(self, nbytes, itemsize=8):
        """Bytes at (graded) dilated panel sizes.  ``itemsize`` converts
        bytes to the entry count driving the dilation ramp — an fp32 object
        dilates like an fp64 object of the same *entries* while moving half
        the bytes."""
        return nbytes * self.sigma_entries(nbytes / float(itemsize)) ** 2

    def scaled_panel_entries(self, entries):
        """Panel entries at dilated scale — what the supernode-size
        threshold compares against."""
        return entries * self.sigma_entries(entries) ** 2

    def cpu_fp_speedup(self, itemsize):
        """Host BLAS throughput multiplier for an element size (1.0 for
        fp64, :attr:`CpuModel.fp32_speedup` for fp32)."""
        return self.cpu.fp32_speedup if itemsize == 4 else 1.0

    def gpu_fp_speedup(self, itemsize):
        """Device throughput multiplier for an element size."""
        return self.gpu.fp32_speedup if itemsize == 4 else 1.0

    def cpu_kernel_seconds(self, kind, m=0, n=0, k=0, *, threads,
                           itemsize=8):
        """Host BLAS call time at dilated dimensions."""
        return self.cpu.kernel_time(
            self.scaled_kernel_flops(kind, m, n, k), threads,
            self.cpu_fp_speedup(itemsize),
        )

    def assembly_seconds(self, nbytes, *, threads, itemsize=8):
        """Host scatter-add time at dilated sizes."""
        return self.cpu.assembly_time(
            self.scaled_bytes(nbytes, itemsize), threads
        )

    def gpu_kernel_seconds(self, kind, m=0, n=0, k=0, *, itemsize=8):
        """Device kernel time at dilated dimensions."""
        return self.gpu.kernel_time(
            self.scaled_kernel_flops(kind, m, n, k),
            self.gpu_fp_speedup(itemsize),
        )

    def transfer_seconds(self, nbytes, itemsize=8):
        """One-way transfer time at dilated sizes."""
        return self.transfer.time(self.scaled_bytes(nbytes, itemsize))
