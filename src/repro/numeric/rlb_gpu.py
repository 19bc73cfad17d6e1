"""GPU-accelerated RLB, both versions of §III.

Shared with RL-GPU: the panel H2D, device DPOTRF + DTRSM, and the
asynchronous D2H of the factorized panel.  The update phase replaces RL's
single DSYRK with one small DSYRK/DGEMM per block pair, and the two versions
differ in when those small update matrices come back:

* **version 1** — every pair's update matrix stays in device memory until
  all pairs of the supernode are computed, then one *batched* D2H moves them
  all, then the CPU assembles.  Memory footprint ≈ RL's (the union of pair
  updates is the lower triangle of the full update matrix), which is why the
  paper judges it "of no practical value compared to RL".
* **version 2** — each update matrix is transferred back *as soon as its
  computation is done* (double-buffered: the copy of pair ``k`` overlaps the
  kernel of pair ``k+1``) and assembled immediately.  Only two small buffers
  ever live on the device, so very large matrices (nlpkkt120) still fit.

Small supernodes stay on the CPU with RLB's direct in-place updates (no
assembly), per the size threshold.  Block lists and per-pair panel offsets
are rows of the pattern's :func:`~repro.symbolic.blocks.pair_index`,
memoised on the symbolic factor, so refactorization repeats none of the
structural bookkeeping.

As in :mod:`repro.numeric.rl_gpu`, the pipeline pieces are standalone *task
bodies* (:func:`rlb_cpu_pair` / :func:`rlb_gpu_factor` /
:func:`rlb_gpu_pair` / :func:`rlb_drain_pair`).
**Version 2** is the fine task graph of :mod:`repro.numeric.gpu_dag`
scheduling them (engine ``rlb_gpu_v2``); **version 1** — the paper's
negative result, one batched transfer per supernode and no per-pair task to
schedule — keeps its serial loop here (:func:`factorize_rlb_gpu_v1`).
"""

from __future__ import annotations

from ..dense.kernels import pair_routines
from ..gpu.costmodel import MachineModel
from ..gpu.device import SimulatedGpu, Timeline
from ..symbolic.blocks import pair_index
from .result import FactorizeResult, GpuCostAccumulator
from .rl_gpu import charge_cpu_kernel, cpu_factor_snode
from .rlb import commit_block_pair, compute_block_pair, pair_kernel, pair_updates
from .storage import FactorStorage
from .threshold import DEFAULT_DEVICE_MEMORY, DEFAULT_RLB_THRESHOLD, \
    gpu_snode_mask

__all__ = [
    "factorize_rlb_gpu_v1",
    "rlb_cpu_pair",
    "rlb_gpu_factor",
    "rlb_gpu_pair",
    "rlb_drain_pair",
]


def rlb_cpu_pair(panel, w, bi, bj, machine, timeline, cpu_t, acc):
    """CPU pair body: compute one block pair's update on the host (charged
    at ``cpu_t`` threads); returns the dense update ``u`` — committing it
    is the caller's (direct in-place for the version-1 loop, ordered for
    the task graph)."""
    u = compute_block_pair(panel, w, bi, bj)
    charge_cpu_kernel(machine, timeline, cpu_t, acc, panel.itemsize,
                      *pair_kernel(w, bi, bj))
    return u


def rlb_gpu_factor(symb, storage, s, gpu, acc):
    """Offload factor body: H2D → device POTRF → device TRSM → asynchronous
    panel D2H.  Returns ``(panel, w, dbuf, panel_back)``; the caller owns
    the buffers (wait ``panel_back`` and ``free(dbuf)`` once every pair of
    ``s`` has been computed)."""
    panel = storage.panel(s)
    m, w = symb.panel_shape(s)
    b = m - w
    dbuf = gpu.h2d(panel)
    gpu.potrf(dbuf, panel[:w, :w])
    acc.kernel("potrf", n=w)
    if b:
        gpu.trsm(dbuf, panel[w:, :w], panel[:w, :w])
        acc.kernel("trsm", m=b, n=w)
    panel_back = gpu.d2h_async(dbuf)
    return panel, w, dbuf, panel_back


def rlb_gpu_pair(gpu, dbuf, panel, w, bi, bj, acc):
    """Device pair body: allocate the pair's update buffer (may raise
    :class:`~repro.gpu.device.DeviceOutOfMemory`) and run its DSYRK/DGEMM
    on the compute stream.  Returns the device buffer; the caller starts
    its D2H."""
    ubuf = gpu.alloc_like((bj.length, bi.length), dtype=panel.dtype)
    rows_i = panel[bi.panel_start:bi.panel_start + bi.length, :w]
    if bj is bi:
        gpu.syrk(dbuf, ubuf, rows_i, ubuf.array)
    else:
        rows_j = panel[bj.panel_start:bj.panel_start + bj.length, :w]
        gpu.gemm(dbuf, ubuf, rows_j, rows_i, ubuf.array)
    acc.kernel(*pair_kernel(w, bi, bj))
    return ubuf


def rlb_drain_pair(gpu, machine, cpu_t, acc, item):
    """Drain one in-flight pair transfer (version-2 discipline): host waits
    for the D2H, the assembly pass is charged, the device buffer is freed.
    Returns the update, now valid on the host — the caller's to park for its
    target."""
    handle, ubuf, bi, bj = item
    gpu.wait(handle)
    isz = ubuf.array.itemsize
    moved = 2 * isz * bi.length * bj.length
    gpu.timeline.advance_cpu(
        machine.assembly_seconds(moved, threads=cpu_t, itemsize=isz),
        label="assembly")
    acc.assembly(2 * 8 * bi.length * bj.length)
    gpu.free(ubuf)
    return ubuf.array


def factorize_rlb_gpu_v1(symb, A, *, machine=None,
                         threshold=DEFAULT_RLB_THRESHOLD,
                         device_memory=DEFAULT_DEVICE_MEMORY,
                         tracer=None, dtype=None):
    """RLB version 1 (engine ``rlb_gpu_v1``): large supernodes offloaded to
    the (simulated) GPU, every pair's update matrix held on the device
    until one *batched* D2H returns them all.

    ``threshold`` is in dilated panel entries (directly comparable to the
    paper's 750,000); supernodes below it run plain RLB on the host.
    ``tracer`` (a :class:`~repro.gpu.trace.Tracer`) records the timeline's
    ``cpu`` / ``gpu`` / ``copy_in`` / ``copy_out`` lanes.
    """
    machine = machine or MachineModel()
    gpu = SimulatedGpu(device_memory, machine=machine,
                       timeline=Timeline(tracer=tracer))
    timeline = gpu.timeline
    cpu_t = machine.gpu_run_cpu_threads
    storage = FactorStorage.from_matrix(symb, A, dtype=dtype)
    itemsize = storage.itemsize
    offload = gpu_snode_mask(symb, threshold, machine=machine)
    acc = GpuCostAccumulator(machine, itemsize=itemsize)
    index = pair_index(symb)
    routines = pair_routines(storage.dtype)
    on_gpu = 0
    for s in range(symb.nsup):
        blocks = index.blocks(s)
        pairs = [(bi, bj)
                 for i, bi in enumerate(blocks) for bj in blocks[i:]]
        if not offload[s]:
            # CPU path: plain RLB with direct in-place updates — the serial
            # engine's body, its kernels charged in the order it runs them
            panel, w, b = cpu_factor_snode(symb, storage, s, machine,
                                           timeline, cpu_t, acc)
            for bi, bj in pairs:
                charge_cpu_kernel(machine, timeline, cpu_t, acc, itemsize,
                                  *pair_kernel(w, bi, bj))
            if b:
                pair_updates(storage, index, s, panel[w:, :w], routines)
            continue
        on_gpu += 1
        panel, w, dbuf, panel_back = rlb_gpu_factor(symb, storage, s, gpu,
                                                    acc)
        bufs = [rlb_gpu_pair(gpu, dbuf, panel, w, bi, bj, acc)
                for bi, bj in pairs]
        if bufs:
            # one batched transfer of all update matrices (§III v1)
            raw_total = sum(u.array.nbytes for u in bufs)
            timeline.advance_cpu(gpu.launch_overhead_s)
            done = timeline.enqueue_copy(
                machine.transfer_seconds(raw_total, itemsize),
                ready=max(u.ready for u in bufs),
            )
            gpu.stats.d2h_bytes += machine.scaled_bytes(raw_total, itemsize)
            gpu.stats.transfers += 1
            timeline.wait_cpu_until(done)
            for ubuf, (bi, bj) in zip(bufs, pairs):
                commit_block_pair(symb, storage, bi, bj, ubuf.array)
                moved = 2 * 8 * bi.length * bj.length  # fp64-normalized
                timeline.advance_cpu(
                    machine.assembly_seconds(moved * itemsize / 8.0,
                                             threads=cpu_t,
                                             itemsize=itemsize),
                    label="assembly")
                acc.assembly(moved)
                gpu.free(ubuf)
        gpu.wait(panel_back)
        gpu.free(dbuf)
    return FactorizeResult(
        method="rlb_gpu_v1",
        storage=storage,
        modeled_seconds=timeline.elapsed(),
        total_snodes=symb.nsup,
        snodes_on_gpu=on_gpu,
        gpu_stats=gpu.stats,
        flops=acc.flops,
        kernel_count=acc.kernel_count,
        assembly_bytes=acc.assembly_bytes,
        extra={"threshold": threshold, "device_memory": gpu.capacity},
    )
