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

As in :mod:`repro.numeric.rl_gpu`, the pipeline pieces are standalone
bodies (:func:`rlb_cpu_pair` / :func:`rlb_gpu_factor` / :func:`rlb_gpu_pair`
/ :func:`rlb_drain_pair`) and :func:`factorize_rlb_gpu` is the paper's host
loop over the supernodes.  Both versions share it: the CPU path (factor,
then every pair computed and committed in serial order) is the same, and
only the offloaded pairs' return path differs — version 1's one batched D2H
per supernode, version 2's window of ``inflight`` transfers, each pair
committed into its ancestor as it drains.
"""

from __future__ import annotations

from collections import deque

from ..symbolic.blocks import pair_index
from .rl_gpu import _offload_result, _offload_setup, charge_cpu_kernel, \
    cpu_factor_snode
from .rlb import commit_block_pair, compute_block_pair, pair_kernel
from .threshold import DEFAULT_DEVICE_MEMORY, DEFAULT_RLB_THRESHOLD

__all__ = [
    "factorize_rlb_gpu",
    "factorize_rlb_gpu_v1",
    "rlb_cpu_pair",
    "rlb_gpu_factor",
    "rlb_gpu_pair",
    "rlb_drain_pair",
]


def rlb_cpu_pair(panel, w, bi, bj, machine, timeline, cpu_t, acc):
    """CPU pair body: compute one block pair's update on the host (charged
    at ``cpu_t`` threads); returns the dense update ``u`` for the caller to
    commit."""
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
    Returns the update, now valid on the host — the caller's to commit into
    its target."""
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


def factorize_rlb_gpu(symb, A, *, version=2, machine=None,
                      threshold=DEFAULT_RLB_THRESHOLD,
                      device_memory=DEFAULT_DEVICE_MEMORY, tracer=None,
                      inflight=2, dtype=None):
    """RLB with large supernodes offloaded to the (simulated) GPU.

    ``version=2`` (per-block transfers; Table II's method, engine
    ``rlb_gpu_v2``) keeps ``inflight`` pair-update transfers in flight (2 =
    double buffering, the pipeline ablation switch); ``version=1`` (one
    batched update transfer per supernode, §III's negative result, engine
    ``rlb_gpu_v1``) holds every pair's update on the device until it
    returns them all, and ``inflight`` does not apply.

    ``threshold`` is in dilated panel entries (directly comparable to the
    paper's 750,000); supernodes below it run RLB on the host.
    ``device_memory`` is the device capacity in dilated bytes (overflowing
    it raises :class:`~repro.gpu.device.DeviceOutOfMemory`); ``tracer`` (a
    :class:`~repro.gpu.trace.Tracer`) records the timeline's ``cpu`` /
    ``gpu`` / ``copy_in`` / ``copy_out`` lanes.
    """
    if version not in (1, 2):
        raise ValueError("version must be 1 or 2")
    machine, gpu, storage, offload, acc = _offload_setup(
        symb, A, machine, threshold, device_memory, tracer, dtype)
    timeline = gpu.timeline
    cpu_t = machine.gpu_run_cpu_threads
    itemsize = storage.itemsize
    index = pair_index(symb)

    def commit_drained(item):
        _, _, bi, bj = item
        u = rlb_drain_pair(gpu, machine, cpu_t, acc, item)
        commit_block_pair(symb, storage, bi, bj, u)

    for s in range(symb.nsup):
        blocks = index.blocks(s)
        pairs = [(bi, bj)
                 for i, bi in enumerate(blocks) for bj in blocks[i:]]
        if not offload[s]:
            panel, w, _ = cpu_factor_snode(symb, storage, s, machine,
                                           timeline, cpu_t, acc)
            for bi, bj in pairs:
                u = rlb_cpu_pair(panel, w, bi, bj, machine, timeline, cpu_t,
                                 acc)
                commit_block_pair(symb, storage, bi, bj, u)
            continue
        panel, w, dbuf, panel_back = rlb_gpu_factor(symb, storage, s, gpu,
                                                    acc)
        if version == 1:
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
                gpu.stats.d2h_bytes += machine.scaled_bytes(raw_total,
                                                            itemsize)
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
        else:
            window = deque()
            for bi, bj in pairs:
                if len(window) >= inflight:
                    commit_drained(window.popleft())
                ubuf = rlb_gpu_pair(gpu, dbuf, panel, w, bi, bj, acc)
                window.append((gpu.d2h_async(ubuf), ubuf, bi, bj))
            while window:
                commit_drained(window.popleft())
        gpu.wait(panel_back)
        gpu.free(dbuf)
    return _offload_result(f"rlb_gpu_v{version}", symb, gpu, storage,
                           offload, acc, threshold)


def factorize_rlb_gpu_v1(symb, A, *, machine=None,
                         threshold=DEFAULT_RLB_THRESHOLD,
                         device_memory=DEFAULT_DEVICE_MEMORY,
                         tracer=None, dtype=None):
    """RLB version 1 (engine ``rlb_gpu_v1``): :func:`factorize_rlb_gpu`
    with ``version=1``."""
    return factorize_rlb_gpu(symb, A, version=1, machine=machine,
                             threshold=threshold, device_memory=device_memory,
                             tracer=tracer, dtype=dtype)
