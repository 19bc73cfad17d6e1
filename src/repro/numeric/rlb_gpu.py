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
assembly), per the size threshold.

As for ``rl_gpu`` (:mod:`repro.numeric.rl_gpu`), a row is two parts: its
clock is :func:`~repro.numeric.rl_gpu.gpu_schedule`, which reads every
pair's shape off the pattern's :func:`~repro.symbolic.blocks.pair_index`
arrays through the serial RLB call stream, and its factor is ``rlb``'s
in-place body (:func:`~repro.numeric.rlb._factorize_rlb_in`) — both
versions, bit for bit.
"""

from __future__ import annotations

from .rl_gpu import _offload_row
from .rlb import _factorize_rlb_in
from .threshold import DEFAULT_DEVICE_MEMORY, DEFAULT_RLB_THRESHOLD

__all__ = ["factorize_rlb_gpu", "factorize_rlb_gpu_v1"]


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
    return _offload_row(f"rlb_gpu_v{version}", _factorize_rlb_in, symb, A,
                        dtype, machine=machine, threshold=threshold,
                        device_memory=device_memory, tracer=tracer,
                        inflight=inflight)


def factorize_rlb_gpu_v1(symb, A, *, machine=None,
                         threshold=DEFAULT_RLB_THRESHOLD,
                         device_memory=DEFAULT_DEVICE_MEMORY,
                         tracer=None, dtype=None):
    """RLB version 1 (engine ``rlb_gpu_v1``): :func:`factorize_rlb_gpu`
    with ``version=1``."""
    return factorize_rlb_gpu(symb, A, version=1, machine=machine,
                             threshold=threshold, device_memory=device_memory,
                             tracer=tracer, dtype=dtype)
