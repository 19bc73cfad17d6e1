"""Per-layer measurements of a traced run (primary pattern).

The end-to-end pass times whole requests; this battery times the layers
underneath through their public functions, round-robin like everything
else, each call under a span.  Two *replays* split a factorization by
kernel class — serial RL and serial RLB rebuilt from the public task bodies
with a timer around each — and must produce panels bit-identical to
``plan.factorize(engine="rl" | "rlb")``, so the split describes the program
the end-to-end pass ran.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dense import flops as fl
from repro.dense import kernels as dk
from repro.gpu.device import DeviceOutOfMemory
from repro.numeric import rl, rlb
from repro.numeric.storage import FactorStorage
from repro.solve.triangular import backward_solve, forward_solve
from repro.symbolic.blocks import snode_blocks
from repro.symbolic.levels import solve_levels

from e2e.bench import ALL_CPUS, TOL_REFINED, WORKERS, residual, threads_on

_clock = time.perf_counter


def kernel_flops(symb):
    """Flops per kernel class of one RL factorization (and RLB's DGEMM
    share), from ``repro.dense.flops`` at the true panel dimensions."""
    out = {"potrf": 0.0, "trsm": 0.0, "syrk": 0.0, "gemm": 0.0, "syrk_rlb": 0.0}
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        b = m - w
        out["potrf"] += fl.potrf_flops(w)
        out["trsm"] += fl.trsm_flops(b, w)
        out["syrk"] += fl.syrk_flops(b, w)
        blocks = snode_blocks(symb, s)
        for i, bi in enumerate(blocks):
            out["syrk_rlb"] += fl.syrk_flops(bi.length, w)
            for bj in blocks[i + 1:]:
                out["gemm"] += fl.gemm_flops(bj.length, bi.length, w)
    return out


def _factor_snode(symb, storage, s, acc):
    """``rl.factor_snode`` with DPOTRF and DTRSM timed apart."""
    panel = storage.panel(s)
    m, w = symb.panel_shape(s)
    t0 = _clock()
    dk.potrf(panel[:w, :w])
    t1 = _clock()
    if m > w:
        dk.trsm_right(panel[w:, :w], panel[:w, :w])
    t2 = _clock()
    acc["potrf"] += t1 - t0
    acc["trsm"] += t2 - t1
    acc["calls"] += 1 + (m > w)
    return panel, w, m - w


def replay_rl(symb, M):
    """Serial RL through the public bodies; returns ``(storage, seconds per
    class)`` with classes scatter / potrf / trsm / syrk / assembly."""
    acc = dict.fromkeys(("scatter", "potrf", "trsm", "syrk", "assembly", "calls"), 0.0)
    t0 = _clock()
    storage = FactorStorage.from_matrix(symb, M)
    acc["scatter"] = _clock() - t0
    bmax = int(np.sqrt(rl.update_workspace_entries(symb))) if symb.nsup else 0
    W = np.zeros((bmax, bmax), order="F") if bmax else None
    for s in range(symb.nsup):
        _, _, b = _factor_snode(symb, storage, s, acc)
        if b:
            t0 = _clock()
            U = rl.snode_update(symb, storage, s, W=W)
            t1 = _clock()
            rl.assemble_update(symb, storage, s, U)
            t2 = _clock()
            acc["syrk"] += t1 - t0
            acc["assembly"] += t2 - t1
            acc["calls"] += 1
    return storage, acc


def replay_rlb(symb, M):
    """Serial RLB through the public bodies: classes scatter / potrf / trsm
    / syrk / gemm / commit."""
    acc = dict.fromkeys(("scatter", "potrf", "trsm", "syrk", "gemm", "commit", "calls"), 0.0)
    t0 = _clock()
    storage = FactorStorage.from_matrix(symb, M)
    acc["scatter"] = _clock() - t0
    for s in range(symb.nsup):
        panel, w, b = _factor_snode(symb, storage, s, acc)
        if not b:
            continue
        blocks = snode_blocks(symb, s)
        for i, bi in enumerate(blocks):
            for bj in blocks[i:]:
                t0 = _clock()
                u = rlb.compute_block_pair(panel, w, bi, bj)
                t1 = _clock()
                rlb.commit_block_pair(symb, storage, bi, bj, u)
                t2 = _clock()
                acc["syrk" if bj is bi else "gemm"] += t1 - t0
                acc["commit"] += t2 - t1
                acc["calls"] += 1
    return storage, acc


def same_panels(a, b):
    return all(np.array_equal(p, q) for p, q in zip(a.panels, b.panels))


class LayerBattery:
    """Round-robin layer timings on a :class:`bench.Bench`'s primary
    pattern; samples land in ``bench.samples`` under ``layer.name`` keys."""

    def __init__(self, bench):
        self.b = bench
        self.symb = bench.plan.symb
        self.flops = kernel_flops(self.symb)
        self.counts = {}

    def _permuted(self, v):
        """The permuted system matrix the engines receive for values ``v``
        (what ``plan.factorize`` builds internally from ``plan.gather``)."""
        B = self.b.plan.system.matrix
        g, dt = self.b.timed("sparse.gather_values", lambda: v[self.b.plan.gather])
        self.b.samples["sparse.gather_values_s"].append(dt)
        return type(B)(B.n, B.indptr, B.indices, g, check=False)

    def _record_replay(self, prefix, start, acc, names):
        """Lay one replay's per-class sums end to end as aggregate child
        spans of the replay's span (still open) and append them to the
        samples."""
        t = start
        for cls, key in names:
            self.b.samples[key].append(acc[cls])
            t = self.b.spans.add(prefix + cls, t, acc[cls])

    def check_replays(self):
        """Both replays against the engines, bit for bit (outside timers)."""
        b = self.b
        v = b.primary.values[0]
        M = self._permuted(v)
        for engine, replay in (("rl", replay_rl), ("rlb", replay_rlb)):
            b.attempted += 1
            storage, _ = replay(self.symb, M)
            b.check("replay." + engine,
                    same_panels(storage, b.plan.factorize(v, engine=engine).storage),
                    "replayed panels differ from the engine's")

    def round(self, r):
        b, plan, S = self.b, self.b.plan, self.b.samples
        k = r % len(b.primary.values)
        v = b.primary.values[k]
        rhs = b.primary.b
        b.tracing = True
        try:
            with b.spans.span("layers.round", request=f"layers#{r}"):
                b.probe.sample()
                M = self._permuted(v)
                with b.spans.span("numeric.replay_rl") as row:
                    _, acc = replay_rl(self.symb, M)
                    self._record_replay("dense.", row[1], acc, (
                        ("potrf", "dense.potrf_s"), ("trsm", "dense.trsm_s"),
                        ("syrk", "dense.syrk_s")))
                S["numeric.scatter_s"].append(acc["scatter"])
                S["numeric.assembly_s"].append(acc["assembly"])
                S["numeric.replay_rl_s"].append(row[2] - row[1])
                self.counts["dense.kernel_calls"] = acc["calls"]
                with b.spans.span("numeric.replay_rlb") as row:
                    _, acc = replay_rlb(self.symb, M)
                    self._record_replay("dense.rlb_", row[1], acc, (("gemm", "dense.gemm_s"),))
                S["numeric.commit_rlb_s"].append(acc["commit"])
                b.probe.sample()

                def factor(key, **kw):
                    f, dt = b.timed("numeric.factorize", plan.factorize, v, **kw)
                    S[key].append(dt)
                    b.probe.sample()
                    return f

                f64 = factor("numeric.factorize_rl_s", engine="rl")
                factor("numeric.factorize_rlb_s", engine="rlb")
                f = factor("numeric.rl_par_w1_s", engine="rl_par", workers=1)
                self.counts["numeric.tasks_coarse"] = f.result.extra["tasks"]
                factor("numeric.rl_par_w2_s", engine="rl_par", workers=WORKERS)
                with threads_on(ALL_CPUS):
                    factor("numeric.rl_par_w2_spread_s", engine="rl_par", workers=WORKERS)
                f = factor("numeric.rlb_par_w2_s", engine="rlb_par", workers=WORKERS)
                self.counts["numeric.tasks_fine"] = f.result.extra["tasks"]
                factor("numeric.rl_proc_w2_s", engine="rl_proc", workers=WORKERS)
                f32 = factor("numeric.factorize_rl_fp32_s", engine="rl", dtype=np.float32)
                batch, dt = b.timed("numeric.factorize_batch", plan.factorize_batch,
                                    b.primary.values, workers=WORKERS)
                S["numeric.batch4_amortized_s"].append(dt / len(batch))
                fu, dt = b.timed("numeric.update", f64.update, b.W)
                S["numeric.update_sweep_s"].append(dt)
                self.counts["numeric.update_path_cols"] = fu.result.extra["update_cols"]

                y, dt = b.timed("solve.forward", forward_solve, f64.storage, rhs[plan.perm])
                S["solve.forward_s"].append(dt)
                _, dt = b.timed("solve.backward", backward_solve, f64.storage, y)
                S["solve.backward_s"].append(dt)
                _, dt = b.timed("solve.rhs16", f64.solve, b.B16)
                S["solve.rhs16_per_rhs_s"].append(dt / b.B16.shape[1])
                _, dt = b.timed("solve.level", f64.solve, rhs, workers=WORKERS)
                S["solve.level_w2_s"].append(dt)
                info, dt = b.timed("solve.refine", f32.solve_refined, rhs, tol=TOL_REFINED,
                                   return_info=True)
                S["solve.refine_s"].append(dt)
                b.probe.sample()
                self.counts["solve.refine_iters"] = info.iterations

                with plan.serve(engine="rlb_par", workers=WORKERS) as session:
                    x, dt = b.timed("serving.session_submit_solve",
                                    lambda: session.submit_solve(v, rhs).result())
                S["serving.session_submit_solve_ms"].append(dt * 1e3)
        finally:
            b.tracing = False
        b.attempted += 1
        r_ = residual(b.full[k], x, rhs)
        b.check("session.submit_solve", r_ <= 1e-10, f"residual {r_:.2e}")

    def static_counts(self):
        """Counts that repeat exactly for a pattern."""
        symb = self.symb
        widths = np.diff(symb.snptr)
        return {
            "symbolic.nsup": symb.nsup,
            "symbolic.factor_nnz": symb.factor_nnz_dense(),
            "symbolic.factor_flops": symb.factor_flops(),
            "symbolic.max_snode_cols": int(widths.max()),
            "symbolic.solve_levels": int(solve_levels(symb).max()) + 1,
            **self.counts,
        }

    def gpu_model(self, measured_rl_s):
        """The paper's headline ratio on this pattern — *modeled* device
        seconds against the modeled best CPU time, labelled as such — and
        how far the modeled CPU clock is from the measured one.  A speed-up
        of 0 says the modeled device ran out of memory: the paper's
        nlpkkt120 outcome for RL, whose whole panel and update matrix must
        fit on the device."""
        plan, v = self.b.plan, self.b.primary.values[0]

        def modeled(engine):
            try:
                return plan.factorize(v, engine=engine).result.modeled_seconds
            except DeviceOutOfMemory:
                return float("inf")

        cpu_rl = modeled("rl")
        best = min(cpu_rl, modeled("rlb"))
        return {
            "gpu.model_rl_gpu_speedup": best / modeled("rl_gpu"),
            "gpu.model_rlb_gpu_speedup": best / modeled("rlb_gpu_v2"),
            "gpu.model_cpu_error": cpu_rl / measured_rl_s,
        }
