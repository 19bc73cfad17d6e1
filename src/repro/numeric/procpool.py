"""Shared-memory multiprocess execution of the coarse (RL) task DAG.

Worker threads only scale where BLAS releases the GIL; the
scatter/commit/bookkeeping Python inside the task bodies serializes on
real multicore hosts.  This module escapes the GIL with a third
substrate: a persistent pool of **worker processes** draining
the coarse task DAG of :mod:`repro.numeric.executor`, with the
:class:`~repro.numeric.storage.FactorStorage` panels living in a
``multiprocessing.shared_memory`` arena so the per-task protocol is
pickle-free (the shared factor is an ordinary ``FactorStorage`` over the
segment, :meth:`FactorStorage.over <repro.numeric.storage.FactorStorage.over>`)
— the symbolic factor and the bounds of the pattern's task ranges
(:mod:`repro.symbolic.ranges`) ship once at pool warm-up, each worker
rebuilds the parent's :func:`~repro.numeric.executor.dag_plan` from them
(the parent counts down its ``children`` / ``indeg`` edges, the workers
apply its ``incoming`` lists), and every task message is just
``("task", tid)`` — one per task range, not one per supernode: a job on
the 64² grid is 21 messages each way instead of 957.

Determinism (the target pulls, across processes)
------------------------------------------------
A worker runs the thread lane's task body
(:func:`~repro.numeric.executor.range_tasks`) over the shared arenas: it
first subtracts the updates parked for its range
(:attr:`~repro.numeric.executor.DagPlan.incoming`, ascending source order —
the serial engines' per-panel accumulation order), then runs the serial
bodies over the range and parks what *leaves* it.  The only difference to the
threads is the store — a private slot per leaving source in a shared
scratch arena, written with ``np.copyto``, instead of a dict holding arrays
by reference.  A panel has one writer, so nothing needs a lock that would
have to cross a process boundary, and factors are bit-identical to the serial
twins at any worker count, under both ``fork`` and ``spawn``.

Scheduling & failure
--------------------
The parent owns the DAG: it tracks indegrees, dispatches ready tasks to
the least-loaded worker over per-worker pipes (a small prefetch depth
keeps workers busy between round trips); the report is what the parent
measured (no model field), so
nothing but ``("done", tid)`` acknowledgements crosses a pipe at run time
(a traced job additionally collects its per-task spans at job end).  A
worker that hits a non-SPD pivot reports
``("error", tid, "npd", pivot)``; the parent stops dispatching, drains
in-flight tasks and re-raises
:class:`~repro.dense.kernels.NotPositiveDefiniteError` with the original
pivot, so the ``batch_index`` / ``for_stream`` annotation layers above
work unchanged.  A worker that *dies* (killed, crashed, pipe closed) is a
different failure: the request that notices raises the typed
:class:`WorkerDiedError` and closes the pool — surviving workers joined,
arenas unlinked — and :func:`default_process_pool` replaces a closed pool
on next use, so one lost process costs one request.

Lifecycle
---------
Workers are started once per :class:`ProcessPool` (BLAS pinned to one
thread via :mod:`repro.numeric.blas_limits` — the env is inherited, which
is the only channel that reaches a spawn child before its numpy import)
and reused across any number of same- or different-pattern jobs; the
parent is the sole owner of every shared-memory segment (create / close /
unlink), so :meth:`ProcessPool.close` leaves nothing behind in
``/dev/shm``.  Prefer creating the pool (or calling
:func:`factorize_process` once) from the main thread before starting
thread pools or serving sessions — ``fork`` with live threads is the
classic multiprocessing footgun; ``start_method="spawn"`` sidesteps it
at the cost of a slower warm-up.
"""

from __future__ import annotations

import atexit
import dataclasses
import heapq
import itertools
import math
import os
import pickle
import threading
import time
import traceback
import multiprocessing as mp
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _connection_wait

import numpy as np

from ..dense.kernels import NotPositiveDefiniteError, check_dtype
from ..symbolic.ranges import TaskRanges
from ..symbolic.relind import assembly_index
from .blas_limits import pinned_blas_env, process_worker_main
from .executor import _resolve_workers, _task_label_fn, dag_plan, range_tasks
from .result import FactorizeResult
from .storage import FactorStorage

__all__ = [
    "ProcessPool",
    "WorkerDiedError",
    "factorize_process",
    "default_process_pool",
    "close_default_pools",
]

_WATCHDOG_S = 120.0  # give up on a silent worker after this long
_PREFETCH = 2  # tasks in flight per worker (hides pipe round trips)
_SHM_COUNTER = itertools.count()


class WorkerDiedError(RuntimeError):
    """A :class:`ProcessPool` worker process died (killed, crashed, or
    closed its pipe).  Only the request that noticed fails; the pool is
    closed — surviving workers joined, shared-memory arenas unlinked — and
    :func:`default_process_pool` hands the next request a fresh one."""


def _resolve_start_method(start_method):
    methods = mp.get_all_start_methods()
    if start_method is None:
        return mp.get_start_method()
    if start_method not in methods:
        raise ValueError(
            f"unknown start method {start_method!r}; this platform supports "
            f"{methods}"
        )
    return start_method


# ---------------------------------------------------------------------------
# The scratch arena (the parent ships the partition's bounds at warm-up and
# every worker derives the same plan, hence the same slots, from them)
# ---------------------------------------------------------------------------
def _scratch_shapes(symb, plan):
    """``{slot: shape}`` of the parked-update scratch arena, in arena order.
    Only updates that *leave* their source's task range are parked, so only
    they get a slot: per such source supernode ``s`` (keyed ``s``) what
    :func:`~repro.numeric.rl.park_runs` keeps of its update matrix."""
    index = assembly_index(symb)
    below = (np.diff(symb.rowptr) - np.diff(symb.snptr)).tolist()
    shapes = {}
    for s, stay in enumerate(plan.stay):
        if stay < len(index.targets[s]):
            flat = index.flat[s]  # what rl.park_runs keeps of the update
            shapes[s] = ((below[s], below[s]) if flat is None
                         else (len(flat[1]) - flat[2][stay][1],))
    return shapes


def _scratch_views(shapes, buf, dtype):
    """``{slot: update-matrix view}`` over a scratch-arena buffer."""
    views = {}
    offset = 0
    for slot, shape in shapes.items():
        views[slot] = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset, order="F")
        offset += views[slot].nbytes
    return views


def _shm_name():
    return f"repro_pp_{os.getpid()}_{next(_SHM_COUNTER)}"


def _create_shm(nbytes):
    while True:
        try:
            return shared_memory.SharedMemory(
                create=True, size=max(int(nbytes), 1), name=_shm_name()
            )
        except FileExistsError:  # pragma: no cover - stale segment
            continue


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _attach_shm(name):
    """Attach an existing segment.  Workers share the parent's resource
    tracker (:class:`ProcessPool` starts it before the first worker, so
    fork children inherit a live tracker fd and spawn children receive it
    in their preparation data) — the attach-side registration is therefore
    an idempotent duplicate of the parent's own and must NOT be
    unregistered, or the parent's leak protection goes with it."""
    return shared_memory.SharedMemory(name=name)


class _SharedParked(dict):
    """The parked-update store of a worker process: the scratch-arena views.
    Parking copies into the slot every process sees; dropping is nothing,
    the arena outlives the job."""

    def __setitem__(self, slot, update):
        np.copyto(self[slot], update)

    def __delitem__(self, slot):
        pass


class _WorkerState:
    """One warmed pattern inside a worker process: shared-memory views plus
    the task body (:func:`~repro.numeric.executor.range_tasks`) over the DAG
    plan rebuilt locally from the parent's partition."""

    def __init__(self, symb, bounds, panels_name, scratch_name, dtype=np.float64):
        self.panels_shm = _attach_shm(panels_name)
        self.scratch_shm = _attach_shm(scratch_name)
        # the same storage class as in-process, its arena in shared memory
        self.storage = FactorStorage.over(symb, self.panels_shm.buf, dtype)
        plan = dag_plan(symb, "coarse", TaskRanges(bounds))
        shapes = _scratch_shapes(symb, plan)
        scratch = _SharedParked(_scratch_views(shapes, self.scratch_shm.buf, dtype))
        # the thread lane's task body, over the shared arenas
        self.run_task = range_tasks(symb, self.storage, plan, scratch)

    def release(self):
        # drop every numpy view before closing, else the exported
        # memoryviews keep the mapping alive (BufferError)
        self.storage = self.run_task = None
        for shm in (self.panels_shm, self.scratch_shm):
            try:
                shm.close()
            except BufferError:  # pragma: no cover - defensive
                pass


def _worker_loop(conn, worker_index):
    """Message loop of one worker process (entered via
    :func:`repro.numeric.blas_limits.process_worker_main`)."""
    states = {}
    state = None
    spans = None
    want_trace = False
    t0 = 0.0
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "task":
                tid = msg[1]
                start = time.perf_counter() - t0
                try:
                    state.run_task(tid)
                except NotPositiveDefiniteError as exc:
                    conn.send(("error", tid, "npd", int(exc.pivot)))
                    continue
                except BaseException:
                    conn.send(("error", tid, "exc", traceback.format_exc()))
                    continue
                if want_trace:
                    spans.append((tid, start, time.perf_counter() - t0))
                conn.send(("done", tid))
            elif cmd == "job":
                state = states[msg[1]]
                t0 = msg[2]
                want_trace = msg[3]
                spans = []
            elif cmd == "endjob":  # traced jobs only
                conn.send(("spans", spans))
                spans = None
            elif cmd == "warm":
                _, key, blob, bounds, panels_name, scratch_name, dtype_name = msg
                symb = pickle.loads(blob)
                states[key] = _WorkerState(symb, bounds, panels_name, scratch_name,
                                           np.dtype(dtype_name))
                conn.send(("warmed", key))
            elif cmd == "close":
                break
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        for st in states.values():
            st.release()
        try:
            conn.send(("bye",))
        except Exception:
            pass
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class _WarmEntry:
    """Parent-side record of one warmed pattern: the arenas it owns plus
    the scheduler's DAG edges."""

    __slots__ = ("key", "wkey", "symb", "plan", "dtype", "panels_shm",
                 "scratch_shm", "storage")

    def __init__(self, key, symb, dtype=np.float64):
        self.key = key
        self.dtype = np.dtype(dtype)
        self.wkey = f"{id(symb):x}:{self.dtype.name}"
        self.symb = symb
        self.plan = dag_plan(symb, "coarse")
        itemsize = self.dtype.itemsize
        entries = sum(map(math.prod, _scratch_shapes(symb, self.plan).values()))
        self.panels_shm = _create_shm(int(symb.panel_offsets()[-1]) * itemsize)
        self.scratch_shm = _create_shm(entries * itemsize)
        self.storage = FactorStorage.over(symb, self.panels_shm.buf, self.dtype)

    def close(self):
        self.storage = None  # its views pin the mapping
        for shm in (self.panels_shm, self.scratch_shm):
            try:
                shm.close()
            except BufferError:  # pragma: no cover - defensive
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass


class ProcessPool:
    """Persistent pool of worker processes draining factorization DAGs.

    One pool serves any number of patterns (warm state is cached per
    ``(symbolic factor, dtype)``) and any number of sequential jobs;
    concurrent callers (e.g. several gateway serving sessions sharing the
    default pool) serialize on an internal lock — one DAG at a time, which
    is also what keeps per-job wall time honest.  Create pools on the main
    thread before starting thread pools where possible (see module
    docstring for the fork-with-threads caveat; ``start_method="spawn"``
    is the robust alternative).
    """

    def __init__(self, workers=None, *, start_method=None):
        self.workers = _resolve_workers(workers)
        self.start_method = _resolve_start_method(start_method)
        ctx = mp.get_context(self.start_method)
        self._lock = threading.Lock()
        self._warm = {}
        self._closed = False
        self._procs = []
        self._conns = []
        # Start the resource tracker BEFORE the first worker so every
        # child shares the parent's tracker (fork children inherit the
        # live fd, spawn children receive it in their preparation data).
        # Otherwise a fork worker would lazily spawn its OWN tracker on
        # first shm attach, which then "cleans up" the parent's segments
        # when the worker exits.
        try:  # pragma: no branch
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        with pinned_blas_env(1):
            for i in range(self.workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=process_worker_main,
                    args=(child_conn, i),
                    name=f"repro-proc-{i}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)

    # ------------------------------------------------------------------
    @property
    def closed(self):
        return self._closed

    def __repr__(self):  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (f"ProcessPool(workers={self.workers}, "
                f"start_method={self.start_method!r}, {state})")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def shm_names(self):
        """Names of every live shared-memory segment this pool owns
        (leak-test hook: all must be gone after :meth:`close`)."""
        names = []
        for entry in self._warm.values():
            names.append(entry.panels_shm.name)
            names.append(entry.scratch_shm.name)
        return names

    # ------------------------------------------------------------------
    def _check_alive(self):
        dead = [i for i, p in enumerate(self._procs) if not p.is_alive()]
        if dead:
            raise WorkerDiedError(
                f"process backend worker(s) {dead} died unexpectedly "
                f"(exitcodes {[self._procs[i].exitcode for i in dead]})"
            )

    def _recv(self, conn, timeout=_WATCHDOG_S):
        deadline = time.monotonic() + timeout
        while True:
            if conn.poll(1.0):
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    self._check_alive()
                    raise WorkerDiedError(
                        "process backend worker closed its pipe"
                    ) from None
            self._check_alive()
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "timed out waiting for a process backend worker"
                )

    def _warm_entry(self, symb, dtype=np.float64):
        dtype = np.dtype(dtype)
        # entry keeps symb alive, id is stable
        key = (id(symb), dtype)
        entry = self._warm.get(key)
        if entry is not None:
            return entry
        entry = _WarmEntry(key, symb, dtype)
        blob = pickle.dumps(dataclasses.replace(symb, _cache=None))
        try:
            for conn in self._conns:
                conn.send(("warm", entry.wkey, blob, entry.plan.ranges.bounds,
                           entry.panels_shm.name, entry.scratch_shm.name, dtype.name))
            for conn in self._conns:
                msg = self._recv(conn)
                if msg[0] != "warmed" or msg[1] != entry.wkey:
                    raise RuntimeError(
                        f"unexpected worker reply during warm-up: {msg[:2]}"
                    )
        except BaseException:
            entry.close()
            raise
        self._warm[key] = entry
        return entry

    # ------------------------------------------------------------------
    def run_job(self, symb, A, *, tracer=None, dtype=None):
        """Factorize one matrix on the pool.  Returns ``(storage,
        wall_seconds, ntasks)`` with ``storage`` a fresh (non-shared)
        :class:`FactorStorage`."""
        dt = check_dtype(A.data.dtype if dtype is None else dtype,
                         context="storage")
        with self._lock:
            if self._closed:
                raise RuntimeError("process pool is closed")
            try:
                entry = self._warm_entry(symb, dt)
                entry.storage.refill(A)  # the shared arena, cleared and scattered
                return self._drain(entry, tracer)
            except (ConnectionError, EOFError, WorkerDiedError) as exc:
                # a send to / recv from a dead worker: this request fails
                # typed, the pool is released, the next one starts fresh
                self._shutdown()
                if isinstance(exc, WorkerDiedError):
                    raise
                raise WorkerDiedError(
                    f"process backend worker died mid-request ({exc!r})"
                ) from exc

    def _drain(self, entry, tracer):
        conns = self._conns
        nworkers = self.workers
        t0 = time.perf_counter()
        want_trace = tracer is not None
        for conn in conns:
            conn.send(("job", entry.wkey, t0, want_trace))
        indeg = list(entry.plan.indeg)
        children = entry.plan.children
        ntasks = entry.plan.ntasks
        heap = [t for t in range(ntasks) if indeg[t] == 0]
        heapq.heapify(heap)
        inflight = [0] * nworkers
        assigned = {}
        done = 0
        failure = None

        def dispatch():
            while heap:
                wid = min(range(nworkers), key=inflight.__getitem__)
                if inflight[wid] >= _PREFETCH:
                    return
                tid = heapq.heappop(heap)
                conns[wid].send(("task", tid))
                assigned[tid] = wid
                inflight[wid] += 1

        dispatch()
        last_progress = time.monotonic()
        while (failure is None and done < ntasks) or any(inflight):
            if failure is None and not any(inflight):
                raise RuntimeError(
                    f"process backend deadlock: ran {done} of {ntasks} tasks"
                )
            ready = _connection_wait(conns, timeout=1.0)
            if not ready:
                self._check_alive()
                if time.monotonic() - last_progress > _WATCHDOG_S:
                    raise RuntimeError(
                        "timed out waiting for process backend workers"
                    )
                continue
            last_progress = time.monotonic()
            for conn in ready:
                msg = conn.recv()
                tid = msg[1]
                wid = assigned.pop(tid)
                inflight[wid] -= 1
                done += 1
                if msg[0] == "done":
                    for c in children[tid]:
                        indeg[c] -= 1
                        if indeg[c] == 0:
                            heapq.heappush(heap, c)
                elif failure is None:
                    failure = msg
            if failure is None:
                dispatch()
        spans_by_worker = []
        if want_trace:
            for conn in conns:
                conn.send(("endjob",))
            for conn in conns:
                msg = self._recv(conn)
                if msg[0] != "spans":  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unexpected worker reply: {msg[:1]}")
                spans_by_worker.append(msg[1])
        wall = time.perf_counter() - t0
        if failure is not None:
            raise self._rebuild_error(failure)
        storage = FactorStorage.zeros(entry.symb, entry.dtype)
        storage.arena[:] = entry.storage.arena
        if want_trace:
            label_of = _task_label_fn(entry.plan)
            for wid, spans in enumerate(spans_by_worker):
                lane = f"proc{wid}"
                for tid, start, stop in spans:
                    tracer.record(lane, label_of(tid), start, stop)
        return storage, wall, ntasks

    @staticmethod
    def _rebuild_error(failure):
        _, tid, kind, payload = failure
        if kind == "npd":
            return NotPositiveDefiniteError(payload)
        return RuntimeError(
            f"process backend task {tid} failed in a worker:\n{payload}"
        )

    # ------------------------------------------------------------------
    def close(self):
        """Stop the workers and release every shared-memory arena.  Safe
        to call more than once; afterwards the pool rejects jobs."""
        with self._lock:
            self._shutdown()

    def _shutdown(self):
        """:meth:`close` with the lock already held."""
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=10.0)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        for entry in self._warm.values():
            entry.close()
        self._warm.clear()


# ---------------------------------------------------------------------------
# Default pools (module-level cache, one per (workers, start_method))
# ---------------------------------------------------------------------------
_DEFAULT_POOLS = {}
_DEFAULT_LOCK = threading.Lock()


def default_process_pool(workers=None, start_method=None):
    """The shared :class:`ProcessPool` for ``(workers, start_method)``,
    creating (or re-creating, after a close) it on first use.  This is the
    pool :func:`factorize_process` uses when no explicit ``pool=`` is given
    — serving sessions and the gateway therefore share worker processes
    instead of spawning per request."""
    workers = _resolve_workers(workers)
    start_method = _resolve_start_method(start_method)
    key = (workers, start_method)
    with _DEFAULT_LOCK:
        pool = _DEFAULT_POOLS.get(key)
        if pool is None or pool.closed:
            if pool is not None:
                pool.close()  # release whatever a closed pool still holds
            pool = ProcessPool(workers, start_method=start_method)
            _DEFAULT_POOLS[key] = pool
        return pool


def close_default_pools():
    """Close every cached default pool (also runs at interpreter exit)."""
    with _DEFAULT_LOCK:
        pools = list(_DEFAULT_POOLS.values())
        _DEFAULT_POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(close_default_pools)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
def factorize_process(symb, A, *, workers=None, start_method=None, tracer=None,
                      pool=None, dtype=None):
    """Factorize with the coarse task-DAG runtime on a worker-process pool
    (engine ``rl_proc``).

    Same contract as :func:`~repro.numeric.executor.factorize_executor`:
    factors are bit-identical to the serial ``rl`` at any worker count (the
    pull rule above), the model fields of the result are ``None``, and
    ``extra`` carries ``workers`` / ``backend`` / ``granularity`` /
    ``start_method`` / measured ``wall_seconds`` / ``tasks``.  Pass
    ``tracer=`` to record measured per-task spans on ``proc0``, ``proc1``,
    ... lanes.  ``pool=`` reuses
    an explicit :class:`ProcessPool` (mutually exclusive with ``workers=``
    / ``start_method=``); otherwise the module's default pool for
    ``(workers, start_method)`` is used and kept warm across calls.
    """
    if pool is not None:
        if workers is not None or start_method is not None:
            raise ValueError(
                "pass either pool= or workers=/start_method=, not both"
            )
    else:
        pool = default_process_pool(workers, start_method)
    storage, wall, ntasks = pool.run_job(symb, A, tracer=tracer, dtype=dtype)
    return FactorizeResult(
        "rl_proc",
        storage,
        symb.nsup,
        extra={
            "workers": pool.workers,
            "backend": "process",
            "granularity": "coarse",
            "start_method": pool.start_method,
            "wall_seconds": wall,
            "tasks": ntasks,
        },
    )
