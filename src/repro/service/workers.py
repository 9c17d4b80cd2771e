"""Solver worker tiers: in-process threads or worker processes.

The daemon front (submit / coalesce / plan cache, see ``server.py``) is
tier-agnostic: once a ``(solver, fingerprint)`` key misses the cache
and is not already in flight, the search is handed to a *worker tier*:

* :class:`ThreadWorkerTier` — the search runs on the calling pool
  thread via :func:`repro.api.solve`, looked up as this module's
  ``solve`` on every call (a tool that wraps that name sees every
  search). Cheap, shares the process-wide menu memo, but the GIL
  serializes the search hot path.
* :class:`ProcessWorkerTier` — ``N`` single-process pools
  (``spawn`` start method: forking a multi-threaded daemon is
  deadlock-prone). Searches run on real cores; results come back as
  serialized :class:`~repro.api.SolveReport` dicts.

The process tier's one dispatch rule (:meth:`ProcessWorkerTier.run`,
called by the daemon and the campaign ``process-pool`` executor): a
search takes whichever slot is idle, waiting in the tier's queue while
none is. The daemon's coalescing and plan cache answer a repeated key
before the tier sees it.

Chaos semantics: a worker process dying mid-search surfaces as
:class:`concurrent.futures.process.BrokenProcessPool`. The tier
retires the broken pool, respawns the slot lazily, and retries the
search up to ``retries`` times before raising :class:`WorkerDiedError`
— so one ``kill -9`` fails (or transparently retries) only the search
running on that worker and never wedges the queue. An exception the
solver itself raises inside a healthy worker (``OOMError``, a bad job,
...) propagates unchanged: the worker is kept and nothing is retried.

Cancellation in the process tier is dispatch-side: ``should_stop`` is
polled while waiting for a slot (a search cancelled there never
reaches a worker) and while awaiting the worker. A search already
running finishes in the background, its report still landing in the
shared plan cache, and keeps its slot until then. There is no
cross-process mid-search signal, nor a ``progress`` relay.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.api import PlanCache, SolveReport, TuningJob, solve
from repro.api.solvers import solve_in_worker
from repro.core.tuner import SearchCancelled

__all__ = ["ProcessWorkerTier", "ThreadWorkerTier", "WorkerDiedError",
           "make_tier"]

#: per-cell progress relay: ``progress(done, total)``
ProgressFn = Callable[[int, int], None]
#: cooperative cancellation poll: True means stop searching
StopFn = Callable[[], bool]

#: how often a waiting dispatch thread polls ``should_stop`` (seconds)
_POLL_INTERVAL_S = 0.05


class WorkerDiedError(RuntimeError):
    """A worker process died mid-search (retries exhausted)."""


def _process_ping() -> int:
    """Force a worker process to exist; report its pid."""
    return os.getpid()


class ThreadWorkerTier:
    """Run searches inline on the caller's (pool) thread, through
    :func:`repro.api.solve`, with full ``progress`` / ``should_stop``
    hook fidelity."""

    mode = "thread"

    def __init__(self, workers: int):
        self.workers = int(workers)

    def run(self, job: TuningJob, solver: str, *,
            cache: PlanCache | None = None,
            progress: ProgressFn | None = None,
            should_stop: StopFn | None = None) -> SolveReport:
        return solve(job, solver, cache=cache,
                     progress=progress, should_stop=should_stop)

    def warm(self, timeout: float = 60.0) -> list[int]:
        """Nothing to pre-spawn; searches run in this process."""
        del timeout
        return []

    def worker_pids(self) -> list[int | None]:
        return []

    def stats(self) -> dict[str, Any]:
        return {"mode": self.mode, "workers": self.workers, "restarts": 0}

    def shutdown(self, wait: bool = False) -> None:
        del wait


class ProcessWorkerTier:
    """Run each search on whichever single-process worker pool is idle.

    Each slot is its own one-worker :class:`ProcessPoolExecutor`
    (``spawn`` start), so a crash is contained: only the broken slot
    respawns, the other workers keep their warm state.
    """

    mode = "process"

    def __init__(self, workers: int, *, retries: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = int(workers)
        self.retries = int(retries)
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._pools: list[ProcessPoolExecutor | None] = [None] * workers
        self._pids: list[int | None] = [None] * workers
        self._idle: queue.SimpleQueue[int] = queue.SimpleQueue()
        for index in range(workers):
            self._idle.put(index)
        self._restarts = 0

    # -- slot management ---------------------------------------------------

    def _pool_for(self, index: int) -> ProcessPoolExecutor:
        with self._lock:
            pool = self._pools[index]
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=1,
                                           mp_context=self._ctx)
                self._pools[index] = pool
            return pool

    def _retire(self, index: int, broken: ProcessPoolExecutor) -> None:
        """Drop a broken slot so the next submit respawns it."""
        with self._lock:
            if self._pools[index] is broken:
                self._pools[index] = None
                self._pids[index] = None
                self._restarts += 1
        broken.shutdown(wait=False, cancel_futures=True)

    # -- search ------------------------------------------------------------

    def run(self, job: TuningJob, solver: str, *,
            cache: PlanCache | None = None,
            progress: ProgressFn | None = None,
            should_stop: StopFn | None = None) -> SolveReport:
        """Search on an idle slot; a dead worker is respawned and the
        search retried up to ``retries`` times."""
        del progress  # no cross-process progress channel (see module doc)
        if should_stop is not None and should_stop():
            raise SearchCancelled("cancelled before dispatch to a worker")
        index: int = self._await(lambda t: self._idle.get(timeout=t),
                                 should_stop, "waiting for a worker slot")
        cache_dir = str(cache.root) if cache is not None else None
        future: Future[tuple[int, dict[str, Any], bool]] | None = None
        attempts = 0
        try:
            while True:
                attempts += 1
                pool = self._pool_for(index)
                try:
                    # RuntimeError here: the slot's pool broke (or was
                    # shut down) before this submit
                    future = pool.submit(solve_in_worker, solver,
                                         job.to_dict(), cache_dir)
                except RuntimeError as exc:
                    died: Exception = exc
                else:
                    try:
                        # a cancelled wait leaves the worker searching;
                        # its report still lands in the plan cache
                        pid, data, from_cache = self._await(
                            future.result, should_stop,
                            "awaiting a worker process")
                    except BrokenProcessPool as exc:
                        # the worker died mid-search; anything else
                        # raised here is the solver's own error
                        died = exc
                    else:
                        with self._lock:
                            self._pids[index] = pid
                        report = SolveReport.from_dict(data)
                        report.from_cache = from_cache
                        return report
                self._retire(index, pool)
                if attempts > self.retries:
                    raise WorkerDiedError(
                        f"solver worker {index} died mid-search "
                        f"({attempts} attempt(s)): {died}") from died
        finally:
            # the slot is idle once its worker is: a search abandoned
            # by cancellation holds it until it finishes
            if future is None:
                self._idle.put(index)
            else:
                future.add_done_callback(lambda _: self._idle.put(index))

    @staticmethod
    def _await(wait: Callable[[float], Any], should_stop: StopFn | None,
               doing: str) -> Any:
        """``wait(timeout)``'s result, polling ``should_stop`` each time
        it times out."""
        while True:
            try:
                return wait(_POLL_INTERVAL_S)
            except (queue.Empty, _FutureTimeoutError):
                if should_stop is not None and should_stop():
                    raise SearchCancelled(f"cancelled while {doing}") \
                        from None

    # -- introspection / lifecycle ----------------------------------------

    def warm(self, timeout: float = 60.0) -> list[int]:
        """Spawn every worker up front, so that no request pays
        process-spawn latency; returns their pids."""
        futures = [(index, self._pool_for(index).submit(_process_ping))
                   for index in range(self.workers)]
        deadline = time.monotonic() + timeout
        pids: list[int] = []
        for index, future in futures:
            remaining = max(0.1, deadline - time.monotonic())
            pid = future.result(timeout=remaining)
            with self._lock:
                self._pids[index] = pid
            pids.append(pid)
        return pids

    def worker_pids(self) -> list[int | None]:
        """Last-known pid per slot (``None`` until first contact)."""
        with self._lock:
            return list(self._pids)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            restarts = self._restarts
        return {"mode": self.mode, "workers": self.workers,
                "restarts": restarts}

    def shutdown(self, wait: bool = False) -> None:
        with self._lock:
            pools = [pool for pool in self._pools if pool is not None]
            self._pools = [None] * self.workers
            self._pids = [None] * self.workers
        for pool in pools:
            pool.shutdown(wait=wait, cancel_futures=True)


def make_tier(mode: str, workers: int, *,
              retries: int = 1) -> "ThreadWorkerTier | ProcessWorkerTier":
    """Build the worker tier for ``repro serve --worker-mode <mode>``."""
    if mode == "thread":
        return ThreadWorkerTier(workers)
    if mode == "process":
        return ProcessWorkerTier(workers, retries=retries)
    raise ValueError(
        f"unknown worker mode {mode!r}; expected 'thread' or 'process'")
