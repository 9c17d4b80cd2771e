"""Shared service state: job records, in-flight coalescing, metrics.

Everything here is touched from the daemon's connection threads *and*
from its supervisor threads, so each structure guards its mutable
fields with its own lock and exposes snapshot-style accessors that
return plain JSON-serializable data.
"""

from __future__ import annotations

import math
import threading
import time
import uuid
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.api.job import TuningJob
from repro.api.report import SolveReport

__all__ = ["CampaignRecord", "JOB_STATES", "InFlight", "JobRecord",
           "ServiceMetrics", "percentiles"]

#: how many of the most recent per-job latency samples feed the
#: ``/metrics`` percentiles (a bounded sliding window, not all-time)
LATENCY_WINDOW = 2048


def percentiles(samples: Iterable[float],
                points: Sequence[float] = (50.0, 95.0, 99.0),
                ) -> dict[str, float]:
    """Nearest-rank percentiles of ``samples``, keyed ``"p50"`` etc.

    Empty input yields all-zero values (the service reports them
    before any job has finished). Shared by the service's ``/metrics``
    section and the ``repro load`` report so both quote the same
    statistic.
    """
    ordered = sorted(samples)
    out: dict[str, float] = {}
    for point in points:
        key = f"p{point:g}"
        if not ordered:
            out[key] = 0.0
            continue
        rank = max(1, math.ceil(point / 100.0 * len(ordered)))
        out[key] = float(ordered[min(rank, len(ordered)) - 1])
    return out

#: lifecycle: queued -> running -> done | failed | cancelled
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states a record can no longer leave
TERMINAL_STATES = ("done", "failed", "cancelled")


def _new_job_id() -> str:
    # repro: allow[determinism] runtime-only handle, never fingerprinted
    return f"job-{uuid.uuid4().hex[:12]}"


@dataclass
class JobRecord:
    """One submitted tuning request tracked by the daemon."""

    job: TuningJob
    solver: str
    fingerprint: str
    id: str = field(default_factory=_new_job_id)
    status: str = "queued"
    #: wall-clock timestamps, display-only — duration math must use the
    #: monotonic counterparts below (wall-clock can step under NTP)
    submitted_at: float = field(default_factory=time.time)  # repro: allow[determinism] display timestamp
    started_at: float | None = None
    finished_at: float | None = None
    _submitted_monotonic: float = field(default_factory=time.monotonic,
                                        repr=False)
    _started_monotonic: float | None = field(default=None, repr=False)
    _finished_monotonic: float | None = field(default=None, repr=False)
    #: latest (S, G)-cell progress relayed by the solver, if any
    progress: dict[str, int] | None = None
    error: str | None = None
    report: SolveReport | None = None
    #: True when the answer came straight from the shared PlanCache
    from_cache: bool = False
    #: True when this record attached to another record's in-flight search
    coalesced: bool = False
    #: who submitted (the ``X-Repro-Client`` header; quota bookkeeping)
    client: str = ""
    #: True while this record holds one of its client's quota slots —
    #: flipped off exactly once, at the terminal transition
    counted: bool = field(default=False, repr=False)
    cancel_event: threading.Event = field(default_factory=threading.Event,
                                          repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def wait_seconds(self) -> float | None:
        """Queue wait measured on the monotonic clock."""
        if self._started_monotonic is None:
            return None
        return self._started_monotonic - self._submitted_monotonic

    @property
    def duration_seconds(self) -> float | None:
        """Solve latency measured on the monotonic clock."""
        if self._started_monotonic is None or self._finished_monotonic is None:
            return None
        return self._finished_monotonic - self._started_monotonic

    def mark_running(self) -> None:
        with self._lock:
            if self.status == "queued":
                self.status = "running"
                self.started_at = time.time()  # repro: allow[determinism] display timestamp
                self._started_monotonic = time.monotonic()

    def complete(self, report: SolveReport, *,
                 from_cache: bool = False) -> bool:
        with self._lock:
            if self.finished:
                return False
            self.status = "done"
            self.report = report
            self.from_cache = from_cache
            self.finished_at = time.time()  # repro: allow[determinism] display timestamp
            self._finished_monotonic = time.monotonic()
            return True

    def fail(self, error: str) -> bool:
        with self._lock:
            if self.finished:
                return False
            self.status = "failed"
            self.error = error
            self.finished_at = time.time()  # repro: allow[determinism] display timestamp
            self._finished_monotonic = time.monotonic()
            return True

    def cancel(self) -> bool:
        """Request cancellation; returns False if already finished."""
        with self._lock:
            if self.finished:
                return False
            self.cancel_event.set()
            self.status = "cancelled"
            self.finished_at = time.time()  # repro: allow[determinism] display timestamp
            self._finished_monotonic = time.monotonic()
            return True

    def to_dict(self, *, include_report: bool = True) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = {
                "id": self.id,
                "solver": self.solver,
                "fingerprint": self.fingerprint,
                "status": self.status,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "wait_seconds": self.wait_seconds,
                "duration_seconds": self.duration_seconds,
                "from_cache": self.from_cache,
                "coalesced": self.coalesced,
                "client": self.client,
                "progress": dict(self.progress) if self.progress else None,
                "error": self.error,
            }
            if include_report:
                out["job"] = self.job.to_dict()
                out["report"] = (self.report.to_dict()
                                 if self.report is not None else None)
            return out


def _new_campaign_id() -> str:
    # repro: allow[determinism] runtime-only handle, never fingerprinted
    return f"camp-{uuid.uuid4().hex[:12]}"


@dataclass
class CampaignRecord:
    """One ``POST /campaigns`` batch: a named list of cell job records.

    The record only *groups* — each cell is an ordinary
    :class:`JobRecord` that entered through the same submission step as
    :meth:`TuningService.submit`, so cache hits, coalescing, and
    cancellation all behave exactly as for individually submitted jobs.
    The cell list is fixed at creation; per-cell state lives on the
    records themselves.
    """

    name: str
    records: list[JobRecord] = field(default_factory=list)
    id: str = field(default_factory=_new_campaign_id)
    created_at: float = field(default_factory=time.time)  # repro: allow[determinism] display timestamp

    @property
    def status(self) -> str:
        """``running`` -> ``failed`` (any bad cell) -> ``done``."""
        statuses = [record.status for record in self.records]
        if any(s not in TERMINAL_STATES for s in statuses):
            return "running"
        if any(s in ("failed", "cancelled") for s in statuses):
            return "failed"
        return "done"

    def counters(self) -> dict[str, int]:
        statuses = [record.status for record in self.records]
        return {
            "cells": len(self.records),
            "done": statuses.count("done"),
            "failed": statuses.count("failed"),
            "cancelled": statuses.count("cancelled"),
            "from_cache": sum(1 for r in self.records if r.from_cache),
            "coalesced": sum(1 for r in self.records if r.coalesced),
        }

    def to_dict(self, *, include_cells: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "created_at": self.created_at,
            "status": self.status,
            "counters": self.counters(),
        }
        if include_cells:
            out["cells"] = [record.to_dict(include_report=False)
                            for record in self.records]
        return out


class InFlight:
    """One running search shared by every coalesced submission.

    The first record for a ``(solver, fingerprint)`` key creates the
    flight and a worker starts solving; later identical submissions
    :meth:`attach` instead of searching again. The search is cancelled
    only when *every* attached record asked for cancellation.
    """

    def __init__(self, key: tuple[str, str], record: JobRecord) -> None:
        self.key = key
        self._lock = threading.Lock()
        self._records: list[JobRecord] = [record]
        self._running = False

    def attach(self, record: JobRecord) -> None:
        with self._lock:
            self._records.append(record)
            running = self._running
        if running:
            # the search started before this record coalesced on: its
            # lifecycle must still read queued -> running -> terminal
            record.mark_running()

    def mark_running(self) -> None:
        """Flip the flight to running and every attached record with it."""
        with self._lock:
            self._running = True
            records = list(self._records)
        for record in records:
            record.mark_running()

    def records(self) -> list[JobRecord]:
        with self._lock:
            return list(self._records)

    def cancelled(self) -> bool:
        """True once all attached records requested cancellation."""
        records = self.records()
        return bool(records) and all(
            r.cancel_event.is_set() for r in records)


class ServiceMetrics:
    """Thread-safe counters surfaced at ``GET /metrics``.

    ``cache_hits`` / ``cache_misses`` / ``coalesced`` are the proof
    obligations of the service: a repeated job after completion must
    bump ``cache_hits`` (no new search), and concurrent identical jobs
    must bump ``coalesced`` while ``solver_invocations`` rises once.
    """

    _COUNTERS = (
        "jobs_submitted", "jobs_completed", "jobs_failed", "jobs_cancelled",
        "cache_hits", "cache_misses", "coalesced", "solver_invocations",
        "campaigns_submitted", "campaign_cells",
        "rejected_queue", "rejected_quota",
        # elastic re-tuning (POST /replan): warm means an incumbent plan
        # was found and seeded the search; within_budget/budget_expired
        # split how the HTTP exchange resolved against its latency budget
        "replan_requests", "replan_warm", "replan_cold_fallback",
        "replan_cache_hits", "replan_within_budget", "replan_budget_expired",
    )
    #: prune-and-memoize counters accumulated from each completed
    #: search's ``SolveReport.search_stats`` (cache hits excluded — no
    #: search ran)
    _SEARCH_COUNTERS = (
        "cells_total", "cells_explored", "cells_pruned", "cells_infeasible",
        "configs_evaluated", "configs_prefiltered",
        "memo_hits", "memo_misses",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = dict.fromkeys(self._COUNTERS, 0)
        self._search: dict[str, int] = dict.fromkeys(self._SEARCH_COUNTERS, 0)
        self._solve_seconds_total = 0.0
        self._solve_count = 0
        #: sliding windows of per-job end-to-end latency / queue wait
        self._latency: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._wait: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._started_at = time.time()  # repro: allow[determinism] display timestamp
        self._started_monotonic = time.monotonic()

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            if name not in self._counts:
                raise KeyError(f"unknown metric {name!r}")
            self._counts[name] += n

    def observe_solve(self, seconds: float) -> None:
        with self._lock:
            self._solve_seconds_total += float(seconds)
            self._solve_count += 1

    def observe_job(self, wait_seconds: float | None,
                    duration_seconds: float | None) -> None:
        """Record one finished job's queue wait + end-to-end latency."""
        if duration_seconds is None:
            return
        wait = float(wait_seconds) if wait_seconds is not None else 0.0
        with self._lock:
            self._wait.append(wait)
            self._latency.append(wait + float(duration_seconds))

    def avg_solve_seconds(self) -> float:
        """Mean solver wall-time so far (0.0 before the first solve)."""
        with self._lock:
            if not self._solve_count:
                return 0.0
            return self._solve_seconds_total / self._solve_count

    def observe_search(self, search_stats: Mapping[str, Any]) -> None:
        """Fold one report's prune/memo counters into the ledger."""
        if not search_stats:
            return
        with self._lock:
            for name in self._SEARCH_COUNTERS:
                value = search_stats.get(name, 0)
                if isinstance(value, (int, float)):
                    self._search[name] += int(value)

    def snapshot(self, *, in_flight: int = 0, tracked: int = 0,
                 workers: int = 0, campaigns_tracked: int = 0,
                 worker_tier: Mapping[str, Any] | None = None,
                 max_pending: int = 0, quota: int = 0) -> dict[str, Any]:
        with self._lock:
            counts = dict(self._counts)
            search = dict(self._search)
            total = self._solve_seconds_total
            solves = self._solve_count
            latency_samples = list(self._latency)
            wait_samples = list(self._wait)
            started_at = self._started_at
            # monotonic math: immune to NTP steps that would skew or
            # even negate a wall-clock uptime
            uptime = time.monotonic() - self._started_monotonic
        latency = percentiles(latency_samples)
        wait = percentiles(wait_samples)
        return {
            "uptime_seconds": uptime,
            "started_at": started_at,
            "workers": workers,
            "jobs": {
                "submitted": counts["jobs_submitted"],
                "completed": counts["jobs_completed"],
                "failed": counts["jobs_failed"],
                "cancelled": counts["jobs_cancelled"],
                "coalesced": counts["coalesced"],
                "in_flight": in_flight,
                "tracked": tracked,
            },
            "cache": {
                "hits": counts["cache_hits"],
                "misses": counts["cache_misses"],
            },
            "campaigns": {
                "submitted": counts["campaigns_submitted"],
                "cells": counts["campaign_cells"],
                "tracked": campaigns_tracked,
            },
            "solver": {
                "invocations": counts["solver_invocations"],
                "solve_seconds_total": total,
                "solve_seconds_avg": (total / solves) if solves else 0.0,
            },
            "admission": {
                "max_pending": max_pending,
                "quota": quota,
                "queue_depth": in_flight,
                "rejected_queue": counts["rejected_queue"],
                "rejected_quota": counts["rejected_quota"],
            },
            "replan": {
                "requests": counts["replan_requests"],
                "warm": counts["replan_warm"],
                "cold_fallback": counts["replan_cold_fallback"],
                "cache_hits": counts["replan_cache_hits"],
                "within_budget": counts["replan_within_budget"],
                "budget_expired": counts["replan_budget_expired"],
            },
            "latency": {
                "samples": len(latency_samples),
                "p50": latency["p50"],
                "p95": latency["p95"],
                "p99": latency["p99"],
                "wait_p50": wait["p50"],
                "wait_p95": wait["p95"],
                "wait_p99": wait["p99"],
            },
            "worker_tier": dict(worker_tier) if worker_tier else
            {"mode": "thread", "workers": workers, "restarts": 0},
            "search": search,
        }
