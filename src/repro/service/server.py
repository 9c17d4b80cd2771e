"""The ``repro serve`` daemon: threaded HTTP front, tiered solver workers.

Architecture — one :class:`http.server.ThreadingHTTPServer`, one
bounded :class:`~concurrent.futures.ThreadPoolExecutor` of *flight
supervisors*, and a pluggable worker tier (``repro.service.workers``):

* each connection gets its own thread, which parses the request, runs
  its route (cache reads and admission included) and writes the JSON
  reply; no connection thread ever runs a solver;
* submissions — ``POST /jobs``, ``/replan`` and every ``/campaigns``
  cell — pass through one locked step keyed by
  ``(solver, TuningJob.fingerprint())``: a cache hit completes
  immediately, an identical in-flight key coalesces onto the running
  search, anything else must pass *admission control* (bounded
  pending queue + per-client quotas; a rejection is ``429 Too Many
  Requests`` with a ``Retry-After`` hint) before a supervisor thread
  hands it to the worker tier;
* ``worker_mode="thread"`` runs the search on the supervisor thread
  itself via :func:`repro.api.solve` (full ``progress`` /
  ``should_stop`` hook fidelity); ``worker_mode="process"`` hands it
  to whichever worker *process* is idle so searches use real cores —
  both share the same on-disk :class:`~repro.api.cache.PlanCache`.

Only the stdlib is used: one HTTP/1.1 exchange per connection
(``Connection: close``, JSON both ways, http.server's own errors too).
"""

from __future__ import annotations

import functools
import json
import math
import re
import signal
import sys
import threading
import time
import traceback
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from email.message import Message
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socketserver import TCPServer
from typing import Any, Literal
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.api import PlanCache, SolveReport, SolverNotFoundError, TuningJob
from repro.api.registry import solver_names
from repro.api.replan import delta_job
from repro.api.replan import replan as api_replan
from repro.core.plan import TrainingPlan
from repro.core.schema import (OBJECT, DecodeError, Field, List, Num, Str,
                               Table, decode)
from repro.core.tuner import SearchCancelled
from repro.hardware import ClusterDelta

from .state import CampaignRecord, InFlight, JobRecord, ServiceMetrics
from .workers import SolveFn, make_tier

#: one flight's search body:
#: ``runner(progress=..., should_stop=...) -> report``
_Runner = Callable[..., SolveReport]
#: how a submission entered: answered from the plan cache, attached to
#: an identical in-flight search, or started a new one
_Outcome = Literal["hit", "coalesced", "started"]

__all__ = ["AdmissionError", "ServiceHandle", "TuningService",
           "UnknownCampaignError", "UnknownJobError"]


class AdmissionError(RuntimeError):
    """The daemon refused a submission (full queue or client quota).

    Maps to ``429 Too Many Requests`` on the wire; ``retry_after`` is
    the server's backoff hint in whole seconds (also sent as the
    ``Retry-After`` header).
    """

    def __init__(self, message: str, *, reason: str, retry_after: int):
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class UnknownJobError(KeyError):
    """No job record under the requested id."""

    def __init__(self, job_id: str):
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


class UnknownCampaignError(KeyError):
    """No campaign record under the requested id."""

    def __init__(self, campaign_id: str):
        super().__init__(f"unknown campaign {campaign_id!r}")
        self.campaign_id = campaign_id

_MAX_BODY_BYTES = 8 * 2**20  # a TuningJob is KBs; reject absurd bodies
#: what TuningJob.fingerprint() returns: 20 lowercase hex digits
_FINGERPRINT = re.compile(r"[0-9a-f]{20}")
#: how often the serving thread checks for :meth:`TuningService.stop`
_STOP_POLL_S = 0.01


class _HttpError(Exception):
    def __init__(self, status: int, message: str, *,
                 headers: dict[str, str] | None = None,
                 extra: dict[str, Any] | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        #: extra response headers (e.g. ``Retry-After`` on a 429)
        self.headers: dict[str, str] = headers or {}
        #: extra JSON payload fields alongside ``{"error": ...}``
        self.extra: dict[str, Any] = extra or {}


_SOLVER = Field("solver", Str(), "mist")
#: a ``POST /jobs`` body
JOB_BODY = Table("request body", (Field("job", OBJECT), _SOLVER))
#: one ``POST /campaigns`` cell
CELL = Table("campaign cell", JOB_BODY.fields)
#: a ``POST /campaigns`` body
CAMPAIGN_BODY = Table("request body", (
    Field("name", Str(), "campaign"),
    Field("cells", List(OBJECT, nonempty=True)),
))
#: a ``POST /replan`` body; the budget is a latency bound in seconds
REPLAN_BODY = Table("request body", (
    *JOB_BODY.fields, Field("delta", OBJECT),
    Field("budget_seconds", Num(ge=0), 0.0),
))


def _parse_job_body(payload: Any, table: Table = JOB_BODY,
                    what: str = "body") -> tuple[TuningJob, dict[str, Any]]:
    """``(job, fields)`` from a body (or campaign cell) decoded by
    ``table``; a malformed one raises :class:`~repro.core.schema.DecodeError`
    naming ``what``."""
    fields = decode(table, payload, what)
    try:
        job = TuningJob.from_dict(fields["job"])
    except DecodeError as exc:
        raise DecodeError(f"{what}: {exc}") from None
    return job, fields


@dataclass
class ServiceHandle:
    """A started service: where it listens and how to stop it."""

    service: "TuningService"
    thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def stop(self, *, timeout: float = 10.0) -> None:
        self.service.stop()
        if self.thread is not None:
            self.thread.join(timeout=timeout)


class TuningService:
    """Long-running tuning daemon over the solver registry.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` once started). ``solve_fn`` is the solver entry point
    and exists for tests — it must match :func:`repro.api.solve`'s
    signature.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, cache: PlanCache | None = None,
                 solve_fn: SolveFn | None = None,
                 worker_mode: str = "thread",
                 max_pending: int = 0, quota: int = 0,
                 worker_retries: int = 1):
        if not 0 <= port <= 65535:
            raise ValueError("port must be in 0..65535 (0 = ephemeral)")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0 (0 = unbounded)")
        if quota < 0:
            raise ValueError("quota must be >= 0 (0 = unlimited)")
        if worker_retries < 0:
            raise ValueError("worker_retries must be >= 0")
        self.host = host
        self.port = port
        self.workers = workers
        self.worker_mode = worker_mode
        #: admission control: max concurrently *pending* searches
        #: (distinct in-flight fingerprints); 0 disables the bound
        self.max_pending = max_pending
        #: admission control: max unresolved jobs per client; 0 = off
        self.quota = quota
        self.cache = cache if cache is not None else PlanCache()
        self.metrics = ServiceMetrics()
        self._tier = make_tier(worker_mode, workers, solve_fn=solve_fn,
                               retries=worker_retries)
        self._jobs: dict[str, JobRecord] = {}
        self._campaigns: dict[str, CampaignRecord] = {}
        self._inflight: dict[tuple[str, str], InFlight] = {}
        #: unresolved-job count per client id (quota bookkeeping)
        self._clients: dict[str, int] = {}
        self._lock = threading.Lock()
        # in process mode a supervisor thread only waits for an idle
        # worker slot and its result; keep more of them than worker
        # processes, since replans run on these threads, not on workers
        supervisors = workers if worker_mode == "thread" else workers * 4
        self._pool = ThreadPoolExecutor(max_workers=supervisors,
                                        thread_name_prefix="repro-solve")
        self._server: _Server | None = None
        self._shutting_down = False

    # -- job lifecycle (thread-safe, usable without HTTP) ------------------

    def submit(self, job: TuningJob, solver: str = "mist", *,
               client: str = "") -> JobRecord:
        """Register a job: cache hit, coalesce, or start a search.

        ``client`` is the submitter's id (the HTTP front passes the
        ``X-Repro-Client`` header) and feeds the per-client quota
        ledger. Raises :class:`AdmissionError` when the pending queue
        is full (new searches only — cache hits and coalescing add no
        load) or the client is over quota.
        """
        record = self._record(job, solver, client)
        with self._lock:
            self._enter_locked(record)
        return record

    def submit_replan(self, job: TuningJob,
                      delta: "ClusterDelta | dict[str, Any]",
                      solver: str = "mist", *, client: str = "",
                      ) -> tuple[JobRecord, TrainingPlan | None]:
        """Register an elastic replan: re-tune ``job`` after ``delta``.

        Returns ``(record, incumbent_plan)``. The record tracks the
        *post-delta* job (its fingerprint is the plan-cache key for the
        re-tuned plan) and enters through the same step as
        :meth:`submit`, so a repeated replan is a cache hit, an
        identical concurrent one (or a plain submit of the post-delta
        job) coalesces, and admission control applies unchanged. The
        incumbent plan is looked up in the cache under the pre-delta
        job; ``None`` means a started search runs cold (still correct,
        just slower).

        Replan searches run on the supervisor thread itself via
        :func:`repro.api.replan` — the process tier's IPC cannot carry
        an incumbent plan — so ``worker_mode="process"`` daemons replan
        on a thread while ordinary solves keep their worker processes.
        """
        if isinstance(delta, dict):
            delta = ClusterDelta.from_dict(delta)
        record = self._record(delta_job(job, delta), solver, client)
        self.metrics.inc("replan_requests")
        incumbent = self.cache.load(job, solver)
        plan = incumbent.plan if incumbent is not None else None
        with self._lock:
            outcome = self._enter_locked(record, functools.partial(
                api_replan, job, delta, solver, cache=self.cache,
                incumbent=plan))
        if outcome == "hit":
            self.metrics.inc("replan_cache_hits")
        elif outcome == "started":
            self.metrics.inc("replan_warm" if plan is not None
                             else "replan_cold_fallback")
        return record, plan

    def submit_campaign(self, cells: list[dict[str, Any]],
                        name: str = "campaign", *,
                        client: str = "") -> CampaignRecord:
        """Register a batch of ``{"job": ..., "solver": ...}`` cells.

        Every cell is validated *before* any is submitted, so a bad
        cell rejects the whole campaign instead of leaving a partial
        batch behind. The batch is then admitted as one unit (worst
        case: every cell starts its own search) and every cell enters
        the ordinary submission step under that same lock hold, so no
        concurrent submission can slip in between admission and entry.
        """
        if not isinstance(cells, list) or not cells:
            raise DecodeError("campaign needs a non-empty cell list")
        records = []
        for index, cell in enumerate(cells):
            job, fields = _parse_job_body(cell, CELL, f"body.cells[{index}]")
            records.append(self._record(job, fields["solver"], client))
        campaign = CampaignRecord(name=str(name), records=records)
        with self._lock:
            self._admit_locked(client, jobs=len(records),
                               searches=len(records),
                               what=f"campaign of {len(records)} cell(s)")
            for record in records:
                self._enter_locked(record, admit=False)
            self._campaigns[campaign.id] = campaign
        self.metrics.inc("campaigns_submitted")
        self.metrics.inc("campaign_cells", len(records))
        return campaign

    @staticmethod
    def _record(job: TuningJob, solver: str, client: str) -> JobRecord:
        """A fresh, not yet entered record for ``job``."""
        if solver not in solver_names():
            raise SolverNotFoundError(solver)
        return JobRecord(job=job, solver=solver,
                         fingerprint=job.fingerprint(), client=client)

    def _enter_locked(self, record: JobRecord, runner: _Runner | None = None,
                      *, admit: bool = True) -> _Outcome:
        """The one submission step; the caller holds ``self._lock``.

        Completes ``record`` from the plan cache (``"hit"``), attaches
        it to an identical in-flight search (``"coalesced"``), or
        starts ``runner`` — by default a plain solve on the worker tier
        — as a new search (``"started"``). A miss must pass admission
        first unless the caller already admitted it (``admit=False``)
        under this same lock hold; from then on it holds one client
        quota slot until it goes terminal.
        """
        # the cache read must happen under the same lock as the
        # in-flight check. The worker's own store is NOT locked — the
        # invariant is ordering: a search stores its report strictly
        # before _finish_flight detaches the flight under this lock, so
        # a racing submission sees either the flight (coalesce) or the
        # already-stored entry (hit), never neither. Keep that
        # store-before-detach order.
        hit = self.cache.load(record.job, record.solver)
        key = (record.solver, record.fingerprint)
        flight = self._inflight.get(key)
        if hit is None and admit:
            self._admit_locked(record.client, jobs=1,
                               searches=int(flight is None))
        self.metrics.inc("jobs_submitted")
        self._jobs[record.id] = record
        if hit is not None:
            record.complete(hit, from_cache=True)
            self.metrics.inc("cache_hits")
            self.metrics.inc("jobs_completed")
            return "hit"
        self.metrics.inc("cache_misses")
        record.counted = True
        self._clients[record.client] = self._clients.get(record.client,
                                                         0) + 1
        if flight is not None:
            flight.attach(record)
            record.coalesced = True
            self.metrics.inc("coalesced")
            return "coalesced"
        if runner is None:
            runner = functools.partial(self._tier.run, record.job,
                                       record.solver, cache=self.cache)
        flight = self._inflight[key] = InFlight(key, record)
        self._pool.submit(self._run_search, flight, runner)
        return "started"

    def _admit_locked(self, client: str, *, jobs: int, searches: int,
                      what: str = "job") -> None:
        """Admit ``jobs`` new records that start up to ``searches`` new
        searches, or raise :class:`AdmissionError`; the caller holds
        ``self._lock``.

        A lone submission asks for one search only when it would start
        one — coalescing rides a search that is already paid for, but
        still takes a quota slot. A campaign asks for its worst case
        (every cell a fresh search), so it fits entirely or is rejected
        as one unit.
        """
        if self.quota > 0:
            held = self._clients.get(client, 0)
            if held + jobs > self.quota:
                self.metrics.inc("rejected_quota")
                raise AdmissionError(
                    f"{what} would put client {client or 'anonymous'!r} "
                    f"over quota ({held} unresolved job(s) held, quota "
                    f"{self.quota})",
                    reason="quota", retry_after=self._retry_after_locked())
        if searches and self.max_pending > 0:
            depth = len(self._inflight)
            if depth + searches > self.max_pending:
                self.metrics.inc("rejected_queue")
                raise AdmissionError(
                    f"pending queue is full: {what} needs {searches} new "
                    f"search(es), {depth}/{self.max_pending} in flight",
                    reason="queue", retry_after=self._retry_after_locked())

    def _retry_after_locked(self) -> int:
        """Backoff hint in seconds: expected queue drain time.

        Average solve wall-time times queue depth over worker count,
        clamped to [1, 60]; 1 before the first solve finishes.
        """
        depth = len(self._inflight)
        estimate = (self.metrics.avg_solve_seconds() * max(1, depth)
                    / max(1, self.workers))
        return int(max(1, min(60, math.ceil(estimate))))

    def _release_client(self, record: JobRecord) -> None:
        """Return the record's quota slot (exactly once per record).

        Callers invoke this only on the winning terminal transition —
        the one ``complete()`` / ``fail()`` / ``cancel()`` call that
        returned True — so a record can never release twice.
        """
        if not record.counted:
            return
        record.counted = False
        with self._lock:
            held = self._clients.get(record.client, 0)
            if held <= 1:
                self._clients.pop(record.client, None)
            else:
                self._clients[record.client] = held - 1

    def get_campaign(self, campaign_id: str) -> CampaignRecord:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise UnknownCampaignError(campaign_id)
        return campaign

    def get_job(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        return record

    def cancel_job(self, job_id: str) -> JobRecord:
        record = self.get_job(job_id)
        if record.cancel():
            self.metrics.inc("jobs_cancelled")
            self._release_client(record)
        return record

    def worker_pids(self) -> list[int | None]:
        """Worker-process pids per slot (empty list in thread mode)."""
        return self._tier.worker_pids()

    def _run_search(self, flight: InFlight, runner: _Runner) -> None:
        """Supervisor-thread body: one search feeding 1..n coalesced
        records (``runner(progress=..., should_stop=...)``)."""
        flight.mark_running()

        def progress(done: int, total: int) -> None:
            snapshot = {"done": done, "total": total}
            for record in flight.records():
                record.progress = dict(snapshot)

        def should_stop() -> bool:
            return self._shutting_down or flight.cancelled()

        start = time.perf_counter()
        try:
            report = runner(progress=progress, should_stop=should_stop)
        except SearchCancelled:
            self.metrics.inc("solver_invocations")
            self._finish_flight(flight)
            # cancelled records already hold their terminal state; a
            # record that coalesced on after cancellation fired fails
            for record in flight.records():
                if record.fail("search cancelled before completion"):
                    self.metrics.inc("jobs_failed")
                    self._release_client(record)
                self.metrics.observe_job(record.wait_seconds,
                                         record.duration_seconds)
        except Exception as exc:  # noqa: BLE001 — daemon must not die
            self.metrics.inc("solver_invocations")
            self._finish_flight(flight)
            error = f"{type(exc).__name__}: {exc}"
            for record in flight.records():
                if record.fail(error):
                    self.metrics.inc("jobs_failed")
                    self._release_client(record)
                self.metrics.observe_job(record.wait_seconds,
                                         record.duration_seconds)
        else:
            # from_cache means another process stored the answer while
            # this flight raced it — no search ran here, so the ledger
            # records a hit, not an invocation
            if report.from_cache:
                self.metrics.inc("cache_hits")
            else:
                self.metrics.inc("solver_invocations")
                self.metrics.observe_solve(time.perf_counter() - start)
                # surface the prune-and-memoize engine's counters
                self.metrics.observe_search(
                    getattr(report, "search_stats", {}) or {})
            self._finish_flight(flight)
            for record in flight.records():
                if record.complete(report, from_cache=report.from_cache):
                    self.metrics.inc("jobs_completed")
                    self._release_client(record)
                self.metrics.observe_job(record.wait_seconds,
                                         record.duration_seconds)

    def _metrics_body(self) -> dict[str, Any]:
        with self._lock:
            in_flight = len(self._inflight)
            tracked = len(self._jobs)
            campaigns_tracked = len(self._campaigns)
        return self.metrics.snapshot(
            in_flight=in_flight, tracked=tracked, workers=self.workers,
            campaigns_tracked=campaigns_tracked,
            worker_tier=self._tier.stats(),
            max_pending=self.max_pending, quota=self.quota)

    def _finish_flight(self, flight: InFlight) -> None:
        """Detach the flight so later submissions go to the cache.

        Ordering matters: this runs under the same lock as
        :meth:`submit`, so any record that coalesced onto the flight
        before removal is in ``flight.records()`` and will be completed
        by the caller; any submission after removal sees the stored
        cache entry (or starts a fresh flight after a failure).
        """
        with self._lock:
            self._inflight.pop(flight.key, None)

    # -- HTTP front --------------------------------------------------------

    def _dispatch(self, method: str, path: str, headers: Message,
                  body: bytes) -> tuple[int, dict[str, Any]]:
        """Route one request; the service's typed errors map to HTTP
        statuses here, once for every route."""
        try:
            return self._handle(method, path, headers, body)
        except (SolverNotFoundError, UnknownJobError,
                UnknownCampaignError) as exc:
            raise _HttpError(404, exc.args[0]) from None
        except AdmissionError as exc:
            raise _HttpError(
                429, str(exc), headers={"Retry-After": str(exc.retry_after)},
                extra={"retry_after": exc.retry_after,
                       "reason": exc.reason}) from None
        except DecodeError as exc:
            # malformed input: a bad body or cell, a job that fails
            # validation (JobValidationError), a delta that does not
            # fit the cluster (DeltaError)
            raise _HttpError(400, str(exc)) from None

    def _handle(self, method: str, path: str, headers: Message,
                body: bytes) -> tuple[int, dict[str, Any]]:
        split = urlsplit(path)
        segments = [s for s in split.path.split("/") if s]
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        client = headers.get("x-repro-client", "")

        if segments == ["healthz"] and method == "GET":
            return 200, {
                "status": "ok",
                "version": __version__,
                "solvers": list(solver_names()),
                "workers": self.workers,
                "worker_mode": self.worker_mode,
                "max_pending": self.max_pending,
                "quota": self.quota,
                "cache_dir": str(self.cache.root),
            }
        if segments == ["metrics"] and method == "GET":
            return 200, self._metrics_body()
        if segments == ["jobs"]:
            if method == "POST":
                job, fields = _parse_job_body(self._parse_json(body))
                record = self.submit(job, fields["solver"], client=client)
                return 202, record.to_dict()
            if method == "GET":
                with self._lock:
                    records = list(self._jobs.values())
                return 200, {"jobs": [r.to_dict(include_report=False)
                                      for r in records]}
            raise _HttpError(405, f"{method} not allowed on /jobs")
        if len(segments) == 2 and segments[0] == "jobs" and method == "GET":
            return 200, self.get_job(segments[1]).to_dict()
        if (len(segments) == 3 and segments[0] == "jobs"
                and segments[2] == "cancel" and method == "POST"):
            return 200, self.cancel_job(segments[1]).to_dict()
        if segments == ["campaigns"]:
            if method == "POST":
                fields = decode(CAMPAIGN_BODY, self._parse_json(body),
                                "body")
                campaign = self.submit_campaign(
                    fields["cells"], fields["name"], client=client)
                return 202, campaign.to_dict()
            if method == "GET":
                with self._lock:
                    campaigns = list(self._campaigns.values())
                return 200, {"campaigns": [c.to_dict(include_cells=False)
                                           for c in campaigns]}
            raise _HttpError(405, f"{method} not allowed on /campaigns")
        if (len(segments) == 2 and segments[0] == "campaigns"
                and method == "GET"):
            return 200, self.get_campaign(segments[1]).to_dict()
        if segments == ["replan"] and method == "POST":
            job, fields = _parse_job_body(self._parse_json(body),
                                          REPLAN_BODY)
            delta = ClusterDelta.from_dict(fields["delta"])
            # finite: REPLAN_BODY refuses the NaN and Infinity that
            # json.loads takes, so the wait below always ends
            budget = float(fields["budget_seconds"])
            record, plan = self.submit_replan(job, delta, fields["solver"],
                                              client=client)
            # latency budget: this connection's thread polls the
            # lock-free ``record.finished`` until the search lands or
            # the budget runs out, whichever comes first
            deadline = time.monotonic() + budget
            while not record.finished and time.monotonic() < deadline:
                time.sleep(0.02)
            out = record.to_dict()
            if record.finished:
                self.metrics.inc("replan_within_budget")
                return 200, out
            # budget expired (or none given): hand back the tracking
            # record plus the incumbent plan — the caller keeps running
            # the old plan and polls GET /jobs/<id> for the new one
            self.metrics.inc("replan_budget_expired")
            out["budget_expired"] = True
            out["budget_seconds"] = budget
            out["incumbent_plan"] = (plan.to_dict()
                                     if plan is not None else None)
            return 202, out
        if len(segments) == 2 and segments[0] == "plans" and method == "GET":
            solver = query.get("solver", "mist")
            # both become part of a cache file name: check them before
            # any path is built
            if solver not in solver_names():
                raise SolverNotFoundError(solver)
            if not _FINGERPRINT.fullmatch(segments[1]):
                raise _HttpError(
                    404, f"not a job fingerprint: {segments[1]!r}")
            report = self.cache.load_fingerprint(segments[1], solver)
            if report is None:
                raise _HttpError(
                    404, f"no cached plan for {solver}-{segments[1]}")
            return 200, {"solver": solver, "fingerprint": segments[1],
                         "report": report.to_dict()}
        raise _HttpError(404, f"no route for {method} {split.path}")

    @staticmethod
    def _parse_json(body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    # -- lifecycle ---------------------------------------------------------

    def _serve(self, ready: threading.Event | None = None,
               banner: bool = False) -> None:
        """Bind, warm the workers, serve until :meth:`stop`, shut down."""
        with _Server((self.host, self.port), _Handler) as server:
            server.service = self
            self._server = server
            self.port = server.server_address[1]
            try:
                # spawn worker processes (process mode) before declaring
                # ready so no request pays process start-up latency
                self._tier.warm()
                if banner:
                    print(f"repro serve: listening on http://{self.host}:"
                          f"{self.port} ({self.workers} {self.worker_mode} "
                          f"workers, cache {self.cache.root})", flush=True)
                if ready is not None:
                    ready.set()
                server.serve_forever(poll_interval=_STOP_POLL_S)
            finally:
                self._shutting_down = True
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._tier.shutdown()

    def serve_forever(self, *, banner: bool = True) -> None:
        """Run in this thread until SIGTERM or Ctrl-C (the CLI path)."""
        # graceful SIGTERM: without this, terminating the daemon
        # orphans process-mode workers (they hold the inherited
        # stdout pipe open, wedging any parent draining it)
        previous = signal.signal(signal.SIGTERM, lambda *_: self.stop())
        try:
            self._serve(banner=banner)
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, previous)

    def run_in_thread(self) -> ServiceHandle:
        """Start on a daemon thread; returns once the port is bound."""
        ready = threading.Event()
        thread = threading.Thread(target=self._serve, kwargs={"ready": ready},
                                  daemon=True, name="repro-serve")
        thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        return ServiceHandle(service=self, thread=thread)

    def stop(self) -> None:
        """Signal shutdown: stop accepting, cancel queued searches."""
        self._shutting_down = True
        if self._server is not None:
            # shutdown() waits for the serving thread to leave its loop,
            # and a SIGTERM handler runs on that very thread
            threading.Thread(target=self._server.shutdown,
                             daemon=True).start()


class _Server(ThreadingHTTPServer):
    """Accepts connections and answers each on its own thread."""

    #: TCPServer's default backlog (5) would refuse a burst of clients
    request_queue_size = 100
    service: TuningService

    def server_bind(self) -> None:
        # HTTPServer.server_bind also resolves the host's FQDN, a DNS
        # lookup for CGI variables no handler here reads
        TCPServer.server_bind(self)


class _Handler(BaseHTTPRequestHandler):
    """One connection: every method and path goes to
    :meth:`TuningService._dispatch`, and every reply is JSON."""

    server: _Server
    protocol_version = "HTTP/1.1"
    #: for replies to an unreadable request line (HTTP/0.9 has no status)
    default_request_version = "HTTP/1.1"
    #: a reply is two small writes (head, body): no Nagle wait between
    disable_nagle_algorithm = True

    def __getattr__(self, name: str) -> Any:
        # do_<METHOD>: the router answers every method (404/405, no 501)
        if name.startswith("do_"):
            return self._route
        raise AttributeError(name)

    def _route(self) -> None:
        headers: dict[str, str] = {}
        try:
            status, payload = self.server.service._dispatch(
                self.command, self.path, self.headers, self._body())
        except _HttpError as exc:
            status, headers = exc.status, exc.headers
            payload = {"error": exc.message, **exc.extra}
        except ConnectionError:
            raise  # the client hung up; handle() drops the connection
        except Exception:  # noqa: BLE001 — connection-scoped failure
            # log server-side; never leak tracebacks to remote clients
            print(f"repro serve: unhandled error\n{traceback.format_exc(5)}",
                  file=sys.stderr, flush=True)
            status, payload = 500, {"error": "internal server error"}
        self._reply(status, payload, headers)

    def _body(self) -> bytes:
        """The body, once the request line and Content-Length check out."""
        if len(self.requestline.split()) != 3:
            # no version: http.server took the line for HTTP/0.9
            raise _HttpError(400,
                             f"malformed request line {self.requestline!r}")
        try:
            length = int(self.headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        return self.rfile.read(length)

    def _reply(self, status: int, payload: dict[str, Any],
               headers: dict[str, str] | None = None) -> None:
        data = json.dumps(payload, sort_keys=True).encode()
        self.send_response_only(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """http.server's own rejections keep the JSON contract too."""
        del explain
        self._reply(code, {"error": message or HTTPStatus(code).phrase})

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client hung up mid-exchange

    def log_message(self, format: str, *args: Any) -> None:
        """No per-request log lines."""
