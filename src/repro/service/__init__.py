"""Tuning-as-a-service: a long-running daemon over the solver registry.

Every caller of :func:`repro.api.solve` pays a cold search; the service
amortizes it. ``repro serve`` starts a threaded HTTP daemon (a thread
per connection) whose bounded worker pool runs solver-registry jobs,
with two layers of reuse:

* **coalescing** — concurrent submissions of the same
  ``(solver, TuningJob.fingerprint())`` share one in-flight search;
* **plan caching** — completed reports land in a shared
  :class:`~repro.api.cache.PlanCache`, so a repeated query after
  completion never re-searches.

Endpoints (see ``docs/SERVICE.md`` for the wire reference)::

    POST /jobs                submit {"job": {...}, "solver": "mist"}
    GET  /jobs                list tracked jobs
    GET  /jobs/<id>           job status + report when done
    POST /jobs/<id>/cancel    cooperative cancellation
    POST /campaigns           submit {"cells": [{"job": ..., "solver": ...}]}
    GET  /campaigns           list campaigns (status + counters)
    GET  /campaigns/<id>      campaign status + per-cell records
    GET  /plans/<fingerprint> cached report lookup (?solver=mist)
    GET  /healthz             liveness + registered solvers
    GET  /metrics             hits/misses/coalesced/latency counters

In-process use (tests, notebooks) needs no subprocess::

    from repro.service import Client, TuningService

    handle = TuningService(workers=2).run_in_thread()
    report = Client(handle.url).solve(job, solver="mist")
    handle.stop()
"""

from .client import Client, ServiceError
from .launch import SpawnedDaemon, running_service, spawn_daemon
from .server import (
    AdmissionError,
    ServiceHandle,
    TuningService,
    UnknownCampaignError,
    UnknownJobError,
)
from .state import CampaignRecord, JobRecord, ServiceMetrics
from .workers import ProcessWorkerTier, ThreadWorkerTier, WorkerDiedError

__all__ = [
    "AdmissionError",
    "CampaignRecord",
    "Client",
    "JobRecord",
    "ProcessWorkerTier",
    "ServiceError",
    "ServiceHandle",
    "ServiceMetrics",
    "SpawnedDaemon",
    "ThreadWorkerTier",
    "TuningService",
    "UnknownCampaignError",
    "UnknownJobError",
    "WorkerDiedError",
    "running_service",
    "spawn_daemon",
]
