"""Replay a synthesized trace against a live daemon; build the report.

Each request is one client-side exchange: submit, then poll to a
terminal state. The outcome taxonomy mirrors what the gates care
about:

* ``ok``        — job done (from cache, coalesced, or fresh search);
* ``rejected``  — admission control said 429 (expected under load,
  never an error);
* ``failed``    — the daemon accepted but the solver failed;
* ``server_error`` / ``transport`` — 5xx or connection trouble (the
  zero-tolerance gates);
* ``timeout``   — the job outlived the per-request timeout.

Plan hashes are recomputed client-side from each returned report
(:func:`repro.benchmarking.plan_hash` over the reconstructed
:class:`~repro.core.plan.TrainingPlan`), so a run proves bit-identical
plans across cache hits, coalesced joins, and worker processes — and
is directly comparable to inline :func:`repro.api.solve` hashes.
"""

from __future__ import annotations

import math
import platform
import threading
import time

from repro import __version__
from repro.benchmarking import plan_hash
from repro.core.plan import TrainingPlan
from repro.service.client import Client, ServiceError
from repro.service.state import percentiles

from .trace import TraceSpec

__all__ = ["run_load"]

_TERMINAL = ("done", "failed", "cancelled")


def _plan_hash_of(report_dict: "dict | None") -> "str | None":
    if not report_dict:
        return None
    plan = report_dict.get("plan")
    if plan is None:
        return None
    return plan_hash(TrainingPlan.from_dict(plan))


def _issue(client: Client, request, due: float, timeout: float,
           poll_interval: float) -> dict:
    """One trace request -> one outcome dict (never raises); latency
    runs from ``due`` (a ``perf_counter`` reading)."""
    outcome = {
        "index": request.index, "cell": request.cell,
        "solver": request.solver, "status": "ok", "http_status": 202,
        "latency_seconds": 0.0, "from_cache": False, "coalesced": False,
        "plan_hash": None, "error": None,
    }
    try:
        record = client.submit(request.job, request.solver)
        if record["status"] not in _TERMINAL:
            record = client.wait(record["id"], timeout=timeout,
                                 poll_interval=poll_interval)
        outcome["latency_seconds"] = time.perf_counter() - due
        outcome["from_cache"] = bool(record.get("from_cache"))
        outcome["coalesced"] = bool(record.get("coalesced"))
        if record["status"] == "done":
            outcome["plan_hash"] = _plan_hash_of(record.get("report"))
        else:
            outcome["status"] = "failed"
            outcome["error"] = record.get("error") or record["status"]
    except ServiceError as exc:
        outcome["latency_seconds"] = time.perf_counter() - due
        outcome["error"] = str(exc)
        if exc.status == 429:
            outcome["status"] = "rejected"
            outcome["http_status"] = 429
            outcome["retry_after"] = exc.retry_after
        elif exc.status is not None and exc.status >= 500:
            outcome["status"] = "server_error"
            outcome["http_status"] = exc.status
        elif exc.status is not None:
            outcome["status"] = "client_error"
            outcome["http_status"] = exc.status
        else:
            outcome["status"] = "transport"
            outcome["http_status"] = None
    except TimeoutError as exc:
        outcome["latency_seconds"] = time.perf_counter() - due
        outcome["status"] = "timeout"
        outcome["error"] = str(exc)
    return outcome


def run_load(url: str, spec: TraceSpec, trace: list, *,
             mode: str = "closed", concurrency: int = 4,
             timeout: float = 120.0, poll_interval: float = 0.02,
             client_id: str = "repro-load") -> dict:
    """Replay ``trace`` against the daemon at ``url``; return the report.

    One client loop serves both modes: each client takes the next
    request, waits until it is due and times the request from then.
    ``mode="closed"`` runs ``concurrency`` clients; a request is due when
    a client takes it. ``mode="open"`` runs one client per request, due
    at its seeded arrival ``offset``. Every client starts before the
    clock does, so no thread starts inside the schedule.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown load mode {mode!r}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"timeout must be a finite number > 0, "
                         f"got {timeout}")
    client = Client(url, timeout=max(timeout, 30.0), client_id=client_id)
    outcomes: list = [None] * len(trace)
    pending = iter(list(enumerate(trace)))
    guard = threading.Lock()
    go = threading.Event()

    def loop() -> None:
        go.wait()
        while True:
            with guard:
                item = next(pending, None)
            if item is None:
                return
            index, request = item
            due = start + request.offset if mode == "open" \
                else time.perf_counter()
            time.sleep(max(0.0, due - time.perf_counter()))
            outcomes[index] = _issue(client, request, due, timeout,
                                     poll_interval)

    clients = min(concurrency, len(trace)) if mode == "closed" \
        else len(trace)
    threads = [threading.Thread(target=loop, daemon=True)
               for _ in range(clients)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    go.set()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return _build_report(url, spec, mode, concurrency, outcomes, wall,
                         client)


def _build_report(url: str, spec: TraceSpec, mode: str, concurrency: int,
                  outcomes: list, wall: float, client: Client) -> dict:
    done = [o for o in outcomes if o is not None]
    by_status: dict = {}
    for outcome in done:
        by_status[outcome["status"]] = by_status.get(outcome["status"], 0) + 1
    ok = [o for o in done if o["status"] == "ok"]
    latencies = [o["latency_seconds"] for o in ok]
    spread = percentiles(latencies)
    # one canonical hash per cell + every conflicting repeat observed
    hashes: dict = {}
    conflicts = []
    for outcome in ok:
        cell = str(outcome["cell"])
        seen = hashes.setdefault(cell, outcome["plan_hash"])
        if seen != outcome["plan_hash"]:
            conflicts.append({"cell": outcome["cell"], "expected": seen,
                              "got": outcome["plan_hash"]})
    try:
        server = {"metrics": client.metrics(), "health": client.health()}
    except ServiceError as exc:
        server = {"error": str(exc)}
    return {
        "schema": "repro-load/1",
        "scale": spec.name,
        "mode": mode,
        "config": {
            "url": url,
            "concurrency": concurrency,
            "spec": spec.to_dict(),
        },
        "requests": {
            "total": len(outcomes),
            "ok": len(ok),
            "rejected": by_status.get("rejected", 0),
            "failed": by_status.get("failed", 0),
            "timeout": by_status.get("timeout", 0),
            "client_errors": by_status.get("client_error", 0),
            "server_errors": by_status.get("server_error", 0),
            "transport_errors": by_status.get("transport", 0),
            "from_cache": sum(1 for o in ok if o["from_cache"]),
            "coalesced": sum(1 for o in ok if o["coalesced"]),
        },
        "latency_seconds": {
            "p50": spread["p50"],
            "p95": spread["p95"],
            "p99": spread["p99"],
            "max": max(latencies) if latencies else 0.0,
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
        },
        "throughput_rps": (len(ok) / wall) if wall > 0 else 0.0,
        "wall_seconds": wall,
        "plan_hashes": hashes,
        "plan_hash_conflicts": conflicts,
        "outcomes": done,
        "server": server,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "version": __version__,
        },
    }
