"""Trace-driven load generation against a live tuning daemon.

The service's contract under concurrency (admission control, queue
latency, coalescing across worker processes) is only as good as the
harness that measures it. ``repro load`` replays a *synthetic
campaign-cell trace* — a reproducible stream of tuning jobs drawn from
a seeded spec — against any ``repro serve`` URL, in either loop shape:

* **closed loop** — ``concurrency`` virtual clients, each submitting
  its next request the moment the previous one resolves (throughput
  measurement);
* **open loop** — one client per request, each sending at its seeded
  Poisson arrival offset regardless of completions
  (latency-under-offered-load measurement; open loops expose queueing
  collapse that closed loops hide).

Both shapes run the same client loop, and every latency is timed from
when its request was due, so a late send counts against the request.

One run emits a ``repro-load/1`` JSON document that rides the same
validate / baseline-gate machinery as ``repro bench``: zero transport
or server errors, plan-hash consistency across every repeat of a cell,
and a p99-latency regression gate against a committed baseline
(``benchmarks/baselines/LOAD_smoke.json`` in CI).
"""

from .report import (
    LOAD_SCHEMA,
    check_against_baseline,
    format_load,
    main_check,
    validate_load,
)
from .runner import run_load
from .trace import TRACE_SCALES, TraceRequest, TraceSpec, synthesize_trace

__all__ = [
    "LOAD_SCHEMA",
    "TRACE_SCALES",
    "TraceRequest",
    "TraceSpec",
    "check_against_baseline",
    "format_load",
    "main_check",
    "run_load",
    "synthesize_trace",
    "validate_load",
]
