"""``repro-load/1`` gates: internal validation + baseline regression.

Mirrors ``repro.benchmarking.bench``'s machinery so the CI load-smoke
job reads exactly like the perf job:

* :func:`validate_load` — one run's internal consistency: zero 4xx
  other than 429 (a request the daemon refused as malformed), zero 5xx
  / transport errors, zero solver failures or timeouts, at least one
  completed request, and no plan-hash divergence across repeats of a
  cell (a cache bug would show up as exactly that);
* :func:`check_against_baseline` — p99 end-to-end latency against the
  committed baseline. A regression must exceed *both* the relative
  threshold and ``min_abs_seconds`` — sub-second smoke latencies are
  scheduler-noise-dominated and would otherwise flake the gate.
"""

from __future__ import annotations

import sys

from repro.core.schema import Field, Num, Str, Table

__all__ = ["LOAD_SCHEMA", "check_against_baseline", "format_load",
           "main_check", "validate_load"]

LOAD_SCHEMA = "repro-load/1"

#: a ``--baseline`` run, as :func:`check_against_baseline` reads it;
#: each ``ignore`` holds parts it does not read
_LATENCY = Table("latency", (Field("p99", Num(ge=0), 0.0),),
                 ignore=frozenset({"max", "mean", "p50", "p95"}))
BASELINE = Table("load baseline", (
    Field("schema", Str()), Field("scale", Str()), Field("mode", Str()),
    Field("latency_seconds", _LATENCY),
), ignore=frozenset({"config", "environment", "outcomes",
                     "plan_hash_conflicts", "plan_hashes", "requests",
                     "server", "throughput_rps", "wall_seconds"}))


def validate_load(result: dict) -> list:
    """Internal-consistency failures of one load run (empty = OK)."""
    problems = []
    if result.get("schema") != LOAD_SCHEMA:
        return [f"unexpected schema {result.get('schema')!r} "
                f"(expected {LOAD_SCHEMA!r})"]
    requests = result.get("requests", {})
    if requests.get("ok", 0) <= 0:
        problems.append("no request completed successfully")
    for counter, label in (("client_errors", "non-429 4xx response(s)"),
                           ("server_errors", "5xx response(s)"),
                           ("transport_errors", "transport error(s)"),
                           ("failed", "solver failure(s)"),
                           ("timeout", "request timeout(s)")):
        count = requests.get(counter, 0)
        if count > 0:
            problems.append(f"{count} {label} during the run")
    conflicts = result.get("plan_hash_conflicts", [])
    if conflicts:
        cells = sorted({c["cell"] for c in conflicts})
        problems.append(
            "plan hashes diverged across repeats of cell(s) "
            + ", ".join(str(c) for c in cells))
    return problems


def check_against_baseline(current: dict, baseline: dict, *,
                           max_regression: float = 0.5,
                           min_abs_seconds: float = 0.25) -> list:
    """p99-latency regression vs the committed baseline (empty = OK)."""
    problems = []
    if baseline.get("schema") != current.get("schema"):
        problems.append(
            f"baseline schema {baseline.get('schema')!r} does not match "
            f"current {current.get('schema')!r} — regenerate the baseline")
        return problems
    for key in ("scale", "mode"):
        if baseline.get(key) != current.get(key):
            problems.append(
                f"baseline was recorded with {key}="
                f"{baseline.get(key)!r}, this run is "
                f"{current.get(key)!r}")
    if problems:
        return problems
    base_p99 = baseline.get("latency_seconds", {}).get("p99")
    cur_p99 = current.get("latency_seconds", {}).get("p99")
    if base_p99 and cur_p99 and \
            cur_p99 > base_p99 * (1.0 + max_regression) and \
            cur_p99 - base_p99 > min_abs_seconds:
        problems.append(
            f"p99 latency regressed {cur_p99 / base_p99 - 1.0:+.0%} over "
            f"the baseline ({cur_p99:.3f}s vs {base_p99:.3f}s, "
            f"threshold +{max_regression:.0%})")
    return problems


def format_load(result: dict) -> str:
    """Human-readable summary of one load run."""
    requests = result["requests"]
    latency = result["latency_seconds"]
    lines = [
        f"repro load — scale {result['scale']} ({result['mode']} loop, "
        f"schema {result['schema']})",
        f"  requests: {requests['ok']}/{requests['total']} ok, "
        f"{requests['rejected']} rejected (429), "
        f"{requests['failed']} failed, "
        f"{requests['server_errors']} 5xx, "
        f"{requests['transport_errors']} transport",
        f"  reuse: {requests['from_cache']} from cache, "
        f"{requests['coalesced']} coalesced",
        f"  latency: p50 {latency['p50']:.3f}s  p95 {latency['p95']:.3f}s  "
        f"p99 {latency['p99']:.3f}s  max {latency['max']:.3f}s",
        f"  throughput: {result['throughput_rps']:.2f} req/s over "
        f"{result['wall_seconds']:.2f}s",
    ]
    metrics = result.get("server", {}).get("metrics")
    if metrics:
        tier = metrics.get("worker_tier", {})
        admission = metrics.get("admission", {})
        lines.append(
            f"  server: {tier.get('mode', '?')} x "
            f"{tier.get('workers', '?')} workers "
            f"({tier.get('restarts', 0)} restart(s)), "
            f"{admission.get('rejected_queue', 0)} queue-rejected, "
            f"{admission.get('rejected_quota', 0)} quota-rejected")
    return "\n".join(lines)


def main_check(current: dict, baseline: "dict | None", *,
               max_regression: float = 0.5, out=None) -> int:
    """Apply all gates; print verdicts; return a process exit code."""
    out = out if out is not None else sys.stdout
    problems = validate_load(current)
    if baseline is not None:
        problems += check_against_baseline(
            current, baseline, max_regression=max_regression)
    for problem in problems:
        print(f"FAIL: {problem}", file=out)
    if not problems:
        print("load gates: OK", file=out)
    return 1 if problems else 0
