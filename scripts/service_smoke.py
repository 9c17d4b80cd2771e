#!/usr/bin/env python3
"""CI smoke test for `repro serve`: boot, solve, prove the cache hit.

Launches the daemon as a real subprocess (`python -m repro serve`) on
an ephemeral port with a throwaway plan-cache directory, then:

1. waits for the startup banner and `GET /healthz`;
2. POSTs a tiny tuning job (smoke scale, no interference calibration)
   and waits for completion — `/metrics` must now carry the
   prune-and-memoize search counters of that solve;
3. POSTs the identical job again and asserts it is answered from the
   shared plan cache with no second solver invocation — per the
   `/metrics` counters;
4. POSTs a search-budget variant of the same workload (different
   fingerprint, so the plan cache misses and a real search runs) and
   asserts the process-wide menu memo served it: memo hits > 0 on the
   repeated search, identical plan;
5. POSTs a 2-cell campaign whose cells are the *same new* job twice:
   the duplicate must coalesce onto one in-flight search (per-cell
   `coalesced` flag + /metrics); repeats the campaign and asserts both
   cells are answered from the plan cache with no new invocation;
6. POSTs ``/replan`` with a degraded-link delta: the daemon must
   warm-start from the cached incumbent plan and answer within the
   latency budget (per the ``/metrics`` ``replan`` section);
7. POSTs a job whose cluster has a negative ``inter_node_latency``,
   then a cluster whose ``gpu`` is not a string (``{"gpu": 5, ...}``,
   once an HTTP 500) to ``/jobs``, as a ``/campaigns`` cell and to
   ``/replan``: the daemon must answer each with HTTP 400 without
   invoking the solver;
8. POSTs ``/replan`` with three malformed deltas: a ``remove_nodes``
   whose ``count`` is 1.5, a ``retype_group`` to an unknown GPU and a
   ``degrade_link`` whose ``link`` is misspelled. The daemon must answer
   each with HTTP 400 without invoking the solver;
9. shuts the daemon down.

Exit code 0 on success. Runs in ~10s.

Usage: python scripts/service_smoke.py [--worker-mode thread|process]
(from the repo root). ``--worker-mode process`` runs every solve on a
routed worker process while ``/replan`` still searches on a daemon
thread, so both paths must share the one plan cache.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import TuningJob  # noqa: E402
from repro.hardware import ClusterDelta  # noqa: E402
from repro.service import Client, spawn_daemon  # noqa: E402

JOB = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=4, global_batch=16,
                scale="smoke", interference="none")
#: same workload, different free-form options -> different fingerprint:
#: misses the plan cache but replays every memoized stage subproblem
#: from the first solve
VARIANT_JOB = dataclasses.replace(JOB, options={"note": "memo-proof"})
#: a third fingerprint, submitted twice in one campaign batch: the
#: duplicate must coalesce, and a repeat campaign must be pure cache
CAMPAIGN_JOB = dataclasses.replace(JOB, global_batch=8)


def post_status(url: str, body: dict) -> int:
    """HTTP status of a raw JSON POST (the client would refuse to send
    an invalid job)."""
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker-mode", choices=("thread", "process"),
                        default="thread")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        with spawn_daemon(workers=1, worker_mode=args.worker_mode,
                          cache_dir=cache_dir) as daemon:
            client = Client(daemon.url, timeout=30)

            health = client.health()
            assert health["status"] == "ok"
            assert health["worker_mode"] == args.worker_mode, health
            print(f"daemon healthy at {daemon.url} "
                  f"({args.worker_mode} workers)")

            start = time.perf_counter()
            first = client.solve(JOB, solver="mist", timeout=300)
            cold = time.perf_counter() - start
            assert first.found, "smoke job found no feasible plan"
            assert not first.from_cache
            print(f"cold solve: {first.throughput:.2f} samples/s "
                  f"in {cold:.1f}s")

            metrics = client.metrics()
            search = metrics["search"]
            assert search["cells_total"] > 0, metrics
            assert search["cells_explored"] > 0, metrics
            assert search["memo_misses"] > 0, metrics
            print(f"search counters: {search['cells_explored']} explored / "
                  f"{search['cells_pruned']} pruned / "
                  f"{search['configs_prefiltered']} prefiltered")

            start = time.perf_counter()
            second = client.solve(JOB, solver="mist", timeout=30)
            warm = time.perf_counter() - start
            assert second.from_cache, "second request missed the plan cache"
            print(f"warm solve: served from cache in {warm:.3f}s")

            metrics = client.metrics()
            assert metrics["solver"]["invocations"] == 1, metrics
            assert metrics["cache"]["hits"] == 1, metrics
            assert metrics["cache"]["misses"] == 1, metrics
            print(f"metrics prove it: invocations=1 hits=1 "
                  f"(cold {cold:.1f}s -> warm {warm:.3f}s)")

            # a repeated search on the same workload (budget variant ->
            # cache miss) must be served by the process-wide menu memo
            start = time.perf_counter()
            third = client.solve(VARIANT_JOB, solver="mist", timeout=300)
            memoized = time.perf_counter() - start
            assert not third.from_cache
            assert third.plan == first.plan, "memoized plan drifted"
            metrics = client.metrics()
            assert metrics["solver"]["invocations"] == 2, metrics
            assert metrics["search"]["memo_hits"] > 0, metrics
            print(f"memo proves it: memo_hits="
                  f"{metrics['search']['memo_hits']} on the repeated "
                  f"search ({memoized:.1f}s)")

            # a 2-cell campaign of one new job submitted twice: the
            # duplicate coalesces onto a single in-flight search
            camp = client.submit_campaign(
                [(CAMPAIGN_JOB, "mist"), (CAMPAIGN_JOB, "mist")],
                name="smoke-campaign")
            final = client.wait_campaign(camp["id"], timeout=300)
            assert final["status"] == "done", final
            counters = final["counters"]
            assert counters["cells"] == 2, final
            assert counters["coalesced"] == 1, final
            metrics = client.metrics()
            assert metrics["campaigns"]["submitted"] == 1, metrics
            assert metrics["campaigns"]["cells"] == 2, metrics
            assert metrics["solver"]["invocations"] == 3, metrics
            print(f"campaign coalescing: 2 cells -> 1 search "
                  f"(coalesced={counters['coalesced']})")

            # the same campaign again: both cells pure plan-cache hits
            repeat = client.submit_campaign(
                [(CAMPAIGN_JOB, "mist"), (CAMPAIGN_JOB, "mist")],
                name="smoke-campaign-repeat")
            final = client.wait_campaign(repeat["id"], timeout=30)
            assert final["status"] == "done", final
            assert final["counters"]["from_cache"] == 2, final
            metrics = client.metrics()
            assert metrics["solver"]["invocations"] == 3, metrics
            assert metrics["campaigns"]["submitted"] == 2, metrics
            print("campaign cache: repeat batch served with no new "
                  "invocation")

            # elastic replan: POST /replan warm-starts from the plan
            # the cache already holds for JOB and answers in-budget
            rec = client.replan(JOB, ClusterDelta.degrade_link(0.5),
                                budget_seconds=120)
            assert rec["status"] == "done", rec
            extra = rec["report"]["extra"]["replan"]
            assert extra["warm"] is True, rec
            metrics = client.metrics()
            assert metrics["replan"]["requests"] == 1, metrics
            assert metrics["replan"]["warm"] == 1, metrics
            assert metrics["replan"]["within_budget"] == 1, metrics
            print("replan: warm-started from the incumbent, "
                  "answered within budget")

            # a malformed cluster is a 400 at submission, never a solve
            invocations = metrics["solver"]["invocations"]
            bad_latency = {"job": dict(JOB.to_dict(), cluster={
                "gpu": "L4", "num_nodes": 4, "gpus_per_node": 1,
                "inter_node_latency": -1.0}), "solver": "mist"}
            bad_gpu = {"job": dict(JOB.to_dict(), cluster={
                "gpu": 5, "gpus_per_node": 2}), "solver": "mist"}
            for label, route, body in (
                    ("negative cluster latency", "/jobs", bad_latency),
                    ("non-string cluster gpu", "/jobs", bad_gpu),
                    ("non-string cluster gpu in a campaign cell",
                     "/campaigns", {"cells": [bad_gpu]}),
                    ("non-string cluster gpu on replan", "/replan",
                     dict(bad_gpu, delta={"ops": [
                         {"op": "degrade_link", "factor": 0.5}]}))):
                status = post_status(daemon.url + route, body)
                assert status == 400, (label, status)
                metrics = client.metrics()
                assert metrics["solver"]["invocations"] == invocations, \
                    metrics
                print(f"{label}: HTTP 400, no solver invocation")

            # so is a malformed delta: a count that is not a plain
            # integer (on two nodes, where int() would once have applied
            # it as 1), an unknown GPU (once a 500) and a misspelled link
            # (once applied to the inter-node link)
            two_nodes = dict(JOB.to_dict(), cluster={
                "gpu": "L4", "num_nodes": 2, "gpus_per_node": 2})
            replans = metrics["replan"]["requests"]
            for label, op in (
                    ("non-integer delta count",
                     {"op": "remove_nodes", "count": 1.5}),
                    ("unknown delta gpu",
                     {"op": "retype_group", "gpu": "H900"}),
                    ("misspelled delta link",
                     {"op": "degrade_link", "factor": 0.5,
                      "link": "inter-group"})):
                status = post_status(daemon.url + "/replan", {
                    "job": two_nodes, "solver": "mist",
                    "delta": {"ops": [op]}})
                assert status == 400, (label, status)
                metrics = client.metrics()
                assert metrics["solver"]["invocations"] == invocations, \
                    metrics
                assert metrics["replan"]["requests"] == replans, metrics
                print(f"{label}: HTTP 400, no solver invocation")
    print(f"service smoke ({args.worker_mode} workers): OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
