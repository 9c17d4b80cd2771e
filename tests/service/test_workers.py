"""Worker tiers: free-slot dispatch, plan identity, coalescing, solver
errors.

The differential tests are the PR's core guarantee: a plan produced by
a worker *process* is bit-identical (by
:func:`repro.benchmarking.plan_hash`) to the plan the same job gets
from inline :func:`repro.api.solve` and from the thread tier — caching
and multi-process execution change *where* a search runs, never what
it answers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import signal
import threading
import time

import pytest

from repro.api import PlanCache, TuningJob, solve
from repro.benchmarking import plan_hash
from repro.service import running_service
from repro.core.tuner import SearchCancelled
from repro.service.workers import (
    ProcessWorkerTier,
    ThreadWorkerTier,
    WorkerDiedError,
    make_tier,
)

MIXED_CLUSTER = {
    "groups": [
        {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
         "gpus_per_node": 2},
        {"name": "l4", "gpu": "L4", "num_nodes": 1, "gpus_per_node": 2},
    ],
}

SMOKE_JOB = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2,
                      global_batch=16, scale="smoke", interference="none")
HETERO_JOB = TuningJob.for_cluster(MIXED_CLUSTER, model="gpt3-1.3b",
                                   global_batch=16, scale="smoke",
                                   interference="none")


class TestMakeTier:
    def test_thread_mode(self):
        tier = make_tier("thread", 2)
        assert isinstance(tier, ThreadWorkerTier)
        assert tier.stats() == {"mode": "thread", "workers": 2,
                                "restarts": 0}
        assert tier.warm() == []
        assert tier.worker_pids() == []

    def test_process_mode(self):
        tier = make_tier("process", 3, retries=2)
        assert isinstance(tier, ProcessWorkerTier)
        assert tier.retries == 2
        assert tier.stats() == {"mode": "process", "workers": 3,
                                "restarts": 0}
        # nothing spawned yet: pids are per-slot placeholders
        assert tier.worker_pids() == [None, None, None]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown worker mode"):
            make_tier("fork", 2)

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ProcessWorkerTier(0)
        with pytest.raises(ValueError):
            ProcessWorkerTier(2, retries=-1)


class TestDifferentialIdentity:
    """Same job, three execution paths, one plan hash."""

    def test_process_worker_plans_match_inline(self, tmp_path):
        jobs = {"homogeneous": SMOKE_JOB, "heterogeneous": HETERO_JOB}
        want = {}
        for label, job in jobs.items():
            inline = solve(job, "mist",
                           cache=PlanCache(tmp_path / "inline"))
            assert inline.plan is not None, label
            want[label] = plan_hash(inline.plan)

        for mode in ("thread", "process"):
            with running_service(workers=2, worker_mode=mode,
                                 cache=PlanCache(tmp_path / mode),
                                 client_timeout=120.0) as (_, client):
                for label, job in jobs.items():
                    report = client.solve(job, solver="mist", timeout=120)
                    assert not report.from_cache, (mode, label)
                    assert plan_hash(report.plan) == want[label], \
                        (mode, label)

    def test_worker_report_lands_in_shared_cache(self, tmp_path):
        cache = PlanCache(tmp_path / "plans")
        with running_service(workers=2, worker_mode="process",
                             cache=cache,
                             client_timeout=120.0) as (_, client):
            first = client.solve(SMOKE_JOB, solver="mist", timeout=120)
            second = client.solve(SMOKE_JOB, solver="mist", timeout=30)
        assert not first.from_cache
        # the worker process stored into the daemon's on-disk cache
        assert second.from_cache
        assert plan_hash(second.plan) == plan_hash(first.plan)
        metrics_hit = cache.load(SMOKE_JOB, "mist")
        assert metrics_hit is not None


class TestCoalescingUnderProcesses:
    def test_concurrent_identical_posts_share_one_search(self, tmp_path):
        job = dataclasses.replace(
            SMOKE_JOB, options={"synthetic": {"seconds": 1.0}})
        with running_service(workers=2, worker_mode="process",
                             cache=PlanCache(tmp_path / "plans"),
                             client_timeout=60.0) as (_, client):
            records = [None] * 4

            def post(slot: int) -> None:
                records[slot] = client.submit(job, solver="synthetic")

            threads = [threading.Thread(target=post, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            finals = [client.wait(record["id"], timeout=60)
                      for record in records]
            metrics = client.metrics()

        assert all(final["status"] == "done" for final in finals)
        # exactly one search ran; everyone else coalesced or hit cache
        assert metrics["solver"]["invocations"] == 1
        joined = sum(1 for final in finals if final["coalesced"])
        hits = metrics["cache"]["hits"]
        assert joined + hits == 3, (joined, hits, metrics)


def _synthetic(cell: int, seconds: float) -> TuningJob:
    return dataclasses.replace(
        SMOKE_JOB, options={"cell": cell, "synthetic": {"seconds": seconds}})


def _jobs_hashed_to_slot_zero(seconds: float) -> list[TuningJob]:
    """Two synthetic jobs that ``sha256(solver:fingerprint) % 2``, the
    tier's former routing rule, sends to the same slot."""
    jobs = []
    for cell in range(64):
        job = _synthetic(cell, seconds)
        digest = hashlib.sha256(
            f"synthetic:{job.fingerprint()}".encode()).digest()
        if int.from_bytes(digest[:8], "big") % 2 == 0:
            jobs.append(job)
            if len(jobs) == 2:
                return jobs
    raise AssertionError("no two cells hash to slot 0")


def _run_concurrently(tier: ProcessWorkerTier, jobs: list[TuningJob],
                      ends: list | None = None) -> list:
    """Each job's report, or the exception its search raised; each
    search's end time is appended to ``ends``."""
    outcomes: list = [None] * len(jobs)

    def run(slot: int) -> None:
        try:
            outcomes[slot] = tier.run(jobs[slot], "synthetic")
        except Exception as exc:  # noqa: BLE001 — the test inspects it
            outcomes[slot] = exc
        if ends is not None:
            ends.append(time.monotonic())

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


class TestFreeSlotDispatch:
    def test_searches_run_on_distinct_workers_at_once(self):
        jobs = _jobs_hashed_to_slot_zero(seconds=2.0)
        tier = ProcessWorkerTier(2)
        try:
            # no warm(): a slot learns its worker's pid from a search
            ends: list = []
            reports = _run_concurrently(tier, jobs, ends)
            assert [r.measured["throughput"] for r in reports] == [100.0] * 2
            pids = tier.worker_pids()
            assert None not in pids and len(set(pids)) == 2, pids
            # back to back on one worker they would end 2 s apart
            assert max(ends) - min(ends) < 1.0, ends
        finally:
            tier.shutdown()

    def test_kill_fails_only_the_search_on_that_worker(self):
        jobs = _jobs_hashed_to_slot_zero(seconds=3.0)
        tier = ProcessWorkerTier(2, retries=0)
        try:
            pids = tier.warm(timeout=120)
            killer = threading.Timer(1.0, os.kill, (pids[0], signal.SIGKILL))
            killer.start()
            outcomes = _run_concurrently(tier, jobs)
            killer.join()
            died = [o for o in outcomes if isinstance(o, WorkerDiedError)]
            done = [o for o in outcomes if not isinstance(o, Exception)]
            assert len(died) == 1, outcomes
            assert [r.measured["throughput"] for r in done] == [100.0]
            assert tier.stats()["restarts"] == 1
        finally:
            tier.shutdown()

    def test_search_cancelled_in_the_queue_never_reaches_a_worker(
            self, tmp_path):
        cache = PlanCache(tmp_path / "plans")
        busy, queued, after = (_synthetic(0, 1.0), _synthetic(1, 0.05),
                               _synthetic(2, 0.05))
        tier = ProcessWorkerTier(1)
        try:
            tier.warm(timeout=120)
            holder = threading.Thread(target=tier.run,
                                      args=(busy, "synthetic"),
                                      kwargs={"cache": cache})
            holder.start()
            time.sleep(0.3)  # ``busy`` holds the only slot
            stop = threading.Event()
            threading.Timer(0.2, stop.set).start()
            with pytest.raises(SearchCancelled):
                tier.run(queued, "synthetic", cache=cache,
                         should_stop=stop.is_set)
            holder.join()
            # the worker runs its searches in order: had the cancelled
            # one been queued there, it would be stored by now
            tier.run(after, "synthetic", cache=cache)
            assert cache.load(busy, "synthetic") is not None
            assert cache.load(queued, "synthetic") is None
        finally:
            tier.shutdown()

    def test_abandoned_search_holds_its_slot_until_it_finishes(
            self, tmp_path):
        cache = PlanCache(tmp_path / "plans")
        abandoned = _synthetic(0, 2.0)
        tier = ProcessWorkerTier(2)
        try:
            tier.warm(timeout=120)
            stop = threading.Event()
            threading.Timer(0.3, stop.set).start()
            with pytest.raises(SearchCancelled):
                tier.run(abandoned, "synthetic", cache=cache,
                         should_stop=stop.is_set)
            # both later searches take the idle slot, not the one whose
            # worker still runs the abandoned search
            for cell in (1, 2):
                tier.run(_synthetic(cell, 0.05), "synthetic", cache=cache)
            assert cache.load(abandoned, "synthetic") is None
        finally:
            tier.shutdown(wait=True)
        assert cache.load(abandoned, "synthetic") is not None


class TestSolverErrorsInWorkers:
    def test_solver_error_propagates_without_restart(self):
        # the synthetic solver raises ValueError on a non-numeric spin
        # time: an error of the solver's own, inside a healthy worker
        bad = dataclasses.replace(
            SMOKE_JOB, options={"synthetic": {"seconds": "solver bug"}})
        tier = ProcessWorkerTier(1, retries=1)
        try:
            [pid] = tier.warm(timeout=60)
            with pytest.raises(ValueError, match="solver bug") as err:
                tier.run(bad, "synthetic")
            # the solver's own error, not a misreported worker death
            assert not isinstance(err.value, WorkerDiedError)
            assert tier.stats()["restarts"] == 0
            assert tier.worker_pids() == [pid]
        finally:
            tier.shutdown()
