"""Worker tiers: routing, plan identity, coalescing, solver errors.

The differential tests are the PR's core guarantee: a plan produced by
a routed worker *process* is bit-identical (by
:func:`repro.benchmarking.plan_hash`) to the plan the same job gets
from inline :func:`repro.api.solve` and from the thread tier — caching
and multi-process execution change *where* a search runs, never what
it answers.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.api import PlanCache, TuningJob, solve
from repro.benchmarking import plan_hash
from repro.service import running_service
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


class TestRouting:
    def test_route_is_deterministic(self):
        tier = ProcessWorkerTier(4)
        fp = SMOKE_JOB.fingerprint()
        assert tier.route("mist", fp) == tier.route("mist", fp)

    def test_route_depends_on_solver_and_fingerprint(self):
        tier = ProcessWorkerTier(64)
        fp = SMOKE_JOB.fingerprint()
        indices = {tier.route(solver, fp)
                   for solver in ("mist", "alpa", "synthetic", "svc-stub")}
        other = tier.route(
            "mist", dataclasses.replace(SMOKE_JOB,
                                        global_batch=8).fingerprint())
        # with 64 slots, 4 solvers + a second fingerprint collapsing to
        # one index would mean routing ignores its inputs
        assert len(indices | {other}) > 1

    def test_route_covers_all_workers(self):
        tier = ProcessWorkerTier(4)
        jobs = [dataclasses.replace(SMOKE_JOB, options={"cell": i})
                for i in range(64)]
        hit = {tier.route("mist", job.fingerprint()) for job in jobs}
        assert hit == {0, 1, 2, 3}

    def test_route_in_range(self):
        tier = ProcessWorkerTier(3)
        for i in range(32):
            job = dataclasses.replace(SMOKE_JOB, options={"cell": i})
            assert 0 <= tier.route("mist", job.fingerprint()) < 3


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

    def test_solve_fn_requires_thread_mode(self):
        with pytest.raises(ValueError, match="thread"):
            make_tier("process", 2, solve_fn=lambda *a, **k: None)

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


class TestRunOn:
    def test_run_on_uses_only_the_named_slot(self):
        job = dataclasses.replace(
            SMOKE_JOB, options={"synthetic": {"seconds": 0.01}})
        for index in (0, 1):
            tier = ProcessWorkerTier(2)
            try:
                report = tier.run_on(index, job, "synthetic")
                assert report.measured["throughput"] == 100.0
                pids = tier.worker_pids()
                assert pids[index] is not None
                assert pids[1 - index] is None
            finally:
                tier.shutdown()


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
