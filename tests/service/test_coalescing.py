"""Coalescing + cache-reuse acceptance tests (the service's raison d'être).

The contract: two concurrent identical ``POST /jobs`` trigger exactly
one solver invocation, and a repeated request after completion is
served from the shared ``PlanCache`` with no re-search — with the
``/metrics`` counters proving both.
"""

from __future__ import annotations

import threading

from repro.api import PlanCache
from repro.service import Client, TuningService


class TestCoalescing:
    def test_concurrent_identical_posts_share_one_search(
            self, client, job, slow):
        records = []

        def post():
            records.append(client.submit(job, solver="svc-slow"))

        threads = [threading.Thread(target=post) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert slow.started.wait(timeout=5)
        # both accepted; exactly one search is in flight
        assert len(records) == 2
        assert sorted(r["coalesced"] for r in records) == [False, True]
        assert slow.invocations == 1

        slow.release.set()
        finals = [client.wait(r["id"], timeout=10) for r in records]
        assert [f["status"] for f in finals] == ["done", "done"]
        # both records carry the same report from the single search
        assert finals[0]["report"] == finals[1]["report"]
        assert slow.invocations == 1

        metrics = client.metrics()
        assert metrics["solver"]["invocations"] == 1
        assert metrics["jobs"]["coalesced"] == 1
        assert metrics["jobs"]["submitted"] == 2
        assert metrics["jobs"]["completed"] == 2

    def test_repeat_after_completion_hits_cache(self, client, job, stub):
        first = client.solve(job, solver="svc-stub", timeout=10)
        assert first.from_cache is False
        repeat = client.submit(job, solver="svc-stub")
        # answered synchronously from the cache: terminal on arrival
        assert repeat["status"] == "done"
        assert repeat["from_cache"] is True
        assert stub.invocations == 1

        metrics = client.metrics()
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["solver"]["invocations"] == 1

    def test_different_fingerprints_do_not_coalesce(self, client, job, slow):
        other = job.with_(global_batch=job.global_batch * 2)
        assert other.fingerprint() != job.fingerprint()
        first = client.submit(job, solver="svc-slow")
        second = client.submit(other, solver="svc-slow")
        assert second["coalesced"] is False
        slow.release.set()
        for record in (first, second):
            assert client.wait(record["id"], timeout=10)["status"] == "done"
        assert slow.invocations == 2
        assert client.metrics()["jobs"]["coalesced"] == 0

    def test_same_job_different_solver_does_not_coalesce(
            self, client, job, stub, slow):
        running = client.submit(job, solver="svc-slow")
        other = client.submit(job, solver="svc-stub")
        assert other["coalesced"] is False
        slow.release.set()
        assert client.wait(running["id"], timeout=10)["status"] == "done"
        assert client.wait(other["id"], timeout=10)["status"] == "done"
        assert slow.invocations == 1
        assert stub.invocations == 1

    def test_parallelism_differences_still_coalesce(self, client, job, slow):
        # a body from an older client still carries the removed
        # "parallelism" field: it is ignored, so the job keeps its
        # fingerprint and rides the search already in flight
        first = client.submit(job, solver="svc-slow")
        second = client._request(
            "POST", "/jobs",
            {"job": dict(job.to_dict(), parallelism=4), "solver": "svc-slow"})
        assert second["coalesced"] is True
        assert second["fingerprint"] == first["fingerprint"]
        slow.release.set()
        assert client.wait(first["id"], timeout=10)["status"] == "done"
        assert client.wait(second["id"], timeout=10)["status"] == "done"
        assert slow.invocations == 1

    def test_cancelling_one_coalesced_record_keeps_search_alive(
            self, client, job, slow):
        first = client.submit(job, solver="svc-slow")
        second = client.submit(job, solver="svc-slow")
        assert second["coalesced"] is True
        # one of two callers bails: the search must keep running for
        # the other
        client.cancel(second["id"])
        slow.release.set()
        assert client.wait(first["id"], timeout=10)["status"] == "done"
        assert client.job(second["id"])["status"] == "cancelled"
        assert slow.invocations == 1

    def test_cancelling_every_record_cancels_the_search(
            self, client, job, slow):
        first = client.submit(job, solver="svc-slow")
        second = client.submit(job, solver="svc-slow")
        assert slow.started.wait(timeout=5)
        client.cancel(first["id"])
        client.cancel(second["id"])
        # the solver's should_stop poll now fires; no release needed
        assert client.wait(first["id"], timeout=10)["status"] == "cancelled"
        assert client.wait(second["id"], timeout=10)["status"] == "cancelled"
        assert client.plan(job.fingerprint(), "svc-slow") is None


class TestCachePersistence:
    def test_cache_survives_daemon_restart(self, tmp_path, job, stub):
        cache_dir = tmp_path / "shared-plans"
        first = TuningService(workers=1, cache=PlanCache(cache_dir))
        handle = first.run_in_thread()
        Client(handle.url, timeout=10).solve(job, solver="svc-stub",
                                             timeout=10)
        handle.stop()
        assert stub.invocations == 1

        second = TuningService(workers=1, cache=PlanCache(cache_dir))
        handle = second.run_in_thread()
        try:
            client = Client(handle.url, timeout=10)
            report = client.solve(job, solver="svc-stub", timeout=10)
            assert report.from_cache is True
            assert stub.invocations == 1      # no new search after restart
            assert client.metrics()["cache"]["hits"] == 1
        finally:
            handle.stop()

    def test_coalesced_record_is_marked_running(self, client, job, slow):
        first = client.submit(job, solver="svc-slow")
        assert slow.started.wait(timeout=5)
        second = client.submit(job, solver="svc-slow")
        assert second["coalesced"] is True
        # attached to an already-running search: lifecycle must not
        # report a solving job as still queued
        record = client.job(second["id"])
        assert record["status"] == "running"
        assert record["started_at"] is not None
        slow.release.set()
        assert client.wait(first["id"], timeout=10)["status"] == "done"
