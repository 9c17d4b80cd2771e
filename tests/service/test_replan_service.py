"""``POST /replan``: warm-start routing, latency budget, metrics.

Stub solvers exercise the endpoint mechanics (cold fallback, budget
expiry, cache hits, validation); one test runs the real ``mist``
solver at smoke scale to prove the warm path end to end.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import MistSolver, PlanCache
from repro.api.replan import delta_job
from repro.hardware import ClusterDelta
from repro.service import running_service
from repro.service.client import ServiceError

DELTA = ClusterDelta.degrade_link(0.5)


class TestReplanEndpoint:
    def test_metrics_replan_section_shape(self, client):
        replan = client.metrics()["replan"]
        assert replan == {"requests": 0, "warm": 0, "cold_fallback": 0,
                          "cache_hits": 0, "within_budget": 0,
                          "budget_expired": 0}

    def test_cold_fallback_without_incumbent(self, client, job, stub):
        # nothing cached for the base job -> the replan runs cold but
        # still answers, with provenance saying so
        record = client.replan(job, DELTA, solver="svc-stub",
                               budget_seconds=30)
        assert record["status"] == "done"
        extra = record["report"]["extra"]["replan"]
        assert extra["warm"] is False
        assert extra["incumbent"] == "none"
        metrics = client.metrics()["replan"]
        assert metrics["requests"] == 1
        assert metrics["cold_fallback"] == 1
        assert metrics["within_budget"] == 1

    def test_warm_replan_with_mist(self, client, job):
        client.solve(job, solver="mist", timeout=300)
        record = client.replan(job, DELTA, solver="mist",
                               budget_seconds=120)
        assert record["status"] == "done"
        extra = record["report"]["extra"]["replan"]
        assert extra["warm"] is True
        # submit_replan resolves the cached plan under its lock and
        # hands it to the flight explicitly
        assert extra["incumbent"] == "explicit"
        assert extra["describe"] == DELTA.describe()
        metrics = client.metrics()["replan"]
        assert metrics["warm"] == 1
        assert metrics["within_budget"] == 1

    def test_zero_budget_returns_202_with_incumbent(self, client, job,
                                                    slow):
        record = client.replan(job, DELTA, solver="svc-slow",
                               budget_seconds=0)
        assert record["budget_expired"] is True
        assert record["status"] == "running"
        # no cached plan for the base job -> nothing to keep running
        assert record["incumbent_plan"] is None
        slow.release.set()
        final = client.wait(record["id"], timeout=10)
        assert final["status"] == "done"
        metrics = client.metrics()["replan"]
        assert metrics["budget_expired"] == 1
        assert metrics["within_budget"] == 0

    def test_repeat_replan_is_cache_hit(self, client, job, stub):
        first = client.replan(job, DELTA, solver="svc-stub",
                              budget_seconds=30)
        assert first["status"] == "done"
        invocations_after_first = stub.invocations
        second = client.replan(job, DELTA, solver="svc-stub",
                               budget_seconds=30)
        assert second["status"] == "done"
        assert stub.invocations == invocations_after_first
        metrics = client.metrics()["replan"]
        assert metrics["requests"] == 2
        assert metrics["cache_hits"] == 1

    def test_validation_errors(self, client, job):
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/replan", {"job": job.to_dict()})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.replan(job, {"ops": [{"op": "teleport"}]},
                          solver="svc-stub")
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/replan",
                            {"job": job.to_dict(),
                             "delta": DELTA.to_dict(),
                             "budget_seconds": "soon"})
        assert exc.value.status == 400
        # json.loads takes NaN/Infinity: non-finite or negative budgets
        # must be refused, not waited on or echoed back as bare NaN; an
        # integer too large for a float must not escape as a 500
        for budget in (float("nan"), float("inf"), float("-inf"), -1.0,
                       10**400):
            with pytest.raises(ServiceError) as exc:
                client.replan(job, DELTA, solver="svc-stub",
                              budget_seconds=budget)
            assert exc.value.status == 400, budget
            assert "budget_seconds" in str(exc.value)
        # malformed ops: once a 500 (unknown or missing gpu, a list
        # factor), silently applied (a misspelled link degraded the
        # inter-node link; a string or bool factor was float()ed), or a
        # raw TypeError (an op that is not an object)
        for op, reason in (
                ({"op": "retype_group", "gpu": "H900"}, "gpu"),
                ({"op": "retype_group"}, "gpu"),
                ({"op": "degrade_link", "factor": [1]}, "factor"),
                ({"op": "degrade_link", "factor": "0.5"}, "factor"),
                ({"op": "degrade_link", "factor": True}, "factor"),
                ({"op": "degrade_link", "factor": 0.5,
                  "link": "inter-group"}, "link"),
                (1, "object")):
            with pytest.raises(ServiceError) as exc:
                client.replan(job, {"ops": [op]}, solver="svc-stub")
            assert exc.value.status == 400, op
            assert reason in str(exc.value), op
        assert client.metrics()["replan"]["requests"] == 0

    def test_unknown_solver_404(self, client, job):
        with pytest.raises(ServiceError) as exc:
            client.replan(job, DELTA, solver="no-such-solver")
        assert exc.value.status == 404

    def test_budget_expiry_surfaces_cached_incumbent(self, client, job,
                                                     monkeypatch):
        # a real mist solve caches a plan; the zero-budget replan then
        # expires while its warm search is held at the gate, and the
        # 202 carries that plan as the one to keep running. The gate
        # makes the expiry deterministic: a warm process-wide menu memo
        # can otherwise finish the search before the budget check.
        gate = threading.Event()
        warm_replan = MistSolver.replan

        def gated_replan(self, *args, **kwargs):
            gate.wait(timeout=300)
            return warm_replan(self, *args, **kwargs)

        monkeypatch.setattr(MistSolver, "replan", gated_replan)
        client.solve(job, solver="mist", timeout=300)
        try:
            record = client.replan(job, DELTA, solver="mist",
                                   budget_seconds=0)
        finally:
            gate.set()
        assert record["budget_expired"] is True
        assert record["incumbent_plan"] is not None
        final = client.wait(record["id"], timeout=300)
        assert final["status"] == "done"
        assert final["report"]["extra"]["replan"]["warm"] is True

    def test_budget_waits_for_fast_finish(self, client, job, slow):
        # a generous budget returns 200 once the flight finishes: the
        # release happens from a timer shorter than the budget
        threading.Timer(0.2, slow.release.set).start()
        start = time.perf_counter()
        record = client.replan(job, DELTA, solver="svc-slow",
                               budget_seconds=10)
        elapsed = time.perf_counter() - start
        assert record["status"] == "done"
        assert "budget_expired" not in record
        assert elapsed < 10

    @pytest.mark.parametrize("budget", [10, 1e12],
                             ids=["10s", "past-timeout-max"])
    def test_budgeted_replan_answers_200(self, service, job, slow, budget):
        # the connection thread waits on the record's terminal event; a
        # budget past threading.TIMEOUT_MAX waits too, it never overflows
        threading.Timer(0.2, slow.release.set).start()
        status, _, record = _post(
            f"http://{service.host}:{service.port}", "/replan",
            {"job": job.to_dict(), "delta": DELTA.to_dict(),
             "solver": "svc-slow", "budget_seconds": budget})
        assert status == 200
        assert record["status"] == "done"
        replan = service.metrics.snapshot()["replan"]
        assert replan["within_budget"] == 1
        assert replan["budget_expired"] == 0

    def test_budgeted_replans_leave_state_routes_responsive(
            self, service, client, job, slow):
        # each budgeted replan waits on its own connection thread; more
        # of them than a default thread pool has workers must still not
        # queue /metrics behind their budgets
        executor_threads = min(32, (os.cpu_count() or 1) + 4)
        count = executor_threads + 2
        records = []
        threads = [threading.Thread(target=lambda: records.append(
            client.replan(job, DELTA, solver="svc-slow", budget_seconds=3)))
            for _ in range(count)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while (service.metrics.snapshot()["replan"]["requests"] < count
               and time.monotonic() < deadline):
            time.sleep(0.01)
        time.sleep(0.2)
        try:
            start = time.perf_counter()
            client.metrics()
            elapsed = time.perf_counter() - start
        finally:
            slow.release.set()
            for thread in threads:
                thread.join(timeout=30)
        assert elapsed < 1.0
        assert len(records) == count
        assert all(r["status"] == "done" for r in records)


def _post(url, path, payload):
    """Raw POST: ``(status, headers, body)`` even for an error status."""
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers, \
                json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, json.loads(exc.read())


class TestReplanSharesTheSubmissionPath:
    def test_full_queue_rejects_with_429_and_retry_after(
            self, job, slow, tmp_path):
        with running_service(workers=2, max_pending=1,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            other = dataclasses.replace(job, options={"cell": "other"})
            client.submit(other, solver="svc-slow")
            assert slow.started.wait(timeout=5)
            status, headers, body = _post(
                client.base_url, "/replan",
                {"job": job.to_dict(), "delta": DELTA.to_dict(),
                 "solver": "svc-slow", "budget_seconds": 0})
            assert status == 429
            assert body["reason"] == "queue"
            assert int(headers["Retry-After"]) == body["retry_after"] >= 1
            metrics = client.metrics()
            assert metrics["admission"]["rejected_queue"] == 1
            assert metrics["jobs"]["submitted"] == 1
            assert metrics["replan"]["requests"] == 1
            assert metrics["replan"]["cold_fallback"] == 0

    def test_finished_replan_releases_its_quota_slot(
            self, job, slow, tmp_path):
        with running_service(workers=2, quota=1,
                             cache=PlanCache(tmp_path / "plans"),
                             client_id="alice") as (service, alice):
            record = alice.replan(job, DELTA, solver="svc-slow",
                                  budget_seconds=0)
            assert record["budget_expired"] is True
            other = dataclasses.replace(job, options={"cell": "other"})
            # the running replan holds alice's only slot
            with pytest.raises(ServiceError) as exc:
                alice.submit(other, solver="svc-slow")
            assert exc.value.status == 429
            assert exc.value.payload["reason"] == "quota"
            slow.release.set()
            assert alice.wait(record["id"], timeout=10)["status"] == "done"
            # ...and gave it back when it finished
            accepted = alice.submit(other, solver="svc-slow")
            assert alice.wait(accepted["id"], timeout=10)["status"] == "done"

    def test_replan_coalesces_onto_an_in_flight_post_delta_job(
            self, client, job, slow):
        first = client.submit(delta_job(job, DELTA), solver="svc-slow")
        assert slow.started.wait(timeout=5)
        record = client.replan(job, DELTA, solver="svc-slow",
                               budget_seconds=0)
        assert record["coalesced"] is True
        assert record["fingerprint"] == first["fingerprint"]
        slow.release.set()
        final = client.wait(record["id"], timeout=10)
        assert final["status"] == "done"
        assert slow.invocations == 1
        metrics = client.metrics()
        assert metrics["jobs"]["coalesced"] == 1
        # the ridden search was a plain submit: no replan search started
        assert metrics["replan"] == {
            "requests": 1, "warm": 0, "cold_fallback": 0, "cache_hits": 0,
            "within_budget": 0, "budget_expired": 1}


class TestReplanOnProcessDaemon:
    def test_warm_replan_on_process_workers(self, job, tmp_path):
        with running_service(workers=1, worker_mode="process",
                             cache=PlanCache(tmp_path / "plans"),
                             client_timeout=120.0) as (service, client):
            client.solve(job, solver="mist", timeout=120)
            pids = service.worker_pids()
            record = client.replan(job, DELTA, solver="mist",
                                   budget_seconds=120)
            assert record["status"] == "done"
            extra = record["report"]["extra"]["replan"]
            assert extra["warm"] is True
            assert extra["incumbent"] == "explicit"
            # the replanned plan is in the shared cache for everyone
            again = client.solve(delta_job(job, DELTA), solver="mist",
                                 timeout=30)
            assert again.from_cache
            assert service.worker_pids() == pids
            metrics = client.metrics()
            assert metrics["replan"]["warm"] == 1
            assert metrics["solver"]["invocations"] == 2
