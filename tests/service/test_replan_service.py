"""``POST /replan``: warm-start routing, latency budget, metrics.

Stub solvers exercise the endpoint mechanics (cold fallback, budget
expiry, cache hits, validation); one test runs the real ``mist``
solver at smoke scale to prove the warm path end to end.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import MistSolver
from repro.hardware import ClusterDelta
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
