"""Admission control: bounded queue, per-client quotas, 429 semantics.

All tests run the thread tier with the blocking ``svc-slow`` stub so
queue depth is under test control; the HTTP surface (status code,
``Retry-After`` header, body fields) is exercised through the real
client, which folds them into :class:`ServiceError`.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.api import PlanCache
from repro.service import AdmissionError, Client, TuningService, \
    running_service
from repro.service.state import percentiles


def _distinct(job, tag):
    return dataclasses.replace(job, options={"cell": tag})


class TestQueueBound:
    def test_full_queue_rejects_with_429_and_retry_after(
            self, job, slow, tmp_path):
        with running_service(workers=2, max_pending=1,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            first = client.submit(_distinct(job, 1), solver="svc-slow")
            assert slow.started.wait(timeout=5)

            with pytest.raises(Exception) as excinfo:
                client.submit(_distinct(job, 2), solver="svc-slow")
            err = excinfo.value
            assert getattr(err, "status", None) == 429
            assert err.retry_after >= 1
            assert "queue is full" in str(err)

            metrics = client.metrics()
            assert metrics["admission"]["rejected_queue"] == 1
            assert metrics["admission"]["max_pending"] == 1
            assert metrics["admission"]["queue_depth"] == 1

            # rejected submissions never count as submitted work
            assert metrics["jobs"]["submitted"] == 1

            slow.release.set()
            client.wait(first["id"], timeout=10)
            # the queue drained: the same second job is admitted now
            accepted = client.submit(_distinct(job, 2), solver="svc-slow")
            client.wait(accepted["id"], timeout=10)

    def test_coalescing_bypasses_queue_bound(self, job, slow, tmp_path):
        with running_service(workers=2, max_pending=1,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            first = client.submit(job, solver="svc-slow")
            assert slow.started.wait(timeout=5)
            # identical job: attaches to the in-flight search even
            # though the queue is at its bound
            dup = client.submit(job, solver="svc-slow")
            assert dup["coalesced"] is True
            slow.release.set()
            assert client.wait(first["id"], timeout=10)["status"] == "done"
            assert client.wait(dup["id"], timeout=10)["status"] == "done"
            assert slow.invocations == 1

    def test_campaign_batch_admitted_as_one_unit(self, job, slow, tmp_path):
        with running_service(workers=2, max_pending=1,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            cells = [{"solver": "svc-slow",
                      "job": _distinct(job, tag).to_dict()}
                     for tag in (1, 2)]
            with pytest.raises(Exception) as excinfo:
                client.submit_campaign(cells, name="too-big")
            assert getattr(excinfo.value, "status", None) == 429
            assert "campaign" in str(excinfo.value)
            metrics = client.metrics()
            # rejected wholesale: no cell was submitted
            assert metrics["jobs"]["submitted"] == 0
            assert metrics["campaigns"]["submitted"] == 0
            slow.release.set()


class TestClientQuota:
    def test_quota_is_per_client(self, job, slow, tmp_path):
        with running_service(workers=2, quota=1,
                             cache=PlanCache(tmp_path / "plans"),
                             client_id="alice") as (service, alice):
            bob = Client(f"http://{service.host}:{service.port}",
                         timeout=10, client_id="bob")
            first = alice.submit(_distinct(job, 1), solver="svc-slow")
            assert slow.started.wait(timeout=5)

            with pytest.raises(Exception) as excinfo:
                alice.submit(_distinct(job, 2), solver="svc-slow")
            assert getattr(excinfo.value, "status", None) == 429
            assert "quota" in str(excinfo.value)

            # a different client is not throttled by alice's jobs
            other = bob.submit(_distinct(job, 3), solver="svc-slow")

            metrics = alice.metrics()
            assert metrics["admission"]["rejected_quota"] == 1
            assert metrics["admission"]["quota"] == 1

            slow.release.set()
            alice.wait(first["id"], timeout=10)
            bob.wait(other["id"], timeout=10)
            # terminal jobs release their quota slot
            done = alice.submit(_distinct(job, 4), solver="svc-slow")
            alice.wait(done["id"], timeout=10)

    def test_quota_applies_to_coalescing_submissions(
            self, job, slow, tmp_path):
        with running_service(workers=2, quota=1,
                             cache=PlanCache(tmp_path / "plans"),
                             client_id="alice") as (service, alice):
            alice.submit(job, solver="svc-slow")
            assert slow.started.wait(timeout=5)
            # even a would-coalesce duplicate holds a quota slot
            with pytest.raises(Exception) as excinfo:
                alice.submit(job, solver="svc-slow")
            assert getattr(excinfo.value, "status", None) == 429
            slow.release.set()

    def test_cancel_releases_quota(self, job, slow, tmp_path):
        with running_service(workers=2, quota=1,
                             cache=PlanCache(tmp_path / "plans"),
                             client_id="alice") as (service, alice):
            first = alice.submit(_distinct(job, 1), solver="svc-slow")
            assert slow.started.wait(timeout=5)
            alice.cancel(first["id"])
            # the cancelled record gave its slot back immediately
            second = alice.submit(_distinct(job, 2), solver="svc-slow")
            slow.release.set()
            alice.wait(second["id"], timeout=10)


class _ReleaseHookLock:
    """A lock that runs a hook once, right after the arming thread's
    next release — the earliest moment another submission can get in."""

    def __init__(self):
        self._lock = threading.Lock()
        self._armed: tuple[int, object] | None = None

    def arm(self, hook):
        self._armed = (threading.get_ident(), hook)

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()
        armed = self._armed
        if armed is not None and armed[0] == threading.get_ident():
            self._armed = None
            armed[1]()


class _RacingService(TuningService):
    """Submits ``rival`` the first time a campaign lets go of the lock.

    If the campaign's admission and its cell entry were two separate
    lock holds, the rival would land between them: admitted against a
    queue and a quota ledger that do not yet count the campaign.
    """

    def __init__(self, rival, **kwargs):
        super().__init__(**kwargs)
        self._lock = _ReleaseHookLock()
        self.rival = rival
        self.rival_error: AdmissionError | None = None

    def submit_campaign(self, cells, name="campaign", *, client=""):
        self._lock.arm(lambda: self._submit_rival(client))
        return super().submit_campaign(cells, name, client=client)

    def _submit_rival(self, client):
        try:
            self.submit(self.rival, "svc-slow", client=client)
        except AdmissionError as exc:
            self.rival_error = exc


class TestCampaignAdmissionIsAtomic:
    def _race(self, job, tmp_path, **bounds):
        service = _RacingService(_distinct(job, "rival"), workers=2,
                                 cache=PlanCache(tmp_path / "plans"),
                                 **bounds)
        handle = service.run_in_thread()
        cells = [{"solver": "svc-slow",
                  "job": _distinct(job, tag).to_dict()} for tag in (1, 2)]
        return service, handle, cells

    def test_rival_cannot_overflow_the_queue(self, job, slow, tmp_path):
        service, handle, cells = self._race(job, tmp_path, max_pending=2)
        try:
            service.submit_campaign(cells, name="fills-queue")
            depth = service._metrics_body()["admission"]["queue_depth"]
            assert depth <= 2
            assert service.rival_error is not None
            assert service.rival_error.reason == "queue"
        finally:
            slow.release.set()
            handle.stop()

    def test_rival_cannot_overdraw_the_quota(self, job, slow, tmp_path):
        service, handle, cells = self._race(job, tmp_path, quota=2)
        try:
            service.submit_campaign(cells, name="fills-quota",
                                    client="alice")
            assert service._clients["alice"] <= 2
            assert service.rival_error is not None
            assert service.rival_error.reason == "quota"
        finally:
            slow.release.set()
            handle.stop()


class TestAdmissionApi:
    def test_zero_disables_both_bounds(self, job, stub, tmp_path):
        with running_service(workers=2, max_pending=0, quota=0,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            records = [client.submit(_distinct(job, tag),
                                     solver="svc-stub")
                       for tag in range(6)]
            for record in records:
                client.wait(record["id"], timeout=10)
            metrics = client.metrics()
            assert metrics["admission"]["rejected_queue"] == 0
            assert metrics["admission"]["rejected_quota"] == 0

    def test_negative_bounds_rejected(self):
        from repro.service import TuningService
        with pytest.raises(ValueError):
            TuningService(max_pending=-1)
        with pytest.raises(ValueError):
            TuningService(quota=-1)

    def test_healthz_reports_admission_config(self, job, tmp_path):
        with running_service(workers=2, worker_mode="thread",
                             max_pending=7, quota=3,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            health = client.health()
            assert health["worker_mode"] == "thread"
            assert health["max_pending"] == 7
            assert health["quota"] == 3

    def test_admission_error_directly(self, job, slow, tmp_path):
        with running_service(workers=2, max_pending=1,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            client.submit(_distinct(job, 1), solver="svc-slow")
            assert slow.started.wait(timeout=5)
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(_distinct(job, 2), solver="svc-slow")
            assert excinfo.value.reason == "queue"
            assert excinfo.value.retry_after >= 1
            slow.release.set()


class TestLatencyMetrics:
    def test_percentile_fields_populate(self, job, stub, tmp_path):
        with running_service(workers=2,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            for tag in range(3):
                record = client.submit(_distinct(job, tag),
                                       solver="svc-stub")
                client.wait(record["id"], timeout=10)
            latency = client.metrics()["latency"]
        assert latency["samples"] == 3
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["wait_p50"] <= latency["p50"]

    def test_cache_hits_do_not_skew_latency(self, job, stub, tmp_path):
        with running_service(workers=2,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, client):
            record = client.submit(job, solver="svc-stub")
            client.wait(record["id"], timeout=10)
            for _ in range(4):
                hit = client.submit(job, solver="svc-stub")
                assert hit["from_cache"] is True
            assert client.metrics()["latency"]["samples"] == 1


class TestPercentiles:
    def test_empty_is_all_zero(self):
        assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        spread = percentiles(samples)
        assert spread == {"p50": 50.0, "p95": 95.0, "p99": 99.0}

    def test_single_sample(self):
        assert percentiles([2.5]) == {"p50": 2.5, "p95": 2.5, "p99": 2.5}

    def test_unsorted_input(self):
        assert percentiles([3.0, 1.0, 2.0])["p50"] == 2.0

    def test_custom_points(self):
        spread = percentiles([1.0, 2.0, 3.0, 4.0], points=(25.0, 100.0))
        assert spread == {"p25": 1.0, "p100": 4.0}
