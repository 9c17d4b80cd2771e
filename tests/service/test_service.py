"""Endpoint and lifecycle coverage for the `repro serve` daemon."""

from __future__ import annotations

import http.client as http_client
import json
import socket
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import SolveReport
from repro.service import ServiceError


class TestHealthAndMetrics:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert "mist" in health["solvers"]
        assert health["workers"] == 2

    def test_metrics_initial_shape(self, client):
        metrics = client.metrics()
        assert metrics["jobs"]["submitted"] == 0
        assert metrics["cache"] == {"hits": 0, "misses": 0}
        assert metrics["solver"]["invocations"] == 0
        assert metrics["uptime_seconds"] >= 0
        assert metrics["search"] == {
            "cells_total": 0, "cells_explored": 0, "cells_pruned": 0,
            "cells_infeasible": 0, "configs_evaluated": 0,
            "configs_prefiltered": 0, "memo_hits": 0, "memo_misses": 0,
        }

    def test_metrics_accumulate_search_counters(self, client, job, stub):
        client.solve(job, solver="svc-stub", timeout=10)
        metrics = client.metrics()
        search = metrics["search"]
        assert search["cells_total"] == 4
        assert search["cells_explored"] == 2
        assert search["cells_pruned"] == 2
        assert search["memo_hits"] == 1
        assert search["memo_misses"] == 3
        # the cached repeat runs no search: counters must not move
        client.solve(job, solver="svc-stub", timeout=10)
        assert client.metrics()["search"] == search


class TestJobLifecycle:
    def test_submit_wait_report_roundtrip(self, client, job, stub):
        record = client.submit(job, solver="svc-stub")
        assert record["status"] in ("queued", "running", "done")
        assert record["fingerprint"] == job.fingerprint()
        final = client.wait(record["id"], timeout=10)
        assert final["status"] == "done"
        report = SolveReport.from_dict(final["report"])
        assert report.throughput == 7.5
        assert report.job == job

    def test_client_solve_helper(self, client, job, stub):
        report = client.solve(job, solver="svc-stub", timeout=10)
        assert isinstance(report, SolveReport)
        assert report.throughput == 7.5
        assert report.from_cache is False
        # second time: daemon answers from its plan cache
        again = client.solve(job, solver="svc-stub", timeout=10)
        assert again.from_cache is True
        assert stub.invocations == 1

    def test_progress_relayed_to_job_record(self, client, job, slow):
        record = client.submit(job, solver="svc-slow")
        assert slow.started.wait(timeout=5)
        seen = client.job(record["id"])
        assert seen["status"] == "running"
        assert seen["progress"] == {"done": 1, "total": 2}
        slow.release.set()
        final = client.wait(record["id"], timeout=10)
        assert final["progress"] == {"done": 2, "total": 2}

    def test_jobs_listing_omits_reports(self, client, job, stub):
        client.solve(job, solver="svc-stub", timeout=10)
        listed = client.jobs()
        assert len(listed) == 1
        assert listed[0]["status"] == "done"
        assert "report" not in listed[0]

    def test_cancellation(self, client, job, slow):
        record = client.submit(job, solver="svc-slow")
        assert slow.started.wait(timeout=5)
        cancelled = client.cancel(record["id"])
        assert cancelled["status"] == "cancelled"
        # the cooperative hook lands at the solver's next poll; the
        # record stays cancelled and nothing was cached
        final = client.wait(record["id"], timeout=10)
        assert final["status"] == "cancelled"
        assert client.plan(job.fingerprint(), "svc-slow") is None
        assert client.metrics()["jobs"]["cancelled"] == 1

    def test_cancel_finished_job_is_noop(self, client, job, stub):
        record = client.submit(job, solver="svc-stub")
        client.wait(record["id"], timeout=10)
        after = client.cancel(record["id"])
        assert after["status"] == "done"
        assert client.metrics()["jobs"]["cancelled"] == 0

    def test_failed_solver_marks_job_failed(self, client, job, stub):
        stub.fail_with = RuntimeError("kaboom")
        record = client.submit(job, solver="svc-stub")
        final = client.wait(record["id"], timeout=10)
        assert final["status"] == "failed"
        assert "kaboom" in final["error"]
        assert client.metrics()["jobs"]["failed"] == 1
        # a failure is not cached: the next submission searches again
        stub.fail_with = None
        report = client.solve(job, solver="svc-stub", timeout=10)
        assert report.from_cache is False
        assert stub.invocations == 2

    def test_client_solve_raises_on_failure(self, client, job, stub):
        stub.fail_with = ValueError("bad geometry")
        with pytest.raises(ServiceError, match="bad geometry"):
            client.solve(job, solver="svc-stub", timeout=10)


class TestPlansEndpoint:
    def test_miss_then_hit(self, client, job, stub):
        assert client.plan(job.fingerprint(), "svc-stub") is None
        client.solve(job, solver="svc-stub", timeout=10)
        report = client.plan(job.fingerprint(), "svc-stub")
        assert report is not None
        assert report.from_cache is True
        assert report.throughput == 7.5

    def test_solver_and_fingerprint_never_leave_the_cache_dir(
            self, client, service, job):
        # valid reports planted where a raw ``solver`` or fingerprint
        # would lead the cache: one beside the cache dir, one inside it
        # under a name that is no fingerprint. Both lookups are 404s.
        text = SolveReport(solver="svc-stub", job=job).to_json()
        service.cache.root.mkdir(parents=True, exist_ok=True)
        for fingerprint, solver in ((job.fingerprint(), "../secret"),
                                    ("notafingerprint", "svc-stub")):
            service.cache.path_for_fingerprint(
                fingerprint, solver).write_text(text)
        for path in (f"/plans/{job.fingerprint()}?solver=../secret",
                     f"/plans/{job.fingerprint()}?solver=..%2Fsecret",
                     "/plans/notafingerprint?solver=svc-stub",
                     f"/plans/{job.fingerprint().upper()}?solver=svc-stub"):
            with pytest.raises(ServiceError) as err:
                client._request("GET", path)
            assert err.value.status == 404, path


class TestErrorHandling:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("job-doesnotexist")
        assert err.value.status == 404

    def test_unknown_solver_404(self, client, job):
        with pytest.raises(ServiceError) as err:
            client.submit(job, solver="no-such-backend")
        assert err.value.status == 404
        assert "no-such-backend" in str(err.value)

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_method_not_allowed_405(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("DELETE", "/jobs")
        assert err.value.status == 405

    def test_invalid_json_body_400(self, client):
        request = urllib.request.Request(
            client.base_url + "/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 400

    def test_missing_job_field_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", {"solver": "svc-stub"})
        assert err.value.status == 400

    def test_invalid_job_400(self, client, job, stub):
        # besides out-of-range values: fields once accepted and then
        # solved with the wrong setting (flash, num_gpus), failed in the
        # worker (model), or cached under a second fingerprint (32.0);
        # a misspelled key was once dropped, solving at the default
        for field, value in (("num_gpus", 0), ("flash", "no"),
                             ("num_gpus", True), ("model", "gpt3-99b"),
                             ("global_batch", 32.0), ("options", []),
                             ("options", {"a": float("nan")}),
                             ("seq_lne", 4096)):
            bad = dict(job.to_dict(), **{field: value})
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/jobs",
                                {"job": bad, "solver": "svc-stub"})
            assert err.value.status == 400
            assert field in str(err.value)
        # malformed cluster dicts: once solved with a wrong link or node
        # count, or failed in the worker
        for field, value in (("inter_node_bandwidth", -5e9),
                             ("inter_node_bandwidth", 0),
                             ("inter_node_latency", -1.0),
                             ("gpus_per_node", 1.5), ("num_nodes", True),
                             ("num_nodes", "1")):
            cluster = {"gpu": job.gpu, "num_nodes": job.num_gpus,
                       "gpus_per_node": 1, field: value}
            bad = dict(job.to_dict(), cluster=cluster)
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/jobs",
                                {"job": bad, "solver": "svc-stub"})
            assert err.value.status == 400
            assert field in str(err.value)
        # replan deltas whose counts int() once coerced or failed on
        for op in ({"op": "remove_nodes", "count": 1.5},
                   {"op": "remove_nodes", "count": "abc"},
                   {"op": "resize_group", "num_nodes": 2.7}):
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/replan", {
                    "job": job.to_dict(), "solver": "svc-stub",
                    "delta": {"ops": [op]}})
            assert err.value.status == 400
            assert "must be an integer" in str(err.value)
        assert stub.invocations == 0

    def test_partial_node_gpu_count_400(self, client, job):
        # 12 GPUs without a cluster dict would be priced on 8
        bad = dict(job.to_dict(), num_gpus=12)
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs",
                            {"job": bad, "solver": "svc-stub"})
        assert err.value.status == 400
        assert "cluster=" in str(err.value)

    def test_responses_are_strict_json(self, client):
        with urllib.request.urlopen(client.base_url + "/healthz",
                                    timeout=5) as response:
            assert response.headers["Content-Type"] == "application/json"
            json.loads(response.read().decode())


class TestMeasurementsOverTheWire:
    def test_client_solve_ships_measurements_not_runtime_objects(
            self, client, job, stub):
        report = client.solve(job, solver="svc-stub", timeout=10)
        assert report.result is None           # runtime objects never ship
        assert report.throughput == 7.5        # ...but measurements do
        assert report.measured["iteration_time"] == 0.2

    def test_campaign_against_live_server(self, client, job, stub):
        from repro.campaigns import CampaignSpec, run_campaign

        spec = CampaignSpec(
            name="svc-grid", solvers=("svc-stub",),
            models=(job.model,),
            clusters=({"gpu": job.gpu, "num_gpus": job.num_gpus},),
            scales=("smoke",), global_batches=(job.global_batch,),
            interference="none")
        report = run_campaign(spec, executor="service",
                              executor_options={"url": client.base_url})
        assert report.complete
        assert [row["svc-stub"] for row in report.results().values()] \
            == [7.5]


class TestInProcessApi:
    def test_get_job_raises_public_keyerror(self, service):
        from repro.service import UnknownJobError

        with pytest.raises(UnknownJobError):
            service.get_job("job-missing")
        with pytest.raises(KeyError):  # catchable as plain KeyError too
            service.cancel_job("job-missing")

    def test_wait_timeout_zero_fails_fast(self, client, job, slow):
        record = client.submit(job, solver="svc-slow")
        assert slow.started.wait(timeout=5)
        with pytest.raises(TimeoutError):
            client.wait(record["id"], timeout=0)

    def test_negative_content_length_400(self, client):
        conn = http_client.HTTPConnection(
            client.base_url.removeprefix("http://"), timeout=5)
        try:
            conn.putrequest("POST", "/jobs", skip_accept_encoding=True)
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize("request_bytes, status", [
        (b"garbage\r\n\r\n", 400),
        # no version: not an HTTP/0.9 reply without status line or headers
        (b"GET /healthz\r\n\r\n", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (8 * 2**20 + 1), 413),
        (b"PUT /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 405),
    ], ids=["garbage-line", "no-version", "bad-length", "huge-body",
            "put-jobs"])
    def test_malformed_http_gets_a_json_4xx(self, client, request_bytes,
                                            status):
        host, port = client.base_url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(request_bytes)
            response = http_client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
        assert response.status == status
        assert response.getheader("Content-Type") == "application/json"
        assert isinstance(payload, dict) and payload["error"]
