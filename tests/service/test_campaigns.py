"""Tests for the service's POST /campaigns batch surface."""

import pytest

from repro.service import ServiceError, UnknownCampaignError


class TestCampaignEndpoint:
    def test_batch_runs_every_cell(self, client, job, stub):
        record = client.submit_campaign(
            [(job, "svc-stub"), (job.with_(global_batch=8), "svc-stub")],
            name="grid")
        assert record["status"] in ("running", "done")
        final = client.wait_campaign(record["id"], timeout=10)
        assert final["status"] == "done"
        assert final["counters"]["cells"] == 2
        assert final["counters"]["done"] == 2
        assert stub.invocations == 2
        # per-cell records are ordinary job records, fetchable by id
        cell = client.job(final["cells"][0]["id"])
        assert cell["report"]["solver"] == "svc-stub"

    def test_duplicate_cells_coalesce(self, client, job, slow):
        record = client.submit_campaign(
            [(job, "svc-slow"), (job, "svc-slow")], name="coalesce")
        assert slow.started.wait(timeout=5)
        slow.release.set()
        final = client.wait_campaign(record["id"], timeout=10)
        assert final["status"] == "done"
        assert final["counters"]["coalesced"] == 1
        assert slow.invocations == 1
        metrics = client.metrics()
        assert metrics["jobs"]["coalesced"] >= 1

    def test_repeat_campaign_is_pure_cache(self, client, job, stub):
        first = client.submit_campaign([(job, "svc-stub")])
        client.wait_campaign(first["id"], timeout=10)
        again = client.submit_campaign([(job, "svc-stub")])
        final = client.wait_campaign(again["id"], timeout=10)
        assert final["counters"]["from_cache"] == 1
        assert stub.invocations == 1

    def test_campaign_metrics_section(self, client, job, stub):
        before = client.metrics()["campaigns"]
        record = client.submit_campaign(
            [(job, "svc-stub"), (job.with_(global_batch=4), "svc-stub")])
        client.wait_campaign(record["id"], timeout=10)
        after = client.metrics()["campaigns"]
        assert after["submitted"] == before["submitted"] + 1
        assert after["cells"] == before["cells"] + 2
        assert after["tracked"] == before["tracked"] + 1

    def test_unknown_solver_rejects_whole_batch(self, client, job, stub):
        jobs_before = len(client.jobs())
        with pytest.raises(ServiceError) as err:
            client.submit_campaign(
                [(job, "svc-stub"), (job, "no-such-solver")])
        assert err.value.status == 404
        # validation precedes submission: no partial batch left behind
        assert len(client.jobs()) == jobs_before
        assert stub.invocations == 0

    def test_bad_bodies_rejected(self, client, job):
        for payload in ({}, {"cells": []}, {"cells": "nope"},
                        {"cells": [{"solver": "mist"}]},
                        {"cells": [{"job": {"model": "gpt3-1.3b"}}]},
                        {"cells": [{"job": dict(job.to_dict(),
                                                seq_lne=4096)}]}):
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/campaigns", payload)
            assert err.value.status == 400, payload

    def test_list_and_lookup(self, client, job, stub):
        record = client.submit_campaign([(job, "svc-stub")], name="lookup")
        client.wait_campaign(record["id"], timeout=10)
        listing = client.campaigns()
        assert any(c["id"] == record["id"] for c in listing)
        # summaries omit the cell list; the detail view carries it
        summary = next(c for c in listing if c["id"] == record["id"])
        assert "cells" not in summary
        assert len(client.campaign(record["id"])["cells"]) == 1

    def test_unknown_campaign_404(self, client, service):
        with pytest.raises(ServiceError) as err:
            client.campaign("camp-missing")
        assert err.value.status == 404
        with pytest.raises(UnknownCampaignError):
            service.get_campaign("camp-missing")

    def test_method_not_allowed(self, client, service):
        with pytest.raises(ServiceError) as err:
            client._request("DELETE", "/campaigns")
        assert err.value.status == 405
