"""Request bodies are decoded by field tables: a malformed body is a 400
naming the field, never a 500 and never a solver invocation; a bug in
the parser is a 500."""

from __future__ import annotations

import pytest

from repro.api import TuningJob
from repro.hardware import ClusterDelta
from repro.service import ServiceError

#: the cluster document that once answered HTTP 500 on every route
BAD_GPU = {"gpu": 5, "gpus_per_node": 2}


def _status(client, path, body) -> ServiceError:
    with pytest.raises(ServiceError) as err:
        client._request("POST", path, body)
    return err.value


class TestNonStringGpu:
    def _job(self, job):
        return dict(job.to_dict(), num_gpus=2, cluster=BAD_GPU)

    def test_post_jobs(self, client, job, stub):
        err = _status(client, "/jobs",
                      {"job": self._job(job), "solver": "svc-stub"})
        assert err.status == 400
        assert "'gpu' must be a string, got 5" in str(err)
        assert stub.invocations == 0

    def test_campaign_cell(self, client, job, stub):
        cells = [{"job": job.to_dict(), "solver": "svc-stub"},
                 {"job": self._job(job), "solver": "svc-stub"}]
        err = _status(client, "/campaigns", {"name": "c", "cells": cells})
        assert err.status == 400
        assert "body.cells[1]" in str(err) and "'gpu'" in str(err)
        assert stub.invocations == 0
        assert client.metrics()["campaigns"]["submitted"] == 0

    def test_replan(self, client, job, stub):
        err = _status(client, "/replan", {
            "job": self._job(job), "solver": "svc-stub",
            "delta": ClusterDelta.degrade_link(0.5).to_dict()})
        assert err.status == 400
        assert "'gpu' must be a string, got 5" in str(err)
        assert stub.invocations == 0


class TestBodyFields:
    def test_bool_budget_rejected(self, client, job, stub):
        err = _status(client, "/replan", {
            "job": job.to_dict(), "solver": "svc-stub",
            "delta": ClusterDelta.degrade_link(0.5).to_dict(),
            "budget_seconds": True})
        assert err.status == 400
        assert "budget_seconds" in str(err)
        assert stub.invocations == 0

    @pytest.mark.parametrize("solver", [5, ["mist"], None])
    @pytest.mark.parametrize("route", ["/jobs", "/replan", "/campaigns"])
    def test_non_string_solver_is_a_type_error(self, client, job, stub,
                                               route, solver):
        body = {"job": job.to_dict(), "solver": solver}
        if route == "/replan":
            body["delta"] = ClusterDelta.degrade_link(0.5).to_dict()
        if route == "/campaigns":
            body = {"cells": [body]}
        err = _status(client, route, body)
        assert err.status == 400, err
        assert "'solver' must be a string" in str(err)

    def test_campaign_name_must_be_a_string(self, client, job, stub):
        err = _status(client, "/campaigns", {
            "name": ["a"], "cells": [{"job": job.to_dict(),
                                      "solver": "svc-stub"}]})
        assert err.status == 400
        assert "'name' must be a string" in str(err)
        assert stub.invocations == 0

    @pytest.mark.parametrize("body", [
        {"cells": []}, {"cells": "x"}, {"cells": [1]}, {},
    ], ids=["empty", "string", "non-object-cell", "missing"])
    def test_bad_cell_lists(self, client, stub, body):
        err = _status(client, "/campaigns", body)
        assert err.status == 400
        assert "cells" in str(err)

    def test_unknown_body_key_rejected(self, client, job, stub):
        err = _status(client, "/jobs", {"job": job.to_dict(),
                                        "solver": "svc-stub",
                                        "priority": 1})
        assert err.status == 400
        assert "priority" in str(err)

    def test_a_bug_in_the_parser_is_a_500(self, client, job, monkeypatch):
        # the body parser no longer catches KeyError: one raised while
        # a job is built is a bug, not bad input
        def broken(*_args, **_kwargs):
            raise KeyError("a bug")

        monkeypatch.setattr(TuningJob, "from_dict", broken)
        err = _status(client, "/jobs", {"job": job.to_dict(),
                                        "solver": "svc-stub"})
        assert err.status == 500
