"""Tests for executor lookup and the inline/service backends.

(The process-pool backend crosses a real process boundary and is
covered with real solvers in ``test_resume.py``.)
"""

import pytest

from repro.api import PlanCache
from repro.campaigns import ExecutorNotFoundError, get_executor, run_campaign
from repro.campaigns.executors import (
    InlineExecutor,
    ProcessPoolExecutor,
    ServiceExecutor,
)


class TestGetExecutor:
    @pytest.mark.parametrize("name, cls, options", [
        ("inline", InlineExecutor, {}),
        ("process-pool", ProcessPoolExecutor, {}),
        ("service", ServiceExecutor, {"url": "http://127.0.0.1:1"}),
    ])
    def test_builtin_executors(self, name, cls, options):
        assert type(get_executor(name, **options)) is cls

    def test_unknown_executor(self):
        with pytest.raises(ExecutorNotFoundError):
            get_executor("quantum")

    def test_unknown_executor_lists_the_builtins(self):
        with pytest.raises(ExecutorNotFoundError) as err:
            get_executor("quantum")
        message = str(err.value)
        assert "quantum" in message
        for name in ("inline", "process-pool", "service"):
            assert name in message

    def test_registry_api_is_gone(self):
        from repro.campaigns import executors

        assert sorted(executors.__all__) == [
            "ExecutorNotFoundError", "InlineExecutor",
            "ProcessPoolExecutor", "ServiceExecutor", "get_executor"]

    def test_options_forwarded_and_validated(self):
        pool = get_executor("process-pool", workers=4)
        assert pool.workers == 4
        with pytest.raises(ValueError, match="invalid options"):
            get_executor("inline", bogus=True)
        with pytest.raises(ValueError, match="workers"):
            get_executor("process-pool", workers=0)
        with pytest.raises(ValueError, match="url"):
            get_executor("service")


class TestInlineExecutor:
    def test_runs_all_cells(self, stub_spec, stub_a, stub_b, tmp_path):
        report = run_campaign(stub_spec, cache=PlanCache(tmp_path))
        assert report.counters == {
            "cells": 4, "done": 4, "failed": 0, "pending": 0,
            "solved": 4, "cache_hits": 0, "manifest_hits": 0,
        }
        assert stub_a.invocations == 2 and stub_b.invocations == 2

    def test_cache_short_circuits_second_run(self, stub_spec, stub_a,
                                             stub_b, tmp_path):
        cache = PlanCache(tmp_path)
        run_campaign(stub_spec, cache=cache)
        before = (stub_a.invocations, stub_b.invocations)
        report = run_campaign(stub_spec, cache=cache)
        assert report.counters["cache_hits"] == 4
        assert report.counters["solved"] == 0
        assert (stub_a.invocations, stub_b.invocations) == before

    def test_cell_failure_isolated(self, stub_spec, stub_a, stub_b):
        bad = stub_spec.expand()[0]
        stub_a.fail_on.add(bad.job.fingerprint())
        report = run_campaign(stub_spec)
        assert report.counters["failed"] == 1
        assert report.counters["done"] == 3
        failed = [rec for rec in report.cells
                  if rec["status"] == "failed"]
        assert "RuntimeError" in failed[0]["error"]
        assert not report.complete

    def test_should_stop_aborts_remainder(self, stub_spec, stub_a, stub_b):
        seen = []

        def stop() -> bool:
            return len(seen) >= 2

        report = run_campaign(stub_spec,
                              on_event=lambda rec, _r: seen.append(rec),
                              should_stop=stop)
        assert report.counters["done"] == 2
        assert report.counters["pending"] == 2

    def test_events_stream_per_cell(self, stub_spec, stub_a, stub_b,
                                    tmp_path):
        run_campaign(stub_spec, directory=tmp_path / "run")
        from repro.campaigns import CampaignManifest

        manifest = CampaignManifest(tmp_path / "run")
        events = manifest.events()
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign-started"
        assert kinds.count("cell") == 4
        assert kinds[-1] == "campaign-finished"
        cell_events = [e for e in events if e["event"] == "cell"]
        assert all(e["source"] == "solved" for e in cell_events)


class TestServiceExecutor:
    @pytest.fixture()
    def daemon(self, tmp_path):
        from repro.service import TuningService

        service = TuningService(workers=2,
                                cache=PlanCache(tmp_path / "daemon-plans"))
        handle = service.run_in_thread()
        yield handle
        handle.stop()

    def test_cells_ride_the_daemon(self, daemon, stub_spec, stub_a, stub_b,
                                   tmp_path):
        report = run_campaign(
            stub_spec, executor="service",
            executor_options={"url": daemon.url},
            directory=tmp_path / "run",
        )
        assert report.counters["done"] == 4
        assert report.counters["solved"] == 4
        # measurements cross the wire: same throughputs as inline
        assert report.results() == run_campaign(stub_spec).results()
        # the daemon tracked the batch as one campaign
        from repro.service import Client

        [campaign] = Client(daemon.url).campaigns()
        assert campaign["name"] == "stub-grid"
        assert campaign["counters"]["cells"] == 4

    def test_resume_needs_no_daemon_roundtrip(self, daemon, stub_spec,
                                              stub_a, stub_b, tmp_path):
        run_campaign(stub_spec, executor="service",
                     executor_options={"url": daemon.url},
                     directory=tmp_path / "run")
        invocations = (stub_a.invocations, stub_b.invocations)
        daemon.stop()       # resume must not need the daemon at all
        report = run_campaign(stub_spec, executor="service",
                              executor_options={"url": daemon.url},
                              directory=tmp_path / "run", resume=True)
        assert report.counters["manifest_hits"] == 4
        assert report.counters["solved"] == 0
        assert (stub_a.invocations, stub_b.invocations) == invocations

    def test_daemon_side_cache_hits_reported(self, daemon, stub_spec,
                                             stub_a, stub_b, tmp_path):
        run_campaign(stub_spec, executor="service",
                     executor_options={"url": daemon.url})
        report = run_campaign(stub_spec, executor="service",
                              executor_options={"url": daemon.url})
        assert report.counters["cache_hits"] == 4
        assert stub_a.invocations == 2 and stub_b.invocations == 2

    def test_unreachable_daemon_fails_cells_cleanly(self, stub_spec,
                                                    stub_a, stub_b):
        report = run_campaign(
            stub_spec, executor="service",
            executor_options={"url": "http://127.0.0.1:9",
                              "timeout": 5.0})
        assert report.counters["failed"] == 4
        assert all("service" in rec["error"] for rec in report.cells)
