"""Load harness: trace determinism, the runner, gates, and the CLI.

The runner tests drive a real in-thread daemon through the stub
solvers registered by ``tests/service/conftest.py`` (this module
borrows them by registering its own equivalents), so a closed-loop run
finishes in milliseconds while still crossing real sockets.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
import types

import pytest

from repro.api import PlanCache, SolveReport, TuningJob, register_solver
from repro.cli import main
from repro.loadgen import (
    LOAD_SCHEMA,
    TRACE_SCALES,
    TraceSpec,
    check_against_baseline,
    format_load,
    main_check,
    run_load,
    runner,
    synthesize_trace,
    validate_load,
)
from repro.service import running_service


@register_solver("loadgen-stub", overwrite=True)
class _InstantSolver:
    """Microsecond solve; plan-less deterministic report."""

    def solve(self, job, *, progress=None, should_stop=None):
        return SolveReport(
            solver="loadgen-stub", job=job,
            measured={"throughput": 5.0, "iteration_time": 0.2},
            tuning_time_seconds=0.001, configurations_evaluated=1,
        )


class TestTraceSpec:
    def test_scales_are_wired(self):
        assert set(TRACE_SCALES) == {"smoke", "quick", "synthetic",
                                     "soak"}
        for name, spec in TRACE_SCALES.items():
            assert spec.name == name
            assert spec.requests >= spec.unique_jobs

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(name="bad", requests=0, unique_jobs=1)
        with pytest.raises(ValueError):
            TraceSpec(name="bad", requests=4, unique_jobs=5)
        with pytest.raises(ValueError):
            TraceSpec(name="bad", requests=4, unique_jobs=2,
                      arrival_rate=0.0)

    def test_job_for_cell_feeds_fingerprint(self):
        spec = TRACE_SCALES["smoke"]
        jobs = [spec.job_for_cell(cell) for cell in range(3)]
        prints = {job.fingerprint() for job in jobs}
        assert len(prints) == 3
        assert spec.job_for_cell(1).fingerprint() in prints

    def test_synthetic_scale_arms_the_synthetic_solver(self):
        spec = TRACE_SCALES["synthetic"]
        job = spec.job_for_cell(0)
        assert spec.solver == "synthetic"
        assert job.options["synthetic"]["seconds"] == pytest.approx(0.25)


class TestSynthesizeTrace:
    def test_deterministic(self):
        spec = TRACE_SCALES["smoke"]
        assert synthesize_trace(spec) == synthesize_trace(spec)

    def test_seed_changes_the_trace(self):
        spec = TRACE_SCALES["smoke"]
        other = dataclasses.replace(spec, seed=7)
        assert synthesize_trace(spec) != synthesize_trace(other)

    def test_cold_sweep_then_revisits(self):
        spec = TraceSpec(name="t", requests=10, unique_jobs=4)
        trace = synthesize_trace(spec)
        assert len(trace) == 10
        assert [r.cell for r in trace[:4]] == [0, 1, 2, 3]
        assert all(0 <= r.cell < 4 for r in trace[4:])

    def test_offsets_strictly_increase(self):
        trace = synthesize_trace(TRACE_SCALES["smoke"])
        offsets = [r.offset for r in trace]
        assert offsets == sorted(offsets)
        assert offsets[0] > 0.0


class TestRunLoad:
    SPEC = TraceSpec(name="unit", requests=10, unique_jobs=3,
                     solver="loadgen-stub", arrival_rate=200.0)

    def _run(self, tmp_path, **kwargs):
        trace = synthesize_trace(self.SPEC)
        with running_service(workers=2,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, _):
            url = f"http://{service.host}:{service.port}"
            return run_load(url, self.SPEC, trace, **kwargs)

    def test_closed_loop_all_ok(self, tmp_path):
        result = self._run(tmp_path, mode="closed", concurrency=3,
                           timeout=30.0)
        assert result["schema"] == LOAD_SCHEMA
        requests = result["requests"]
        assert requests["total"] == 10
        assert requests["ok"] == 10
        # 3 unique cells over 10 requests: 7 answers were reused
        assert requests["from_cache"] + requests["coalesced"] == 7
        assert result["latency_seconds"]["p99"] > 0.0
        assert result["throughput_rps"] > 0.0
        assert validate_load(result) == []
        assert result["server"]["metrics"]["jobs"]["submitted"] == 10

    def test_open_loop_all_ok(self, tmp_path):
        result = self._run(tmp_path, mode="open", timeout=30.0)
        assert result["requests"]["ok"] == 10
        assert validate_load(result) == []

    def test_open_loop_sends_on_due_times(self, tmp_path, monkeypatch):
        # a 50 ms Thread.start: no thread may start inside the schedule,
        # or request k goes out at least 50*k ms after it was due
        class SlowThread(threading.Thread):
            def start(self):
                time.sleep(0.05)
                super().start()

        shim = types.SimpleNamespace(**vars(threading))
        shim.Thread = SlowThread
        monkeypatch.setattr(runner, "threading", shim)
        sent: dict = {}
        submit = runner.Client.submit

        def timed_submit(client, job, solver="mist"):
            sent[job.fingerprint()] = time.perf_counter()
            return submit(client, job, solver)

        monkeypatch.setattr(runner.Client, "submit", timed_submit)
        spec = TraceSpec(name="due", requests=5, unique_jobs=5,
                         solver="loadgen-stub", arrival_rate=20.0)
        trace = synthesize_trace(spec)
        with running_service(workers=2,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, _):
            url = f"http://{service.host}:{service.port}"
            result = run_load(url, spec, trace, mode="open", timeout=30.0)
        assert result["requests"]["ok"] == 5
        first = trace[0]
        for request in trace:
            lag = ((sent[request.job.fingerprint()]
                    - sent[first.job.fingerprint()])
                   - (request.offset - first.offset))
            assert abs(lag) < 0.04, (request.index, lag)

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown load mode"):
            self._run(tmp_path, mode="sideways")

    def test_rejections_are_counted_not_fatal(self, tmp_path):
        # quota 1 + a 10-deep trace from one client id: most requests
        # bounce with 429, which the gates treat as expected behavior
        trace = synthesize_trace(self.SPEC)
        with running_service(workers=2, quota=1,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, _):
            url = f"http://{service.host}:{service.port}"
            result = run_load(url, self.SPEC, trace, mode="closed",
                              concurrency=4, timeout=30.0)
        requests = result["requests"]
        assert requests["ok"] >= 1
        assert requests["ok"] + requests["rejected"] == 10
        assert requests["server_errors"] == 0
        for outcome in result["outcomes"]:
            if outcome["status"] == "rejected":
                assert outcome["http_status"] == 429
                assert outcome["retry_after"] >= 1


class TestGates:
    def _ok_report(self) -> dict:
        return {
            "schema": LOAD_SCHEMA, "scale": "smoke", "mode": "closed",
            "requests": {"total": 4, "ok": 4, "rejected": 0, "failed": 0,
                         "timeout": 0, "client_errors": 0,
                         "server_errors": 0, "transport_errors": 0,
                         "from_cache": 1, "coalesced": 1},
            "latency_seconds": {"p50": 0.1, "p95": 0.2, "p99": 0.3,
                                "max": 0.3, "mean": 0.15},
            "throughput_rps": 10.0, "wall_seconds": 0.4,
            "plan_hash_conflicts": [],
        }

    def test_validate_accepts_clean_run(self):
        assert validate_load(self._ok_report()) == []

    def test_validate_flags_schema_and_errors(self):
        assert "schema" in validate_load({"schema": "bench/1"})[0]
        bad = self._ok_report()
        bad["requests"]["server_errors"] = 2
        bad["requests"]["ok"] = 0
        problems = validate_load(bad)
        assert any("5xx" in p for p in problems)
        assert any("no request completed" in p for p in problems)

    def test_validate_flags_client_errors(self):
        bad = self._ok_report()
        bad["requests"]["client_errors"] = 1
        assert any("4xx" in p for p in validate_load(bad))

    def test_validate_flags_plan_hash_divergence(self):
        bad = self._ok_report()
        bad["plan_hash_conflicts"] = [
            {"cell": 3, "expected": "aaa", "got": "bbb"}]
        assert any("diverged" in p for p in validate_load(bad))

    def test_baseline_gate_needs_both_thresholds(self):
        base = self._ok_report()
        fast = self._ok_report()
        # +200% relative but only +0.6s... exceeds min_abs -> flagged
        slow = self._ok_report()
        slow["latency_seconds"]["p99"] = 0.9
        assert check_against_baseline(slow, base) != []
        # large relative, tiny absolute -> scheduler noise, not flagged
        tiny_base = self._ok_report()
        tiny_base["latency_seconds"]["p99"] = 0.01
        tiny_cur = self._ok_report()
        tiny_cur["latency_seconds"]["p99"] = 0.05
        assert check_against_baseline(tiny_cur, tiny_base) == []
        assert check_against_baseline(fast, base) == []

    def test_baseline_gate_rejects_mismatched_runs(self):
        base = self._ok_report()
        other = self._ok_report()
        other["scale"] = "soak"
        assert any("scale" in p
                   for p in check_against_baseline(other, base))
        alien = {"schema": "repro-bench/1"}
        assert any("schema" in p
                   for p in check_against_baseline(self._ok_report(),
                                                   alien))

    def test_format_and_main_check(self, capsys):
        report = self._ok_report()
        text = format_load(report)
        assert "4/4 ok" in text
        assert main_check(report, None) == 0
        assert "load gates: OK" in capsys.readouterr().out
        report["requests"]["failed"] = 1
        assert main_check(report, None) == 1
        assert "FAIL" in capsys.readouterr().out


class TestLoadCli:
    def test_needs_a_target(self, capsys):
        assert main(["load", "--scale", "smoke"]) == 2
        assert "--url" in capsys.readouterr().err

    def test_against_live_url(self, tmp_path, capsys):
        out = tmp_path / "LOAD.json"
        with running_service(workers=2,
                             cache=PlanCache(tmp_path / "plans")
                             ) as (service, _):
            url = f"http://{service.host}:{service.port}"
            code = main(["load", "--scale", "smoke", "--url", url,
                         "--requests", "6", "--unique-jobs", "2",
                         "--out", str(out)])
        assert code == 0
        assert "load gates: OK" in capsys.readouterr().out
        written = json.loads(out.read_text())
        assert written["schema"] == LOAD_SCHEMA
        assert written["requests"]["ok"] == 6

    def test_baseline_gate_wired_through(self, tmp_path, capsys):
        out = tmp_path / "LOAD.json"
        baseline = tmp_path / "BASE.json"

        def run(tag, extra=()):
            # fresh service + cache per invocation so every cell is
            # cold: synthetic-scale cells busy-spin >= 0.25s, which
            # always trips a ~zero doctored baseline p99 on both the
            # relative and the absolute (0.25s) regression thresholds
            with running_service(workers=2,
                                 cache=PlanCache(tmp_path / tag)
                                 ) as (service, _):
                url = f"http://{service.host}:{service.port}"
                return main(["load", "--scale", "synthetic",
                             "--url", url, "--requests", "4",
                             "--unique-jobs", "2", "--out", str(out),
                             *extra])

        assert run("first") == 0
        out.replace(baseline)
        doctored = json.loads(baseline.read_text())
        doctored["latency_seconds"]["p99"] = 1e-9
        baseline.write_text(json.dumps(doctored))
        code = run("second", ["--baseline", str(baseline),
                              "--max-regression", "0.0"])
        assert code == 1
        assert "p99 latency regressed" in capsys.readouterr().out
