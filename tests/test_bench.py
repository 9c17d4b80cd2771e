"""The `repro bench` harness: snapshot schema, gates, CLI plumbing."""

from __future__ import annotations

import copy
import io
import json

import pytest

from repro.benchmarking import (
    BENCH_SCHEMA,
    check_against_baseline,
    check_warm_speedup,
    format_bench,
    run_bench,
    validate_bench,
)
from repro.benchmarking.bench import main_check
from repro.benchmarking.suite import current_scale, format_series
from repro.cli import main


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return run_bench("smoke")


class TestSnapshot:
    def test_schema_and_shape(self, snapshot):
        assert snapshot["schema"] == BENCH_SCHEMA
        assert snapshot["scale"] == "smoke"
        assert set(snapshot["benchmarks"]) == {
            "fig16_tuning_time", "fig16_exhaustive_reference",
            "fig_replan"}
        pruned = snapshot["benchmarks"]["fig16_tuning_time"]
        assert pruned["wall_time_seconds"] > 0
        assert pruned["per_space"]

    def test_snapshot_is_strict_json(self, snapshot):
        def _no_constants(_):
            raise AssertionError("non-standard JSON constant emitted")
        json.loads(json.dumps(snapshot), parse_constant=_no_constants)

    def test_gates_pass_on_fresh_snapshot(self, snapshot):
        assert validate_bench(snapshot) == []
        assert snapshot["derived"]["plans_match_exhaustive"]
        assert snapshot["derived"]["fig16_speedup"] > 0

    def test_counters_nonzero(self, snapshot):
        stats = snapshot["benchmarks"]["fig16_tuning_time"]["stats"]
        assert stats["cells_pruned"] > 0
        assert stats["configs_prefiltered"] > 0
        assert stats["memo_hits"] > 0

    def test_format_is_printable(self, snapshot):
        text = format_bench(snapshot)
        assert "fig16_tuning_time" in text
        assert "speedup vs exhaustive" in text

    def test_replan_pass_recorded(self, snapshot):
        replan = snapshot["benchmarks"]["fig_replan"]
        assert replan["scenarios"]
        assert all(entry["plans_match"]
                   for entry in replan["scenarios"].values())
        assert snapshot["derived"]["replan_plans_match"]
        assert snapshot["derived"]["fig_replan_speedup"] > 1.0

    def test_a_search_runs_before_the_timed_passes(self, monkeypatch):
        # otherwise the first timed pass pays the process's warm-up
        import repro.benchmarking.bench as bench
        from repro.core import MistTuner

        events = []
        search = MistTuner.search

        def spied(self, *args, **kwargs):
            events.append("search")
            return search(self, *args, **kwargs)

        def fig16(scale, *, prune):
            events.append("fig16")
            return {"wall_time_seconds": 1.0, "plan_hashes": {}}

        def replan(scale):
            events.append("replan")
            return {"config_speedup_geomean": 1.0, "plans_match": True}

        monkeypatch.setattr(MistTuner, "search", spied)
        monkeypatch.setattr(bench, "measure_fig16", fig16)
        monkeypatch.setattr(bench, "measure_replan", replan)
        run_bench("smoke")
        assert events == ["search", "fig16", "fig16", "replan"]


class TestGates:
    def test_hash_drift_fails_validation(self, snapshot):
        tampered = copy.deepcopy(snapshot)
        hashes = tampered["benchmarks"]["fig16_tuning_time"]["plan_hashes"]
        space = next(iter(hashes))
        hashes[space] = "deadbeefdeadbeef"
        tampered["derived"]["plans_match_exhaustive"] = False
        problems = validate_bench(tampered)
        assert any("drifted" in p for p in problems)

    def test_zero_counters_fail_validation(self, snapshot):
        tampered = copy.deepcopy(snapshot)
        stats = tampered["benchmarks"]["fig16_tuning_time"]["stats"]
        stats["cells_pruned"] = 0
        problems = validate_bench(tampered)
        assert any("pruned no" in p for p in problems)

    def test_memo_hits_count_across_fig16_passes(self, snapshot):
        tampered = copy.deepcopy(snapshot)
        benchmarks = tampered["benchmarks"]
        benchmarks["fig16_tuning_time"]["stats"]["memo_hits"] = 0
        assert validate_bench(tampered) == []
        benchmarks["fig16_exhaustive_reference"]["stats"]["memo_hits"] = 0
        assert any("memoization" in p for p in validate_bench(tampered))

    def test_wall_time_regression_fails(self, snapshot):
        slower = copy.deepcopy(snapshot)
        bench = slower["benchmarks"]["fig16_tuning_time"]
        bench["wall_time_seconds"] = \
            snapshot["benchmarks"]["fig16_tuning_time"][
                "wall_time_seconds"] * 2 + 10
        problems = check_against_baseline(slower, snapshot,
                                          max_regression=0.25)
        assert any("regressed" in p for p in problems)

    def test_sub_threshold_noise_passes(self, snapshot):
        jitter = copy.deepcopy(snapshot)
        bench = jitter["benchmarks"]["fig16_tuning_time"]
        bench["wall_time_seconds"] *= 1.20  # < 25%: fine
        assert check_against_baseline(jitter, snapshot) == []

    def test_absolute_noise_floor(self, snapshot):
        # +50% of nearly nothing is scheduler noise, not a regression
        tiny_base = copy.deepcopy(snapshot)
        tiny_base["benchmarks"]["fig16_tuning_time"][
            "wall_time_seconds"] = 0.2
        tiny_cur = copy.deepcopy(snapshot)
        tiny_cur["benchmarks"]["fig16_tuning_time"][
            "wall_time_seconds"] = 0.3
        assert check_against_baseline(tiny_cur, tiny_base) == []

    def test_counter_drift_fails(self, snapshot):
        # a pass the current run skipped is not compared
        trimmed = copy.deepcopy(snapshot)
        del trimmed["benchmarks"]["fig16_exhaustive_reference"]
        del trimmed["benchmarks"]["fig_replan"]
        assert check_against_baseline(trimmed, snapshot) == []

        drifted = copy.deepcopy(snapshot)
        benches = drifted["benchmarks"]
        pruned = benches["fig16_tuning_time"]
        space = next(iter(pruned["per_space"]))
        pruned["plan_hashes"][space] = "deadbeefdeadbeef"
        pruned["per_space"][space]["stats"]["configs_evaluated"] += 1
        benches["fig16_exhaustive_reference"]["stats"]["cells_explored"] += 1
        scenario = next(iter(benches["fig_replan"]["scenarios"]))
        benches["fig_replan"]["scenarios"][scenario]["warm"][
            "configurations_evaluated"] += 1
        # a counter the baseline has and the run lacks is drift too
        del pruned["stats"]["memo_hits"]
        problems = check_against_baseline(drifted, snapshot)
        assert sorted(p.split(" differs")[0] for p in problems) == sorted([
            f"fig16_tuning_time.plan_hashes[{space}]",
            f"fig16_tuning_time.per_space[{space}].stats.configs_evaluated",
            "fig16_exhaustive_reference.stats.cells_explored",
            f"fig_replan.{scenario}.warm.configurations_evaluated",
            "fig16_tuning_time.stats.memo_hits",
        ])

    def test_warm_speedup_gate(self, snapshot):
        assert check_warm_speedup(snapshot, min_speedup=2.0) == []
        slow = copy.deepcopy(snapshot)
        slow["derived"]["fig_replan_speedup"] = 1.2
        problems = check_warm_speedup(slow, min_speedup=2.0)
        assert len(problems) == 1 and "1.20x" in problems[0]
        # an explicit 0 disables the gate
        assert check_warm_speedup(slow, min_speedup=0.0) == []

    def test_replan_plan_drift_fails_validation(self, snapshot):
        tampered = copy.deepcopy(snapshot)
        scenarios = tampered["benchmarks"]["fig_replan"]["scenarios"]
        name = next(iter(scenarios))
        scenarios[name]["plans_match"] = False
        tampered["benchmarks"]["fig_replan"]["plans_match"] = False
        tampered["derived"]["replan_plans_match"] = False
        problems = validate_bench(tampered)
        assert any("warm replan plans drifted" in p and name in p
                   for p in problems)

    def test_1x_baseline_with_interpreted_pass_still_gates(self, snapshot):
        # baselines written by 1.x carry the removed interpreted-engine
        # pass; they stay valid and the gates ignore the extra pass
        old = copy.deepcopy(snapshot)
        old["benchmarks"]["fig16_interpreted_engine"] = copy.deepcopy(
            old["benchmarks"]["fig16_tuning_time"])
        old["derived"].update(fig16_engine_speedup=39.0,
                              plans_match_interpreted=True)
        assert validate_bench(old) == []
        assert check_against_baseline(snapshot, old) == []
        out = io.StringIO()
        assert main_check(snapshot, old, out=out) == 0
        assert "interpreted" not in out.getvalue()

    def test_scale_mismatch_fails(self, snapshot):
        other = copy.deepcopy(snapshot)
        other["scale"] = "quick"
        problems = check_against_baseline(snapshot, other)
        assert any("scale" in p for p in problems)


class TestCli:
    def test_bench_command_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "--scale", "smoke", "--out", str(out)])
        assert code == 0
        written = json.loads(out.read_text())
        assert written["schema"] == BENCH_SCHEMA
        assert validate_bench(written) == []
        assert "bench gates: OK" in capsys.readouterr().out

    def test_bench_command_gates_against_baseline(self, tmp_path, capsys,
                                                  snapshot):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(snapshot))
        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "--scale", "smoke", "--out", str(out),
                     "--baseline", str(baseline),
                     "--max-regression", "5.0"])
        assert code == 0

    def test_bench_command_rejects_bad_baseline(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "--scale", "smoke", "--out", str(out),
                     "--baseline", str(bad)])
        assert code == 2


class TestSuiteHelpers:
    def test_format_series(self):
        text = format_series("S", "x", {"m": [1, 2, 3]}, [10, 20, 30])
        assert "10" in text and "m" in text

    def test_current_scale_follows_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "Smoke")
        assert current_scale().name == "smoke"
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert current_scale().name == "quick"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(KeyError, match="REPRO_BENCH_SCALE='huge'"):
            current_scale()
