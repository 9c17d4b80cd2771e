"""Tests for the solver registry and the cache-aware solve() helper."""

from pathlib import Path

import pytest

from repro.api import (
    PlanCache,
    SolveReport,
    SolverNotFoundError,
    TuningJob,
    get_solver,
    register_solver,
    solve,
    solver_names,
    solver_registry,
)
from repro.api.cache import SOLVER_SEMANTICS
from repro.core import StageConfig, TrainingPlan

JOB = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16,
                scale="smoke")
V2_CAMPAIGN_PLANS = (Path(__file__).parents[1] / "campaigns" / "fixtures"
                     / "v2_campaign" / "plans")


class TestRegistry:
    def test_builtin_solvers_registered(self):
        names = solver_names()
        for expected in ("mist", "megatron", "deepspeed", "aceso",
                         "uniform"):
            assert expected in names

    def test_unknown_solver_error(self):
        with pytest.raises(SolverNotFoundError) as err:
            get_solver("alpa")
        assert "alpa" in str(err.value)
        assert "mist" in str(err.value)  # lists the options

    def test_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            get_solver("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            @register_solver("mist")
            class Impostor:
                def solve(self, job):  # pragma: no cover
                    raise NotImplementedError

    def test_registry_snapshot_is_a_copy(self):
        snapshot = solver_registry()
        snapshot["bogus"] = object
        assert "bogus" not in solver_names()


def _dummy_report(job: TuningJob, solver: str) -> SolveReport:
    plan = TrainingPlan(
        global_batch=job.global_batch, gacc=1,
        stages=(StageConfig(layers=24, microbatch=job.global_batch,
                            dp=1, tp=2),),
        source=solver,
    )
    return SolveReport(solver=solver, job=job, plan=plan,
                       measured={"throughput": 1.0})


class TestSolveAndCache:
    def test_custom_solver_through_registry(self):
        @register_solver("test-dummy", overwrite=True)
        class Dummy:
            def solve(self, job):
                return _dummy_report(job, "test-dummy")

        report = solve(JOB, "test-dummy")
        assert report.solver == "test-dummy"
        assert report.found

    def test_cache_round_trip(self, tmp_path):
        @register_solver("test-counting", overwrite=True)
        class Counting:
            calls = 0

            def solve(self, job):
                type(self).calls += 1
                return _dummy_report(job, "test-counting")

        cache = PlanCache(tmp_path)
        first = solve(JOB, "test-counting", cache=cache)
        second = solve(JOB, "test-counting", cache=cache)
        assert Counting.calls == 1
        assert not first.from_cache and second.from_cache
        assert second.plan == first.plan
        assert second.to_json() == first.to_json()

    def test_cache_miss_on_different_job(self, tmp_path):
        cache = PlanCache(tmp_path)
        cache.store(_dummy_report(JOB, "test-dummy"))
        assert cache.load(JOB.with_(global_batch=64), "test-dummy") is None
        assert cache.load(JOB, "other-solver") is None

    def test_corrupt_cache_entry_ignored(self, tmp_path):
        cache = PlanCache(tmp_path)
        path = cache.store(_dummy_report(JOB, "test-dummy"))
        path.write_text("{not json")
        assert cache.load(JOB, "test-dummy") is None

    def test_clear(self, tmp_path):
        cache = PlanCache(tmp_path)
        cache.store(_dummy_report(JOB, "test-dummy"))
        assert cache.clear() == 1
        assert cache.load(JOB, "test-dummy") is None

    def test_unversioned_entry_never_served(self, tmp_path):
        # an entry a pre-versioning release wrote under the bare
        # "<solver>-<fingerprint>.json" name may hold a plan the current
        # solver semantics no longer return: it must be a miss, also on
        # the raw-fingerprint lookup behind GET /plans/<fp>. So must a
        # mist v2 entry, whose search-log bounds and statuses predate
        # the per-position cell bounds, and a uniform v2 entry, whose
        # checkpoint grid ignored ckpt_policy="full".
        cache = PlanCache(tmp_path)
        fp = JOB.fingerprint()
        for solver, legacy_name, version in (
                ("test-dummy", f"test-dummy-{fp}.json", SOLVER_SEMANTICS),
                ("mist", f"mist-{fp}-v2.json", 3),
                ("uniform", f"uniform-{fp}-v2.json", 3)):
            legacy = tmp_path / legacy_name
            legacy.write_text(_dummy_report(JOB, solver).to_json())
            assert cache.load(JOB, solver) is None
            assert cache.load_fingerprint(fp, solver) is None
            path = cache.store(_dummy_report(JOB, solver))
            assert path != legacy
            assert path.name.endswith(f"-v{version}.json")
            assert cache.load(JOB, solver) is not None
        # every other solver keeps its version: the stub solvers of the
        # campaign directory 2.0 wrote the shared one
        entries = sorted(V2_CAMPAIGN_PLANS.glob("*.json"))
        assert entries
        for entry in entries:
            solver, entry_fp, _ = entry.name.rsplit("-", 2)
            assert cache.path_for_fingerprint(entry_fp, solver).name \
                == entry.name


class TestReportSerialization:
    def test_byte_identical_round_trip(self):
        report = _dummy_report(JOB, "test-dummy")
        text = report.to_json()
        again = SolveReport.from_json(text)
        assert again.to_json() == text
        assert again.plan == report.plan

    def test_planless_report_round_trips(self):
        report = SolveReport(solver="s", job=JOB)
        again = SolveReport.from_json(report.to_json())
        assert not again.found
        assert again.to_json() == report.to_json()

    def test_runtime_fields_not_serialized(self):
        report = _dummy_report(JOB, "test-dummy")
        report.from_cache = True
        report.result = object()
        assert "from_cache" not in report.to_dict()
        again = SolveReport.from_json(report.to_json())
        assert again.result is None and not again.from_cache

    def test_non_finite_values_rejected(self):
        # reports must parse under strict JSON (jq, JSON.parse): a
        # stray inf must fail loudly at serialization, not emit the
        # non-standard `Infinity` token
        report = _dummy_report(JOB, "test-dummy")
        report.search_log = [{"objective": float("inf")}]
        with pytest.raises(ValueError):
            report.to_json()
