"""End-to-end solver tests: Mist + baselines through the unified API."""

import pytest

from repro.api import SolveReport, TuningJob, get_solver, solve
from repro.core import MistTuner, SPACE_MIST
from repro.costmodel import calibrated_interference
from repro.hardware import make_cluster
from repro.models import get_model


def _make_tuner(model_spec, nodes, gpus, seq_len):
    model = get_model(model_spec)
    cluster = make_cluster("L4", nodes, gpus)
    return MistTuner(
        model, cluster, seq_len=seq_len, space=SPACE_MIST,
        interference=calibrated_interference(True),
        max_gacc_candidates=2,
    )


class TestSearch:
    def test_evaluation_count_returned_directly(self):
        # the count comes back with the search result, not through
        # mutable tuner state
        tuner = _make_tuner("gpt3-1.3b", 1, 2, 2048)
        result = tuner.search(16, prune=False)
        assert result.configurations_evaluated > 0
        assert result.stats.configs_evaluated \
            == result.configurations_evaluated
        assert not hasattr(tuner, "_last_intra")


class TestMistSolver:
    @pytest.fixture(scope="class")
    def report(self):
        job = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16,
                        scale="smoke")
        return solve(job, "mist")

    def test_plan_found_and_measured(self, report):
        assert report.found
        assert report.throughput > 0
        assert report.predicted["throughput"] > 0
        assert report.configurations_evaluated > 0
        assert report.result is not None  # live execution attached

    def test_search_log_carried_over(self, report):
        assert report.search_log
        assert all("num_stages" in entry for entry in report.search_log)

    def test_report_round_trips_byte_identical(self, report):
        text = report.to_json()
        again = SolveReport.from_json(text)
        assert again.to_json() == text
        assert again.plan == report.plan
        assert again.top_plans == report.top_plans

    def test_plan_valid_for_workload(self, report):
        report.plan.validate(report.job.resolved_model(),
                             report.job.resolved_cluster())

    def test_infeasible_cells_stay_strict_json(self):
        # 6.7B on 2 L4s in the parallelism-only space: (S, G) cells are
        # infeasible, logged as None — the JSON must parse strictly
        import json
        job = TuningJob(model="gpt3-6.7b", num_gpus=2, global_batch=8,
                        scale="smoke", space="3d")
        report = solve(job, "mist")
        assert any(entry["objective"] is None
                   for entry in report.search_log)
        def _no_constants(_):
            raise AssertionError("non-standard JSON constant emitted")
        parsed = json.loads(report.to_json(), parse_constant=_no_constants)
        assert parsed["solver"] == "mist"


class TestInterferenceNone:
    @pytest.mark.parametrize("gpu", ["L4", "A100-40GB"])
    def test_none_prices_the_uncalibrated_default(self, gpu):
        # "none" does not switch Algorithm 1 off: the analyzer prices it
        # with the fabric's built-in pairwise factors, not the
        # calibrated table
        from repro.costmodel import InterferenceModel

        job = TuningJob(model="gpt3-1.3b", gpu=gpu, num_gpus=2,
                        global_batch=16, scale="smoke", interference="none")
        tuner = get_solver("mist").make_tuner(job)
        pcie_only = not job.resolved_cluster().gpu.has_nvlink
        assert (tuner.analyzers[""].interference.fingerprint()
                == InterferenceModel.default(pcie_only=pcie_only)
                .fingerprint())
        assert (tuner.analyzers[""].interference.fingerprint()
                != calibrated_interference(pcie_only).fingerprint())


class TestBaselineSolvers:
    JOB = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16,
                    scale="smoke")

    @pytest.mark.parametrize("name", ["megatron", "uniform"])
    def test_solver_finds_plan(self, name):
        report = get_solver(name).solve(self.JOB)
        assert report.solver == name
        assert report.found
        assert report.throughput > 0
        assert report.extra["candidates_tried"] > 0
        assert SolveReport.from_json(report.to_json()).to_json() \
            == report.to_json()


class TestSolveInWorker:
    """The one worker-process body both process pools submit."""

    def test_round_trips_through_the_shared_cache(self, tmp_path):
        import os

        from repro.api import PlanCache, TuningJob, register_solver
        from repro.api.solvers import solve_in_worker

        calls = []

        @register_solver("worker-body-stub", overwrite=True)
        class _Stub:  # noqa: F841 — registered for its side effect
            def solve(self, job):
                calls.append(job.fingerprint())
                return SolveReport(solver="worker-body-stub", job=job,
                                   measured={"throughput": 3.0,
                                             "iteration_time": 0.1})

        job = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2,
                        global_batch=8, scale="smoke", interference="none")
        pid, data, from_cache = solve_in_worker(
            "worker-body-stub", job.to_dict(), str(tmp_path))
        assert pid == os.getpid()
        assert from_cache is False
        report = SolveReport.from_dict(data)
        assert report.job == job
        assert report.throughput == 3.0
        # the store landed in the directory the parent passed in
        assert PlanCache(tmp_path).load(job, "worker-body-stub") is not None
        _, again, from_cache = solve_in_worker(
            "worker-body-stub", job.to_dict(), str(tmp_path))
        assert from_cache is True
        assert again == data
        assert calls == [job.fingerprint()]


class TestSolveFromJob:
    """§6 measures one system on one workload through ``repro.api.solve``."""

    def _job(self):
        return TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16,
                         scale="smoke")

    def test_mist_report(self):
        report = solve(self._job(), "mist")
        assert report.found
        assert report.throughput > 0
        assert report.plan is not None
        assert report.configurations_evaluated > 0

    def test_baseline_report(self):
        report = solve(self._job(), "megatron")
        assert report.found
        assert report.extra["candidates_tried"] > 0

    def test_unknown_solver_rejected(self):
        from repro.api import SolverNotFoundError

        with pytest.raises(SolverNotFoundError, match="alpa"):
            solve(self._job(), "alpa")

    def test_space_name_is_part_of_the_fingerprint(self):
        # Fig. 15 rebuilds its ablation space with ``with_`` rather than
        # using the named preset: same knobs, different name, different
        # cache identity
        from repro.core import SPACE_MIST_NO_IMBALANCE
        from repro.core.spaces import SCALES, scale_ref, space_ref

        def fingerprint(space):
            return self._job().with_(
                space=space_ref(space),
                scale=scale_ref(SCALES["smoke"])).fingerprint()

        rebuilt = SPACE_MIST.with_(imbalance_aware=False)
        assert rebuilt.imbalance_aware \
            == SPACE_MIST_NO_IMBALANCE.imbalance_aware
        assert fingerprint(rebuilt) != fingerprint(SPACE_MIST_NO_IMBALANCE)
        assert fingerprint(rebuilt) \
            == fingerprint(SPACE_MIST.with_(imbalance_aware=False))
