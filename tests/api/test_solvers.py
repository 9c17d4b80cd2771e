"""End-to-end solver tests: Mist + baselines through the unified API.

Includes the acceptance tests for the parallel (S, G) search: fanning
the outer loop across workers must return the *identical* best plan as
the serial path, on more than one workload.
"""

import pytest

from repro.api import SolveReport, TuningJob, get_solver, solve
from repro.core import MistTuner, SPACE_MIST
from repro.evaluation import calibrated_interference
from repro.hardware import make_cluster
from repro.models import get_model

#: two distinct workloads for the parallel-equivalence acceptance test
WORKLOADS = [
    ("gpt3-1.3b", 1, 2, 16, 2048),
    ("gpt3-2.7b", 1, 4, 32, 1024),
]


def _make_tuner(model_spec, nodes, gpus, seq_len):
    model = get_model(model_spec)
    cluster = make_cluster("L4", nodes, gpus)
    return MistTuner(
        model, cluster, seq_len=seq_len, space=SPACE_MIST,
        interference=calibrated_interference(True),
        max_gacc_candidates=2,
    )


class TestParallelSearch:
    @pytest.mark.parametrize(
        "model_spec,nodes,gpus,batch,seq_len", WORKLOADS)
    def test_parallel_matches_serial_exhaustive(self, model_spec, nodes,
                                                gpus, batch, seq_len):
        tuner = _make_tuner(model_spec, nodes, gpus, seq_len)
        serial = tuner.search(batch, parallelism=1, prune=False)
        parallel = tuner.search(batch, parallelism=4, prune=False)
        assert serial.found and parallel.found
        assert parallel.best_plan == serial.best_plan
        assert parallel.top_plans == serial.top_plans
        assert parallel.search_log == serial.search_log
        assert parallel.configurations_evaluated \
            == serial.configurations_evaluated

    @pytest.mark.parametrize(
        "model_spec,nodes,gpus,batch,seq_len", WORKLOADS)
    def test_parallel_matches_serial_pruned(self, model_spec, nodes, gpus,
                                            batch, seq_len):
        # under pruning, which cells get bound-skipped may vary with
        # worker timing — the returned plans never do
        tuner = _make_tuner(model_spec, nodes, gpus, seq_len)
        serial = tuner.search(batch, parallelism=1)
        parallel = tuner.search(batch, parallelism=4)
        assert serial.found and parallel.found
        assert parallel.best_plan == serial.best_plan
        assert parallel.top_plans == serial.top_plans
        assert parallel.predicted_iteration_time \
            == serial.predicted_iteration_time

    def test_parallelism_zero_means_all_cores(self):
        tuner = _make_tuner("gpt3-1.3b", 1, 2, 2048)
        result = tuner.search(16, parallelism=0)
        assert result.found

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
                        scale="smoke", parallelism=2)
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
        spec = report.job.workload
        report.plan.validate(spec.model, spec.cluster)

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
