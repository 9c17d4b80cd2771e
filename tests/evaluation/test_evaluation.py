"""Tests for workload specs, the runner, and report formatting."""

import pytest

from repro.evaluation import (
    SCALES,
    WorkloadSpec,
    format_series,
    format_table,
    format_throughput_rows,
    paper_workloads,
    run_baseline,
    run_mist,
)
from repro.evaluation.workloads import gpu_count_for_size


class TestWorkloads:
    def test_paper_grid_scaling_rule(self):
        specs = paper_workloads("L4")
        assert len(specs) == 5
        by_size = {s.model_spec: s for s in specs}
        assert by_size["gpt3-1.3b"].num_gpus == 2
        assert by_size["gpt3-22b"].num_gpus == 32
        assert by_size["gpt3-22b"].global_batch == 512

    def test_seq_len_per_gpu_type(self):
        assert paper_workloads("L4")[0].seq_len == 2048
        assert paper_workloads("A100-40GB")[0].seq_len == 4096

    def test_cluster_shape(self):
        spec = WorkloadSpec("gpt3-13b", "L4", 16, 256, 2048)
        cluster = spec.cluster
        assert cluster.total_gpus == 16
        assert cluster.gpus_per_node == 8
        assert cluster.num_nodes == 2

    def test_gpu_count_lookup(self):
        assert gpu_count_for_size("6.7b") == 8
        with pytest.raises(KeyError):
            gpu_count_for_size("100b")

    def test_workload_name_unique_per_config(self):
        a = WorkloadSpec("gpt3-1.3b", "L4", 2, 32, 2048)
        b = WorkloadSpec("gpt3-1.3b", "L4", 2, 32, 2048, flash=False)
        assert a.name != b.name


class TestMixedWorkloads:
    MIXED = {"groups": [
        {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
         "gpus_per_node": 2},
        {"name": "l4", "gpu": "L4", "num_nodes": 1, "gpus_per_node": 2},
    ]}

    def test_mixed_workload_derives_shape(self):
        from repro.evaluation.workloads import mixed_workload
        from repro.hardware import HeterogeneousCluster

        spec = mixed_workload(self.MIXED, "gpt3-1.3b", 16)
        assert spec.num_gpus == 4
        assert isinstance(spec.cluster, HeterogeneousCluster)
        assert "2xA100-40GB+2xL4" in spec.name

    def test_mixed_workload_to_job(self):
        from repro.api import TuningJob
        from repro.evaluation.workloads import mixed_workload

        spec = mixed_workload(self.MIXED, "gpt3-1.3b", 16)
        job = TuningJob.from_workload(spec, scale="smoke")
        assert job.cluster == spec.cluster_dict
        assert job.num_gpus == 4

    def test_plain_workloads_have_no_cluster_dict(self):
        spec = paper_workloads("L4")[0]
        assert spec.cluster_dict is None


class TestRunner:
    SPEC = WorkloadSpec("gpt3-1.3b", "L4", 2, 16, 2048)

    def test_run_mist_outcome(self):
        outcome = run_mist(self.SPEC, scale=SCALES["smoke"])
        assert outcome.found
        assert outcome.throughput > 0
        assert outcome.plan is not None
        assert "configurations_evaluated" in outcome.extra

    def test_run_baseline_outcome(self):
        outcome = run_baseline(self.SPEC, "megatron")
        assert outcome.found
        assert outcome.extra["candidates_tried"] > 0

    def test_unknown_baseline_rejected(self):
        with pytest.raises(KeyError):
            run_baseline(self.SPEC, "alpa")

    def test_names_removed_in_2_0_are_gone(self):
        import repro.evaluation as evaluation
        from repro.evaluation import runner

        with pytest.raises(KeyError, match="uniform"):
            run_baseline(self.SPEC, "uniform-heuristic")
        for module in (evaluation, runner):
            assert not hasattr(module, "BASELINE_TUNERS")


class TestComparison:
    def _comparison(self):
        from repro.evaluation.runner import Comparison, SystemOutcome

        def outcome(name, throughput):
            return SystemOutcome(system=name, plan=None, result=None,
                                 tuning_time_seconds=0.0,
                                 measured={"throughput": throughput})

        spec = WorkloadSpec("gpt3-1.3b", "L4", 2, 16, 2048)
        return Comparison(workload=spec, outcomes={
            "megatron": outcome("megatron", 2.0),
            "mist": outcome("mist", 3.0),
        })

    def test_speedup(self):
        assert self._comparison().speedup("mist") == pytest.approx(1.5)

    def test_missing_reference_is_a_clear_valueerror(self):
        with pytest.raises(ValueError) as err:
            self._comparison().speedup("mist", reference="deepspeed")
        message = str(err.value)
        assert "deepspeed" in message
        assert "megatron" in message and "mist" in message

    def test_missing_system_is_a_clear_valueerror(self):
        with pytest.raises(ValueError, match="available"):
            self._comparison().speedup("alpa")


class TestCompareSystemsViaCampaign:
    def test_inline_comparison_over_stub_solvers(self):
        from repro.api import SolveReport, register_solver
        from repro.evaluation import SCALES
        from repro.evaluation.runner import compare_systems

        @register_solver("eval-a", overwrite=True)
        class EvalA:
            def solve(self, job):
                return SolveReport(solver="eval-a", job=job,
                                   measured={"throughput": 2.0,
                                             "iteration_time": 0.1})

        @register_solver("eval-b", overwrite=True)
        class EvalB:
            def solve(self, job):
                return SolveReport(solver="eval-b", job=job,
                                   measured={"throughput": 5.0,
                                             "iteration_time": 0.1})

        spec = WorkloadSpec("gpt3-1.3b", "L4", 2, 16, 2048)
        comparison = compare_systems(spec, systems=("eval-a", "eval-b"),
                                     scale=SCALES["smoke"])
        assert comparison.workload is spec
        assert comparison.outcomes["eval-a"].throughput == 2.0
        assert comparison.speedup("eval-b", reference="eval-a") \
            == pytest.approx(2.5)

    def test_failed_system_raises_with_detail(self):
        from repro.api import register_solver
        from repro.evaluation import SCALES
        from repro.evaluation.runner import compare_systems

        @register_solver("eval-boom", overwrite=True)
        class EvalBoom:
            def solve(self, job):
                raise RuntimeError("boom")

        spec = WorkloadSpec("gpt3-1.3b", "L4", 2, 16, 2048)
        with pytest.raises(RuntimeError, match="boom"):
            compare_systems(spec, systems=("eval-boom",),
                            scale=SCALES["smoke"])


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "long header"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_throughput_rows_normalization(self):
        text = format_throughput_rows(
            "T", {"w1": {"megatron": 2.0, "mist": 3.0}}, "megatron"
        )
        assert "1.50x" in text
        assert "1.00x" in text

    def test_throughput_rows_oom_marker(self):
        text = format_throughput_rows(
            "T", {"w1": {"megatron": 2.0, "mist": 0.0}}, "megatron"
        )
        assert "OOM" in text

    def test_format_series(self):
        text = format_series("S", "x", {"m": [1, 2, 3]}, [10, 20, 30])
        assert "10" in text and "m" in text
