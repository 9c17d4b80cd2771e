"""Tests for workload specs and report formatting."""

import pytest

from repro.evaluation import (
    WorkloadSpec,
    format_series,
    format_table,
    format_throughput_rows,
    paper_workloads,
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


class TestSolveFromWorkload:
    """§6 measures one system on one workload through ``repro.api.solve``."""

    SPEC = WorkloadSpec("gpt3-1.3b", "L4", 2, 16, 2048)

    def _job(self):
        from repro.api import TuningJob

        return TuningJob.from_workload(self.SPEC, scale="smoke")

    def test_mist_report(self):
        from repro.api import solve

        report = solve(self._job(), "mist")
        assert report.found
        assert report.throughput > 0
        assert report.plan is not None
        assert report.configurations_evaluated > 0

    def test_baseline_report(self):
        from repro.api import solve

        report = solve(self._job(), "megatron")
        assert report.found
        assert report.extra["candidates_tried"] > 0

    def test_unknown_solver_rejected(self):
        from repro.api import SolverNotFoundError, solve

        with pytest.raises(SolverNotFoundError, match="alpa"):
            solve(self._job(), "alpa")

    def test_space_name_is_part_of_the_fingerprint(self):
        # Fig. 15 rebuilds its ablation space with ``with_`` rather than
        # using the named preset: same knobs, different name, different
        # cache identity
        from repro.api import TuningJob
        from repro.core import SPACE_MIST, SPACE_MIST_NO_IMBALANCE
        from repro.core.spaces import space_ref
        from repro.evaluation import SCALES, scale_ref

        def fingerprint(space):
            return TuningJob.from_workload(
                self.SPEC, space=space_ref(space),
                scale=scale_ref(SCALES["smoke"])).fingerprint()

        rebuilt = SPACE_MIST.with_(imbalance_aware=False)
        assert rebuilt.imbalance_aware \
            == SPACE_MIST_NO_IMBALANCE.imbalance_aware
        assert fingerprint(rebuilt) != fingerprint(SPACE_MIST_NO_IMBALANCE)
        assert fingerprint(rebuilt) \
            == fingerprint(SPACE_MIST.with_(imbalance_aware=False))


class TestRunner:
    def test_runner_keeps_only_calibration(self):
        from repro.evaluation import runner

        assert runner.__all__ == ["calibrated_interference"]

    def test_evaluation_imports_no_upper_layer(self):
        # repro.api imports repro.evaluation; the reverse edge would be
        # an import cycle
        import ast
        from pathlib import Path

        import repro.evaluation as evaluation

        upper = ("repro.api", "repro.campaigns", "repro.service")
        for path in Path(evaluation.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    assert not name.startswith(upper), (path.name, name)

    def test_calibration_calls_the_module_global_fit(self, monkeypatch):
        # the bench's ``costmodel.calibrate`` span wraps this name
        from repro.evaluation import runner

        calls = []
        real_fit = runner.fit_interference_model

        def spy(*args, **kwargs):
            calls.append(kwargs.get("pcie_only"))
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(runner, "fit_interference_model", spy)
        runner.calibrated_interference.cache_clear()
        try:
            model = runner.calibrated_interference(True)
        finally:
            runner.calibrated_interference.cache_clear()
        assert calls == [True]
        assert model is not None

    def test_names_removed_in_2_0_are_gone(self):
        import repro.evaluation as evaluation
        from repro.api import SolverNotFoundError, get_solver
        from repro.evaluation import runner

        with pytest.raises(SolverNotFoundError, match="uniform"):
            get_solver("uniform-heuristic")
        for module in (evaluation, runner):
            assert not hasattr(module, "BASELINE_TUNERS")


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
