"""Tests for the Table-4 scaling rule and report formatting."""

import pytest

from repro.evaluation import (
    batch_for_size,
    default_seq_len,
    format_series,
    format_table,
    format_throughput_rows,
)
from repro.evaluation.workloads import gpu_count_for_size


class TestWorkloads:
    def test_paper_grid_scaling_rule(self):
        sizes = ("1.3b", "2.7b", "6.7b", "13b", "22b")
        assert [gpu_count_for_size(s) for s in sizes] == [2, 4, 8, 16, 32]
        assert [batch_for_size(s) for s in sizes] \
            == [32, 64, 128, 256, 512]
        assert gpu_count_for_size("22B") == 32   # case-insensitive

    def test_seq_len_per_gpu_type(self):
        assert default_seq_len("L4") == 2048
        assert default_seq_len("A100-40GB") == 4096

    def test_gpu_count_lookup(self):
        assert gpu_count_for_size("6.7b") == 8
        with pytest.raises(KeyError):
            gpu_count_for_size("100b")
        with pytest.raises(KeyError):
            batch_for_size("100b")


class TestSolveFromJob:
    """§6 measures one system on one workload through ``repro.api.solve``."""

    def _job(self):
        from repro.api import TuningJob

        return TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16,
                         scale="smoke")

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
        from repro.core import SPACE_MIST, SPACE_MIST_NO_IMBALANCE
        from repro.core.spaces import space_ref
        from repro.evaluation import SCALES, scale_ref

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


class TestRunner:
    def test_runner_keeps_only_calibration(self):
        from repro.evaluation import runner

        assert runner.__all__ == ["calibrated_interference",
                                  "refit_interference"]

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

    @staticmethod
    def _spy_on_fit(monkeypatch) -> list:
        from repro.evaluation import runner

        calls = []
        real_fit = runner.fit_interference_model

        def spy(*args, **kwargs):
            calls.append(kwargs.get("pcie_only"))
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(runner, "fit_interference_model", spy)
        return calls

    def test_calibration_reads_the_table_without_fitting(self, monkeypatch):
        from repro.evaluation import runner

        calls = self._spy_on_fit(monkeypatch)
        runner.calibrated_interference.cache_clear()
        try:
            models = [runner.calibrated_interference(pcie_only)
                      for pcie_only in (True, False)]
        finally:
            runner.calibrated_interference.cache_clear()
        assert calls == []
        assert models[0].factors != models[1].factors

    def test_refit_calls_the_module_global_fit(self, monkeypatch):
        # the bench's ``costmodel.calibrate`` span wraps this name
        from repro.evaluation import runner

        calls = self._spy_on_fit(monkeypatch)
        model = runner.refit_interference(False)
        assert calls == [False]
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
