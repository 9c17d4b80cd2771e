"""The offline refit module: what it holds and how the bench traces it."""

import pytest


class TestRunner:
    def test_runner_holds_only_the_refit(self):
        from repro.evaluation import runner

        assert runner.__all__ == ["CalibrationResult",
                                  "fit_interference_model",
                                  "refit_interference",
                                  "sample_corun_workloads"]

    def test_evaluation_package_reexports_nothing(self):
        import repro.evaluation as evaluation

        public = {name for name in vars(evaluation)
                  if not name.startswith("_")}
        assert public <= {"runner"}

    def test_evaluation_imports_no_upper_layer(self):
        # only the refit script and the tests import repro.evaluation;
        # an edge to a layer above would load that layer with it
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
        from repro.costmodel import calibrated_interference

        calls = self._spy_on_fit(monkeypatch)
        calibrated_interference.cache_clear()
        try:
            models = [calibrated_interference(pcie_only)
                      for pcie_only in (True, False)]
        finally:
            calibrated_interference.cache_clear()
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
