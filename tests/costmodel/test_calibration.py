"""Tests for interference-model calibration against the engine oracle."""

from functools import partial

import numpy as np
import pytest

from repro.evaluation.runner import fit_interference_model, sample_corun_workloads
from repro.execution import contention_model, corun_total_time

ORACLE = partial(corun_total_time, model=contention_model(pcie_only=True))


class TestWorkloadSampling:
    def test_shape_and_nonnegativity(self):
        workloads = sample_corun_workloads(64, seed=1)
        assert workloads.shape == (64, 4)
        assert (workloads >= 0).all()

    def test_all_concurrency_levels_present(self):
        workloads = sample_corun_workloads(256, seed=2)
        active_counts = (workloads > 0).sum(axis=1)
        assert set(active_counts) == {1, 2, 3, 4}

    def test_deterministic_by_seed(self):
        a = sample_corun_workloads(32, seed=5)
        b = sample_corun_workloads(32, seed=5)
        np.testing.assert_array_equal(a, b)


class TestFitting:
    @pytest.fixture(scope="class")
    def result(self):
        return fit_interference_model(ORACLE, pcie_only=True,
                                      n_samples=128, seed=3)

    def test_fit_converges(self, result):
        assert result.mean_abs_error < 0.05
        assert result.n_samples == 128

    def test_fitted_model_predicts_oracle(self, result):
        fresh = sample_corun_workloads(64, seed=99)
        measured = ORACLE(fresh)
        predicted = result.model.predict(fresh[:, 0], fresh[:, 1],
                                         fresh[:, 2], fresh[:, 3])
        rel = np.abs(predicted - measured) / np.maximum(measured, 1e-9)
        assert rel.mean() < 0.08  # held-out generalization

    def test_oracle_shape_validated(self):
        with pytest.raises(ValueError):
            fit_interference_model(lambda w: np.zeros((3, 3)),
                                   pcie_only=True, n_samples=8)

    def test_factors_stay_above_one(self, result):
        for entry in result.model.factors.values():
            for value in entry.values():
                assert value >= 1.0
