"""The offline fit of Algorithm 1's interference factors (§5.2.2).

"A data-driven approach is used to fit the model, where different shapes
and combinations of concurrent kernels are sampled and benchmarked, and
the resulting runtime data is used to train the slowdown factors"
(paper Section 5.2.2).

Here the "benchmark" is any oracle callable — in this reproduction the
discrete-event execution engine's contention resolver
(:func:`repro.execution.events.corun_total_time`) plays the role of the
hardware. The fit optimizes the 12 pairwise slowdown factors so that
Algorithm 1's predictions match the oracle on sampled co-run workloads.

As in the paper the fit runs once, offline: :func:`refit_interference`
fits one fabric, ``scripts/refresh_calibration.py`` checks the result
into :mod:`repro.costmodel.calibration_table`, and
:func:`repro.costmodel.calibrated_interference` only reads that table.
Only that script and the tests import this module, and only the fit
needs scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.costmodel import InterferenceModel
from repro.execution import ContentionSpec, make_oracle

__all__ = ["CalibrationResult", "fit_interference_model",
           "refit_interference", "sample_corun_workloads"]

Oracle = Callable[[np.ndarray], np.ndarray]
"""Maps an (N, 4) array of channel busy-times to N measured totals."""


@dataclass
class CalibrationResult:
    model: InterferenceModel
    mean_abs_error: float
    max_abs_error: float
    n_samples: int


def sample_corun_workloads(n_samples: int = 256, *, seed: int = 0,
                           scale: float = 10e-3) -> np.ndarray:
    """Sample busy-time combinations covering 1- to 4-way concurrency.

    Times are log-uniform in ``[scale/30, scale]`` with random channel
    subsets active, mimicking the shape diversity of a profiling sweep.
    """
    rng = np.random.default_rng(seed)
    times = np.exp(rng.uniform(np.log(scale / 30), np.log(scale),
                               size=(n_samples, 4)))
    # Randomly silence channels so all concurrency levels appear.
    n_active = rng.integers(1, 5, size=n_samples)
    for i, k in enumerate(n_active):
        off = rng.choice(4, size=4 - k, replace=False)
        times[i, off] = 0.0
    return times


def fit_interference_model(oracle: Oracle, *, pcie_only: bool,
                           n_samples: int = 256, seed: int = 0,
                           scale: float = 10e-3) -> CalibrationResult:
    """Fit pairwise slowdown factors against ``oracle`` measurements."""
    # imported here, so importing this module needs no scipy
    from scipy import optimize

    workloads = sample_corun_workloads(n_samples, seed=seed, scale=scale)
    measured = np.asarray(oracle(workloads), dtype=float)
    if measured.shape != (n_samples,):
        raise ValueError("oracle must return one total time per workload")

    seed_model = InterferenceModel.default(pcie_only=pcie_only)
    keys, x0 = seed_model.pair_vector()

    def objective(params: np.ndarray) -> float:
        model = InterferenceModel.from_pair_vector(keys, params)
        predicted = model.predict(workloads[:, 0], workloads[:, 1],
                                  workloads[:, 2], workloads[:, 3])
        rel = (predicted - measured) / np.maximum(measured, 1e-9)
        return float(np.mean(rel**2))

    result = optimize.minimize(
        objective, x0, method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": 1e-4, "fatol": 1e-10},
    )
    fitted = InterferenceModel.from_pair_vector(keys, result.x)
    predicted = fitted.predict(workloads[:, 0], workloads[:, 1],
                               workloads[:, 2], workloads[:, 3])
    rel_err = np.abs(predicted - measured) / np.maximum(measured, 1e-9)
    return CalibrationResult(
        model=fitted,
        mean_abs_error=float(rel_err.mean()),
        max_abs_error=float(rel_err.max()),
        n_samples=n_samples,
    )


def refit_interference(pcie_only: bool) -> InterferenceModel:
    """Fit Algorithm 1's factors to the engine's contention ground truth.

    The fit behind the checked-in table (needs scipy).
    """
    spec = ContentionSpec.default(pcie_only=pcie_only)
    # through the module global, which the benchmark's span wraps
    result = fit_interference_model(make_oracle(spec), pcie_only=pcie_only,
                                    n_samples=192)
    return result.model
