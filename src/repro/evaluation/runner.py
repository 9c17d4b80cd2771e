"""Interference calibration shared by every solver and benchmark.

Every system the paper evaluates is measured the same way: tune with
:func:`repro.api.solve` (one :class:`~repro.api.SolveReport` per job)
or :func:`repro.campaigns.run_campaign` (a
:class:`~repro.campaigns.CampaignReport` per grid). What those paths
share from this module is the interference model, one per fabric type
(PCIe vs NVLink). As in the paper (§5.2.2) its factors are fitted once,
offline: :func:`refit_interference` runs the fit against the engine's
contention ground truth, ``scripts/refresh_calibration.py`` checks the
result into :mod:`repro.costmodel.calibration_table`, and
:func:`calibrated_interference` only reads that table.
"""

from __future__ import annotations

from functools import lru_cache

from repro.costmodel import InterferenceModel, fit_interference_model
from repro.costmodel.calibration_table import PAIR_VECTORS
from repro.costmodel.interference import PAIR_KEYS
from repro.execution import ContentionSpec, make_oracle

__all__ = ["calibrated_interference", "refit_interference"]


@lru_cache(maxsize=4)
def calibrated_interference(pcie_only: bool) -> InterferenceModel:
    """Algorithm 1's fitted factors for one fabric, from the table."""
    return InterferenceModel.from_pair_vector(
        PAIR_KEYS, PAIR_VECTORS["pcie" if pcie_only else "nvlink"])


def refit_interference(pcie_only: bool) -> InterferenceModel:
    """Fit Algorithm 1's factors to the engine's contention ground truth.

    The fit behind the checked-in table (needs scipy); only
    ``scripts/refresh_calibration.py`` and the tests run it.
    """
    spec = ContentionSpec.default(pcie_only=pcie_only)
    result = fit_interference_model(make_oracle(spec), pcie_only=pcie_only,
                                    n_samples=192)
    return result.model
