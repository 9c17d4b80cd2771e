"""Interference calibration shared by every solver and benchmark.

Every system the paper evaluates is measured the same way: tune with
:func:`repro.api.solve` (one :class:`~repro.api.SolveReport` per job)
or :func:`repro.campaigns.run_campaign` (a
:class:`~repro.campaigns.CampaignReport` per grid). What those paths
share from this module is the interference model: it is calibrated
once per fabric type (PCIe vs NVLink) against the engine's contention
ground truth and cached for the process lifetime.
"""

from __future__ import annotations

from functools import lru_cache

from repro.costmodel import InterferenceModel, fit_interference_model
from repro.execution import ContentionSpec, make_oracle

__all__ = ["calibrated_interference"]


@lru_cache(maxsize=4)
def calibrated_interference(pcie_only: bool) -> InterferenceModel:
    """Fit Algorithm 1's factors to the engine's contention ground truth."""
    spec = ContentionSpec.default(pcie_only=pcie_only)
    result = fit_interference_model(make_oracle(spec), pcie_only=pcie_only,
                                    n_samples=192)
    return result.model
