"""Cost models: operator timing, communication, and interference."""

from .calibration import (
    CalibrationResult,
    fit_interference_model,
    sample_corun_workloads,
)
from .comm import (
    all_gather_time,
    all_reduce_time,
    host_copy_time,
    p2p_time,
    reduce_scatter_time,
)
from .interference import CHANNELS, Channel, InterferenceModel
from .opdb import OperatorDatabase, OpTimings

__all__ = [
    "CHANNELS",
    "CalibrationResult",
    "Channel",
    "InterferenceModel",
    "OpTimings",
    "OperatorDatabase",
    "all_gather_time",
    "all_reduce_time",
    "fit_interference_model",
    "host_copy_time",
    "p2p_time",
    "reduce_scatter_time",
]
