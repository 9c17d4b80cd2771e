"""Cost models: operator timing, communication, and interference."""

from .comm import (
    all_gather_time,
    all_reduce_time,
    host_copy_time,
    p2p_time,
    reduce_scatter_time,
)
from .interference import (
    CHANNELS,
    Channel,
    InterferenceModel,
    calibrated_interference,
)
from .opdb import OperatorDatabase, OpTimings

__all__ = [
    "CHANNELS",
    "Channel",
    "InterferenceModel",
    "OpTimings",
    "OperatorDatabase",
    "all_gather_time",
    "all_reduce_time",
    "calibrated_interference",
    "host_copy_time",
    "p2p_time",
    "reduce_scatter_time",
]
