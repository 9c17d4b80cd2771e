"""Evaluation harness: workloads, interference calibration, reporting (§6)."""

from .reporting import format_series, format_table, format_throughput_rows
from .runner import calibrated_interference
from .workloads import (
    SCALES,
    TuningScale,
    WorkloadSpec,
    batch_for_size,
    current_scale,
    default_seq_len,
    get_scale,
    gpu_count_for_size,
    mixed_workload,
    paper_workloads,
    scale_from_dict,
    scale_ref,
    scale_to_dict,
)


__all__ = [
    "SCALES",
    "TuningScale",
    "WorkloadSpec",
    "batch_for_size",
    "calibrated_interference",
    "current_scale",
    "default_seq_len",
    "format_series",
    "format_table",
    "format_throughput_rows",
    "get_scale",
    "gpu_count_for_size",
    "mixed_workload",
    "paper_workloads",
    "scale_from_dict",
    "scale_ref",
    "scale_to_dict",
]
