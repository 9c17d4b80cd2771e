"""Evaluation harness: workloads, runner, reporting (paper Section 6)."""

from .reporting import format_series, format_table, format_throughput_rows
from .runner import (
    Comparison,
    SystemOutcome,
    calibrated_interference,
    compare_systems,
    run_baseline,
    run_mist,
    run_via_service,
)
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
    "Comparison",
    "SCALES",
    "SystemOutcome",
    "TuningScale",
    "WorkloadSpec",
    "batch_for_size",
    "calibrated_interference",
    "compare_systems",
    "current_scale",
    "default_seq_len",
    "format_series",
    "format_table",
    "format_throughput_rows",
    "get_scale",
    "gpu_count_for_size",
    "mixed_workload",
    "paper_workloads",
    "run_baseline",
    "run_mist",
    "run_via_service",
    "scale_from_dict",
    "scale_ref",
    "scale_to_dict",
]
