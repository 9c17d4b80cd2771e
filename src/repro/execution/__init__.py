"""Discrete-event execution engine — the reproduction's GPU cluster.

Simulates training iterations for concrete plans: 4-channel contention,
overlap-centric scheduling (per executing system), exact 1F1B
dependencies, and memory tracking with OOM. Every solver executes its
candidates the same way: :meth:`ExecutionEngine.execute` runs them in
order, and :func:`fastest` keeps the first best measured one.
"""

from .engine import ExecutionEngine, Fastest, IterationResult, fastest
from .events import contention_model, corun_total_time
from .memory_tracker import (
    ALLOCATOR_SLACK,
    OOMError,
    StageMemoryReport,
    track_stage_memory,
)
from .pipeline import (
    PhaseRecord,
    PipelineResult,
    one_f_one_b_order,
    simulate_pipeline,
)
from .schedule import (
    MIST_IMPL_OVERHEAD,
    SCHEDULES,
    OverlapCapability,
)
from .timeline import render_timeline

__all__ = [
    "ALLOCATOR_SLACK",
    "ExecutionEngine",
    "Fastest",
    "IterationResult",
    "MIST_IMPL_OVERHEAD",
    "OOMError",
    "OverlapCapability",
    "PhaseRecord",
    "PipelineResult",
    "SCHEDULES",
    "StageMemoryReport",
    "contention_model",
    "corun_total_time",
    "fastest",
    "one_f_one_b_order",
    "render_timeline",
    "simulate_pipeline",
    "track_stage_memory",
]
