"""Discrete-event execution engine — the reproduction's GPU cluster.

Simulates training iterations for concrete plans: 4-channel contention,
overlap-centric scheduling (per executing system), exact 1F1B
dependencies, and memory tracking with OOM. Every solver executes its
candidates the same way: :meth:`ExecutionEngine.execute` runs them in
order, and :func:`fastest` keeps the first best measured one.
"""

from .engine import ExecutionEngine, Fastest, IterationResult, fastest
from .events import ContentionSpec, corun_total_time, make_oracle
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
    PhaseComponents,
    phase_wall_time,
)
from .timeline import render_timeline, timeline_summary

__all__ = [
    "ALLOCATOR_SLACK",
    "ContentionSpec",
    "ExecutionEngine",
    "Fastest",
    "IterationResult",
    "MIST_IMPL_OVERHEAD",
    "OOMError",
    "OverlapCapability",
    "PhaseComponents",
    "PhaseRecord",
    "PipelineResult",
    "SCHEDULES",
    "StageMemoryReport",
    "corun_total_time",
    "fastest",
    "make_oracle",
    "one_f_one_b_order",
    "phase_wall_time",
    "render_timeline",
    "simulate_pipeline",
    "timeline_summary",
    "track_stage_memory",
]
