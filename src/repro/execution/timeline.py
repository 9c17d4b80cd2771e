"""ASCII timeline rendering for simulated pipelines (Figures 2/3/4/10).

Turns a :class:`~repro.execution.pipeline.PipelineResult` into a
character Gantt chart: one row per stage, microbatch indices (mod 10)
for forward phases, lowercase letters/digits in brackets for backward
phases, dots for bubbles.
"""

from __future__ import annotations

from .pipeline import PipelineResult

__all__ = ["render_timeline", "timeline_summary"]


def render_timeline(result: PipelineResult, *, width: int = 100) -> str:
    """Render the executed schedule as an ASCII Gantt chart."""
    total = result.total_time
    if total <= 0:
        return "(empty timeline)"
    num_stages = result.num_stages
    rows = [["."] * width for _ in range(num_stages)]

    for record in result.timeline:
        begin = int(record.start / total * width)
        finish = max(begin + 1, int(record.end / total * width))
        finish = min(finish, width)
        if record.kind == "F":
            glyph = str(record.microbatch % 10)
        else:
            glyph = chr(ord("a") + record.microbatch % 26)
        for pos in range(begin, finish):
            rows[record.stage][pos] = glyph

    header = (
        f"iteration = {total * 1e3:.1f} ms   "
        "(digits: forward mb, letters: backward mb, dots: idle)"
    )
    lines = [header]
    for stage in range(num_stages):
        bubble = result.bubble_fraction(stage) * 100
        lines.append(
            f"stage {stage:2d} |{''.join(rows[stage])}| idle {bubble:4.1f}%"
        )
    return "\n".join(lines)


def timeline_summary(result: PipelineResult) -> dict:
    """Aggregate statistics of an executed schedule."""
    return {
        "total_time": result.total_time,
        "stage_busy": list(result.stage_busy),
        "bubble_fractions": [
            result.bubble_fraction(i) for i in range(result.num_stages)
        ],
        "max_bubble_fraction": max(
            result.bubble_fraction(i) for i in range(result.num_stages)
        ),
        "num_phases": result.num_phases,
    }
