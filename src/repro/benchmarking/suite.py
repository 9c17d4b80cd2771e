"""Helpers of the paper-figure pytest suite (``benchmarks/``).

Full-scale sweeps are expensive, so the suite runs at the
:class:`~repro.core.spaces.TuningScale` preset that the
``REPRO_BENCH_SCALE`` environment variable selects, and prints each
sweep (Figures 14/15/16) as one table row per series.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

from repro.campaigns.report import format_table
from repro.core.spaces import SCALES, TuningScale, get_scale

__all__ = ["current_scale", "format_series"]


def current_scale() -> TuningScale:
    """Preset selected by ``REPRO_BENCH_SCALE`` (default: quick)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    try:
        return get_scale(name)
    except KeyError:
        raise KeyError(
            f"REPRO_BENCH_SCALE={name.lower()!r}; options: {sorted(SCALES)}"
        ) from None


def format_series(title: str, x_label: str, series: Mapping[str, Sequence],
                  x_values: Sequence) -> str:
    """Sweep output (Figures 14/15/16): one column per x value."""
    headers = [x_label] + [str(x) for x in x_values]
    rows = []
    for name, values in series.items():
        rows.append([name] + [
            f"{v:.3g}" if isinstance(v, (int, float)) else str(v)
            for v in values
        ])
    return f"{title}\n" + format_table(headers, rows)
