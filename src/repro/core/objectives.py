"""Pipeline objective functions (paper Eq. 1/2).

Given per-stage stable microbatch times ``t_i`` and first/last
microbatch deltas ``d_i``, the iteration time of a 1F1B pipeline with
``G`` microbatches is

    T = (G - 1) * max_i t_i            # steady-state, bottleneck stage
      + sum_i t_i                      # pipeline fill + drain
      + max_i (d_i - sum_{j<i} t_j)    # exposed first/last-microbatch extras

The third term credits deltas that hide inside the pipeline ramp: a
late stage's first-microbatch overhead overlaps with earlier stages'
work (Figure 10), so only the part exceeding the accumulated ramp is
exposed. The imbalance-unaware variant used by the baselines (and the
Fig. 13/15 ablations) is provided alongside.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

__all__ = [
    "pipeline_iteration_time",
    "pipeline_iteration_time_rows",
    "pipeline_time_uniform",
    "throughput",
]


def pipeline_iteration_time(t: npt.ArrayLike, d: npt.ArrayLike,
                            gacc: int) -> float:
    """Imbalance-aware iteration time (Eq. 1). ``t``/``d`` per stage."""
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)
    if t.shape != d.shape or t.ndim != 1:
        raise ValueError("t and d must be 1-D arrays of equal length")
    if gacc < 1:
        raise ValueError("gacc must be >= 1")
    prefix = np.concatenate(([0.0], np.cumsum(t)[:-1]))
    exposed = np.max(d - prefix)
    return float((gacc - 1) * t.max() + t.sum() + max(exposed, 0.0))


def pipeline_iteration_time_rows(t: np.ndarray, d: np.ndarray,
                                 gacc: int) -> np.ndarray:
    """Eq. (1) for each row of C-contiguous ``(rows, stages)`` arrays.

    The same IEEE-754 operations in the same order as
    :func:`pipeline_iteration_time` applies to one row (row-wise ``sum``
    reduces each contiguous row as a 1-D ``sum`` does), so each entry is
    bit-equal to that function on the row.
    """
    prefix = np.zeros_like(t)
    np.cumsum(t[:, :-1], axis=1, out=prefix[:, 1:])
    exposed = (d - prefix).max(axis=1)
    # Python's max(exposed, 0.0): 0.0 only when it is strictly larger
    clamped = np.where(0.0 > exposed, 0.0, exposed)
    return (gacc - 1) * t.max(axis=1) + t.sum(axis=1) + clamped


def pipeline_time_uniform(t: npt.ArrayLike, gacc: int) -> float:
    """Imbalance-unaware variant: every microbatch costs ``t_i``.

    This is the model used by planners that ignore first/last microbatch
    extras entirely (d = 0).
    """
    t = np.asarray(t, dtype=float)
    return float((gacc - 1) * t.max() + t.sum())


def throughput(global_batch: int, iteration_time: float) -> float:
    """Training throughput in samples/second (the paper's metric)."""
    if iteration_time <= 0:
        raise ValueError("iteration time must be positive")
    return global_batch / iteration_time
