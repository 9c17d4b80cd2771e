"""Channel contention ground truth for the execution engine.

The engine models each GPU as four concurrent hardware channels —
compute, NCCL, H2D, D2H. When several channels are busy at once they
slow each other down. The engine resolves this with *piecewise
integration*: at every instant, each active channel progresses at
``1 / slowdown(channel, active_set)``; the integrator advances to the
next channel-completion boundary and repeats.

The slowdowns are an :class:`~repro.costmodel.InterferenceModel` built
from pairwise contention coefficients (:func:`contention_model`), the
same capped-product composition Algorithm 1's factors start from; only
the coefficients and the way they are applied differ. This plays the
role the real hardware plays in the paper: Algorithm 1 (a cheaper
computation with per-combination fitted factors) is *calibrated
against* this integrator offline (``scripts/refresh_calibration.py``),
just as the paper fits its factors to benchmarked co-runs.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.interference import CHANNELS, InterferenceModel

__all__ = ["contention_model", "corun_total_time"]


def _default_pairs(pcie_only: bool) -> dict[frozenset[str], dict[str, float]]:
    """Ground-truth pairwise contention (deliberately NOT identical to the
    analyzer's seed factors — calibration must close the gap)."""
    c, g, h, d = CHANNELS
    if pcie_only:
        return {
            frozenset((c, g)): {c: 1.09, g: 1.16},
            frozenset((c, h)): {c: 1.04, h: 1.13},
            frozenset((c, d)): {c: 1.04, d: 1.12},
            frozenset((g, h)): {g: 1.62, h: 1.70},
            frozenset((g, d)): {g: 1.58, d: 1.66},
            frozenset((h, d)): {h: 1.18, d: 1.22},
        }
    return {
        frozenset((c, g)): {c: 1.10, g: 1.12},
        frozenset((c, h)): {c: 1.03, h: 1.08},
        frozenset((c, d)): {c: 1.03, d: 1.07},
        frozenset((g, h)): {g: 1.05, h: 1.10},
        frozenset((g, d)): {g: 1.05, d: 1.09},
        frozenset((h, d)): {h: 1.12, d: 1.14},
    }


def contention_model(*, pcie_only: bool) -> InterferenceModel:
    """The engine's ground-truth contention for one fabric."""
    return InterferenceModel.from_pairs(_default_pairs(pcie_only),
                                        max_factor=3.0)


def corun_total_time(times, model: InterferenceModel) -> np.ndarray:
    """Completion time of co-running channels, integrated piece by piece.

    ``times`` is ``(..., 4)`` of busy seconds per channel, in the order
    of :data:`repro.costmodel.interference.CHANNELS`; ``model`` gives
    each channel's slowdown under each set of active channels. Returns
    the total wall time for each row.
    """
    arr = np.asarray(times, dtype=float)
    squeeze = arr.ndim == 1
    work = arr.reshape(-1, 4).copy()
    total = np.zeros(work.shape[0])
    # table[mask, i]: slowdown of CHANNELS[i] while the channels in
    # bitmask ``mask`` are active
    table = np.ones((16, 4))
    for mask in range(16):
        active = frozenset(CHANNELS[i] for i in range(4) if mask >> i & 1)
        for i in range(4):
            if mask >> i & 1:
                table[mask, i] = model.factor(active, CHANNELS[i])

    # At most 4 channels finish, so at most 4 integration segments.
    for _ in range(4):
        active = work > 1e-15
        if not active.any():
            break
        masks = (active * (1 << np.arange(4))).sum(axis=1)
        slows = table[masks]  # (n, 4)
        with np.errstate(divide="ignore", invalid="ignore"):
            finish = np.where(active, work * slows, np.inf)
        dt = finish.min(axis=1)
        dt = np.where(np.isfinite(dt), dt, 0.0)
        rates = np.where(active, 1.0 / slows, 0.0)
        work = np.maximum(work - dt[:, None] * rates, 0.0)
        total += dt

    return total[0] if squeeze else total.reshape(arr.shape[:-1])
