"""Channel contention ground truth for the execution engine.

The engine models each GPU as four concurrent hardware channels —
compute, NCCL, H2D, D2H. When several channels are busy at once they
slow each other down. The engine resolves this with *piecewise
integration*: at every instant, each active channel progresses at
``1 / slowdown(channel, active_set)``, where the slowdown is the
product of pairwise contention coefficients; the integrator advances to
the next channel-completion boundary and repeats.

This plays the role the real hardware plays in the paper: the
analyzer's Algorithm-1 interference model (a different, cheaper
computation with per-combination fitted factors) is *calibrated
against* this integrator offline (``scripts/refresh_calibration.py``),
just as the paper fits its factors to benchmarked co-runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.costmodel.interference import CHANNELS

__all__ = ["ContentionSpec", "corun_total_time", "make_oracle"]


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


@dataclass(frozen=True)
class ContentionSpec:
    """Pairwise contention coefficients with product composition."""

    pair_factors: dict[frozenset[str], dict[str, float]] = field(
        default_factory=dict
    )
    max_factor: float = 3.0
    #: ``table[mask, ch]`` = slowdown of channel ``ch`` while the
    #: channels in bitmask ``mask`` are active; built once per spec
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = np.ones((16, 4))
        for mask in range(16):
            active = frozenset(CHANNELS[i] for i in range(4) if mask >> i & 1)
            for i in range(4):
                if mask >> i & 1:
                    table[mask, i] = self.slowdown(CHANNELS[i], active)
        object.__setattr__(self, "table", table)

    @classmethod
    def default(cls, *, pcie_only: bool) -> "ContentionSpec":
        return cls(pair_factors=_default_pairs(pcie_only))

    def slowdown(self, channel: str, active: frozenset[str]) -> float:
        """Slowdown of ``channel`` given the set of active channels."""
        factor = 1.0
        # CHANNELS order, not set order: the product must not depend on
        # the string hash seed
        for other in CHANNELS:
            if other == channel or other not in active:
                continue
            pair = self.pair_factors.get(frozenset((channel, other)), {})
            factor *= pair.get(channel, 1.0)
        return min(factor, self.max_factor)


def corun_total_time(times, spec: ContentionSpec) -> np.ndarray:
    """Completion time of co-running channels, integrated piece by piece.

    ``times`` is ``(..., 4)`` of busy seconds per channel, in the order
    of :data:`repro.costmodel.interference.CHANNELS`. Returns the total
    wall time for each row.
    """
    arr = np.asarray(times, dtype=float)
    squeeze = arr.ndim == 1
    work = arr.reshape(-1, 4).copy()
    total = np.zeros(work.shape[0])
    table = spec.table

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


def make_oracle(spec: ContentionSpec):
    """Adapt the integrator to the calibration oracle signature."""

    def oracle(workloads: np.ndarray) -> np.ndarray:
        return corun_total_time(workloads, spec)

    return oracle
