"""Interference model for co-running kernels (paper Algorithm 1).

When computation, NCCL (GPU<->GPU), H2D (CPU->GPU) and D2H (GPU->CPU)
kernels run concurrently they slow each other down. The paper models
this with *slowdown factors* per combination of co-running kernel
types, applied by a batched estimation procedure (Algorithm 1):

1. stack the four per-channel busy times into ``X``;
2. for concurrency levels ``n = 4, 3, 2`` and every channel combination
   of that size, scale the remaining times of fully-busy combinations
   by their slowdown factors, peel off the shortest scaled time as a
   fully-overlapped window, and return the residue to ``X``;
3. finally add whatever runs alone.

The model is deliberately *not* an ML regressor — "fewer parameters and
clearer intuition" — and its factors are fitted from co-run
measurements by :mod:`repro.costmodel.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

__all__ = ["Channel", "InterferenceModel", "CHANNELS"]


class Channel:
    """The four kernel channels distinguished by the model."""

    COMPUTE = "comp"
    NCCL = "g2g"
    H2D = "c2g"
    D2H = "g2c"


CHANNELS: tuple[str, ...] = (Channel.COMPUTE, Channel.NCCL, Channel.H2D,
                             Channel.D2H)

#: all combinations of >= 2 channels, largest first (Algorithm 1 order)
_COMBOS: list[tuple[int, ...]] = [
    combo
    for n in (4, 3, 2)
    for combo in combinations(range(4), n)
]


def _default_pairs(pcie_only: bool) -> dict[frozenset[str], dict[str, float]]:
    """Pairwise slowdown factors before calibration.

    On PCIe-only machines (L4), NCCL traffic itself rides PCIe, so it
    contends heavily with host copies; on NVLink machines they use
    different fabrics. Compute slows mildly next to any communication
    (the paper measures 7.7% on an attention linear layer co-running
    with all-reduce).
    """
    c, g, h, d = CHANNELS
    if pcie_only:
        return {
            frozenset((c, g)): {c: 1.06, g: 1.12},
            frozenset((c, h)): {c: 1.03, h: 1.10},
            frozenset((c, d)): {c: 1.03, d: 1.10},
            frozenset((g, h)): {g: 1.55, h: 1.55},
            frozenset((g, d)): {g: 1.55, d: 1.55},
            frozenset((h, d)): {h: 1.15, d: 1.15},
        }
    return {
        frozenset((c, g)): {c: 1.08, g: 1.10},
        frozenset((c, h)): {c: 1.02, h: 1.06},
        frozenset((c, d)): {c: 1.02, d: 1.06},
        frozenset((g, h)): {g: 1.04, h: 1.08},
        frozenset((g, d)): {g: 1.04, d: 1.08},
        frozenset((h, d)): {h: 1.10, d: 1.10},
    }


@dataclass
class InterferenceModel:
    """Slowdown-factor model with the Algorithm 1 batched estimator.

    ``factors[combo][channel]`` is the slowdown of ``channel`` while all
    channels in ``combo`` (a frozenset of channel names) are active.
    Higher-order combinations default to capped products of the pairwise
    factors; calibration may overwrite any entry.
    """

    factors: dict[frozenset[str], dict[str, float]] = field(default_factory=dict)
    #: cap on combined slowdowns — contention never fully serializes
    max_factor: float = 2.6

    @classmethod
    def from_pairs(cls, pairs: dict[frozenset[str], dict[str, float]],
                   max_factor: float = 2.6) -> "InterferenceModel":
        """Build all 2/3/4-way factors from pairwise ones (capped products)."""
        factors: dict[frozenset[str], dict[str, float]] = {}
        for combo_idx in _COMBOS:
            # CHANNELS order, not set order: the products must not
            # depend on the string hash seed
            channels = [CHANNELS[i] for i in combo_idx]
            entry: dict[str, float] = {}
            for ch in channels:
                product = 1.0
                for other in channels:
                    if other == ch:
                        continue
                    pair = pairs.get(frozenset((ch, other)), {})
                    product *= pair.get(ch, 1.0)
                entry[ch] = min(product, max_factor)
            factors[frozenset(channels)] = entry
        return cls(factors=factors, max_factor=max_factor)

    @classmethod
    def default(cls, *, pcie_only: bool) -> "InterferenceModel":
        return cls.from_pairs(_default_pairs(pcie_only))

    def factor(self, combo: frozenset[str], channel: str) -> float:
        entry = self.factors.get(combo)
        if entry is None:
            return 1.0
        return entry.get(channel, 1.0)

    # -- Algorithm 1: batched interference estimation -------------------------

    def predict(self, comp, g2g, c2g, g2c) -> np.ndarray:
        """Total latency for co-running channel busy-times (batched).

        Inputs broadcast to a common shape; the return value has that
        shape. This is the ``I(c, nccl, d2h, h2d)`` of Eq. (5)/(6).
        """
        arrays = np.broadcast_arrays(
            np.asarray(comp, dtype=float), np.asarray(g2g, dtype=float),
            np.asarray(c2g, dtype=float), np.asarray(g2c, dtype=float),
        )
        shape = arrays[0].shape
        x = np.stack([a.reshape(-1).copy() for a in arrays])  # (4, batch)
        total = np.zeros(x.shape[1], dtype=float)

        for combo_idx in _COMBOS:
            names = frozenset(CHANNELS[i] for i in combo_idx)
            entry = self.factors.get(names)
            if entry is None:
                continue
            fac = np.array([entry.get(CHANNELS[i], 1.0) for i in combo_idx])
            self._update(x, total, combo_idx, fac)

        total += x.sum(axis=0)
        return total.reshape(shape) if shape else total[0]

    @staticmethod
    def _update(x: np.ndarray, total: np.ndarray, combo_idx: tuple[int, ...],
                fac: np.ndarray) -> None:
        """One ``Update`` step of Algorithm 1 (vectorized over the batch)."""
        rows = x[list(combo_idx)]
        ids = (rows > 0).all(axis=0)
        if not ids.any():
            return
        scaled = rows[:, ids] * fac[:, None]
        overlap = scaled.min(axis=0)
        rows[:, ids] = (scaled - overlap[None, :]) / fac[:, None]
        x[list(combo_idx)] = rows
        total[ids] += overlap

    def predict_scalar(self, comp: float = 0.0, g2g: float = 0.0,
                       c2g: float = 0.0, g2c: float = 0.0) -> float:
        return float(self.predict(comp, g2g, c2g, g2c))

    def min_factor(self) -> float:
        """Smallest slowdown factor across all combinations.

        Interference can only *slow down* co-running kernels, so every
        factor is >= 1 for any physically meaningful model (calibration
        clamps its fits accordingly). The pruned tuner checks this
        before enabling its branch-and-bound cut: when all factors are
        >= 1, ``predict(...) >= max(channel busy times) >= compute
        channel``, which makes a compute-only, interference-free time a
        valid optimistic lower bound on any stage's microbatch latency.
        """
        values = [factor
                  for entry in self.factors.values()
                  for factor in entry.values()]
        return min(values, default=1.0)

    def fingerprint(self) -> tuple:
        """Canonical hashable identity of this model's parameters.

        Used to scope memoized tuning subproblems: two searches may
        share memo entries only when their interference models are
        parameter-identical.
        """
        items = tuple(sorted(
            (tuple(sorted(combo)),
             tuple(sorted((ch, float(v)) for ch, v in entry.items())))
            for combo, entry in self.factors.items()
        ))
        return (items, float(self.max_factor))

    # -- (de)serialization for calibration ------------------------------------

    def pair_vector(self) -> tuple[list[tuple[frozenset[str], str]], np.ndarray]:
        """Flatten pairwise factors into a parameter vector for fitting."""
        keys = []
        values = []
        for combo_idx in combinations(range(4), 2):
            names = frozenset(CHANNELS[i] for i in combo_idx)
            entry = self.factors.get(names, {})
            for i in combo_idx:
                ch = CHANNELS[i]
                keys.append((names, ch))
                values.append(entry.get(ch, 1.0))
        return keys, np.array(values)

    @classmethod
    def from_pair_vector(cls, keys, values,
                         max_factor: float = 2.6) -> "InterferenceModel":
        pairs: dict[frozenset[str], dict[str, float]] = {}
        for (names, ch), value in zip(keys, values):
            pairs.setdefault(names, {})[ch] = float(max(1.0, value))
        return cls.from_pairs(pairs, max_factor=max_factor)
