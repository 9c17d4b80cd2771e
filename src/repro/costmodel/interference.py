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

Algorithm 1 is row-independent, so :meth:`InterferenceModel.sweep`
runs it over a caller-filled ``(4, n)`` matrix whose columns may come
from several independent batches: the analyzer stacks all four of a
menu's segments (forward, backward, first and last microbatch) into
one sweep, each segment at the size of the axes it reads, and
:meth:`InterferenceModel.predict` is the one-segment case.

The sweep runs each ``Update`` step on the active rows only. It keeps
a ``pos = X > 0`` mask, takes the indices of the rows where every
channel of the combo is busy (the nonzeros of the mask's conjunction),
scales, peels and writes back just those, and refreshes ``pos`` for
the rows it wrote. A row that is not active is left alone, exactly as
the dense formulation leaves it; an active row goes through the same
IEEE-754 operations in the same order (multiply by the factor, a
minimum across the combo's channels, subtract, divide, accumulate), so
the result is bit-identical to running Algorithm 1 over each batch on
its own (``tests/costmodel/test_interference_oracle.py`` keeps the
dense form as its reference).

The model is deliberately *not* an ML regressor — "fewer parameters and
clearer intuition" — and its factors are fitted once, offline, from
co-run measurements (``scripts/refresh_calibration.py``); the fitted
pair vectors are checked in as :mod:`repro.costmodel.calibration_table`,
and :func:`calibrated_interference` reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .calibration_table import PAIR_VECTORS

__all__ = ["Channel", "InterferenceModel", "CHANNELS", "PAIR_KEYS",
           "calibrated_interference"]


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

#: each combo's channel names, and its key into
#: :attr:`InterferenceModel.factors`
_COMBO_NAMES: list[tuple[str, ...]] = [
    tuple(CHANNELS[i] for i in combo) for combo in _COMBOS
]
_COMBO_KEYS: list[frozenset[str]] = [frozenset(n) for n in _COMBO_NAMES]

#: the ``(pair, channel)`` key of each entry of
#: :meth:`InterferenceModel.pair_vector`, in ``CHANNELS`` order (so the
#: order does not depend on the string hash seed)
PAIR_KEYS: tuple[tuple[frozenset[str], str], ...] = tuple(
    (frozenset(CHANNELS[i] for i in pair), CHANNELS[i])
    for pair in combinations(range(4), 2)
    for i in pair
)


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


def _check_factors(table: dict[frozenset[str], dict[str, float]]) -> None:
    """Refuse any slowdown factor that is not finite and >= 1."""
    for combo, entry in table.items():
        for channel, value in entry.items():
            if not 1.0 <= value < math.inf:  # also refuses NaN
                raise ValueError(
                    f"interference factor of {channel!r} in combo "
                    f"{sorted(combo)} must be finite and >= 1, "
                    f"got {value!r}")


@dataclass
class InterferenceModel:
    """Slowdown-factor model with the Algorithm 1 batched estimator.

    ``factors[combo][channel]`` is the slowdown of ``channel`` while all
    channels in ``combo`` (a frozenset of channel names) are active.
    Higher-order combinations default to capped products of the pairwise
    factors; calibration may overwrite any entry. The execution engine's
    contention ground truth is one too
    (:func:`repro.execution.events.contention_model`), applied by
    piecewise integration instead of Algorithm 1.

    Interference can only *slow down* co-running kernels, so a model
    with a non-finite or < 1 factor is refused when it is built. The
    tuner's branch-and-bound cut rests on this: with every factor >= 1,
    ``predict(...) >= max(channel busy times) >= compute channel``, so
    a stage position's least interference-free compute time at each
    layer count floors its microbatch latency, and the cell bounds
    compose those floors through Eq. (1).
    """

    factors: dict[frozenset[str], dict[str, float]] = field(default_factory=dict)
    #: cap on combined slowdowns — contention never fully serializes
    max_factor: float = 2.6

    def __post_init__(self) -> None:
        _check_factors(self.factors)

    @classmethod
    def from_pairs(cls, pairs: dict[frozenset[str], dict[str, float]],
                   max_factor: float = 2.6) -> "InterferenceModel":
        """Build all 2/3/4-way factors from pairwise ones (capped products)."""
        _check_factors(pairs)  # before the cap can hide an inf
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
        """Slowdown of ``channel`` while the channels in ``combo`` run;
        1.0 for a combo the model has no entry for (one channel alone)."""
        entry = self.factors.get(combo)
        if entry is None:
            return 1.0
        return entry.get(channel, 1.0)

    # -- Algorithm 1: batched interference estimation -------------------------

    def sweep(self, x: np.ndarray) -> np.ndarray:
        """Algorithm 1 over a caller-filled ``(4, n)`` matrix.

        Row ``k`` of ``x`` holds the busy times of slot ``CHANNELS[k]``
        (``comp``, ``g2g``, ``c2g`` = H2D, ``g2c`` = D2H) for ``n``
        independent columns; the result is each column's total latency,
        shape ``(n,)``. ``x`` is consumed: each ``Update`` step writes its
        residues back into it. A column's bits do not depend on the other
        columns (except a NaN's sign, which numpy picks by SIMD lane), so
        callers may stack independent batches side by side and split the
        result.
        """
        steps = [(combo_idx, [entry.get(name, 1.0) for name in names])
                 for combo_idx, names, key
                 in zip(_COMBOS, _COMBO_NAMES, _COMBO_KEYS)
                 if (entry := self.factors.get(key)) is not None]
        total = np.zeros(x.shape[1], dtype=float)
        rows, masks = list(x), list(x > 0)  # per-channel views

        # One Update step of Algorithm 1 per combo, on its active rows only.
        for combo_idx, facs in steps:
            active = masks[combo_idx[0]] & masks[combo_idx[1]]
            for i in combo_idx[2:]:
                active &= masks[i]
            idx = active.nonzero()[0]
            if not idx.size:
                continue
            scaled = [rows[i][idx] * f for i, f in zip(combo_idx, facs)]
            overlap = scaled[0]
            for s in scaled[1:]:
                overlap = np.minimum(overlap, s)
            for i, f, s in zip(combo_idx, facs, scaled):
                rest = (s - overlap) / f
                rows[i][idx] = rest
                masks[i][idx] = rest > 0
            total[idx] += overlap

        total += x.sum(axis=0)
        return total

    def predict(self, comp, g2g, c2g, g2c) -> np.ndarray:
        """Total latency for co-running channel busy-times (batched).

        The arguments are Algorithm 1's four slots in ``CHANNELS``
        order: compute, NCCL (GPU<->GPU), H2D (``c2g``) and D2H
        (``g2c``); this is the ``I(...)`` of Eq. (5)/(6). Inputs
        broadcast to a common shape; the return value has that shape (a
        numpy scalar for scalar inputs).
        """
        inputs = (comp, g2g, c2g, g2c)
        shape = np.broadcast(*inputs).shape
        x = np.empty((4,) + shape)
        for k, a in enumerate(inputs):
            x[k] = a
        total = self.sweep(x.reshape(4, -1))
        return total.reshape(shape) if shape else total[0]

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
        values = [self.factors.get(names, {}).get(ch, 1.0)
                  for names, ch in PAIR_KEYS]
        return list(PAIR_KEYS), np.array(values)

    @classmethod
    def from_pair_vector(cls, keys, values) -> "InterferenceModel":
        """Inverse of :meth:`pair_vector`. Values below 1 are clamped to
        1, so an optimizer's trial point always builds a model."""
        pairs: dict[frozenset[str], dict[str, float]] = {}
        for (names, ch), value in zip(keys, values):
            pairs.setdefault(names, {})[ch] = float(max(1.0, value))
        return cls.from_pairs(pairs)


@lru_cache(maxsize=4)
def calibrated_interference(pcie_only: bool) -> InterferenceModel:
    """Algorithm 1's fitted factors for one fabric, from the table."""
    return InterferenceModel.from_pair_vector(
        PAIR_KEYS, PAIR_VECTORS["pcie" if pcie_only else "nvlink"])
