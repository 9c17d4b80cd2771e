"""Bit-identity of the active-row Algorithm 1 against the dense reference.

:meth:`InterferenceModel.sweep` updates only the rows a channel combo
touches, over a ``(4, n)`` matrix that may stack several independent
batches; :meth:`InterferenceModel.predict` is its one-batch case. The
reference below is the dense formulation it replaced, kept verbatim:
every combo gathers, compresses and scatters the whole ``(k, batch)``
block. Both apply the same IEEE-754 operations to each
row in the same order, so their outputs must agree bit for bit —
``array_equal`` (NaN == NaN) plus equal sign bits — on every channel
pattern, on exact ties, on scalar and broadcast inputs, for each batch
of a stacked sweep, and through a full calibration fit.
"""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import InterferenceModel
from repro.costmodel.interference import _COMBOS, CHANNELS
from repro.evaluation.runner import fit_interference_model
from repro.execution import contention_model, corun_total_time


# ---------------------------------------------------------------------------
# the dense reference (Algorithm 1 over the full batch for every combo)
# ---------------------------------------------------------------------------

def reference_predict(self, comp, g2g, c2g, g2c) -> np.ndarray:
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
        _reference_update(x, total, combo_idx, fac)

    total += x.sum(axis=0)
    return total.reshape(shape) if shape else total[0]


def _reference_update(x: np.ndarray, total: np.ndarray,
                      combo_idx: tuple[int, ...], fac: np.ndarray) -> None:
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


# ---------------------------------------------------------------------------
# models and batches
# ---------------------------------------------------------------------------

def _missing_combo_model() -> InterferenceModel:
    """The PCIe default with the 4-way, one 3-way and one pair entry
    dropped, and one channel missing from another entry."""
    model = InterferenceModel.default(pcie_only=True)
    factors = dict(model.factors)
    c, g, h, d = CHANNELS
    del factors[frozenset(CHANNELS)]
    del factors[frozenset((c, g, h))]
    del factors[frozenset((h, d))]
    factors[frozenset((c, g))] = {c: factors[frozenset((c, g))][c]}
    return InterferenceModel(factors=factors, max_factor=model.max_factor)


MODELS = {
    "pcie": InterferenceModel.default(pcie_only=True),
    "nvlink": InterferenceModel.default(pcie_only=False),
    "no-pairs": InterferenceModel.from_pairs({}),
    "missing-combo": _missing_combo_model(),
}

#: every zero/positive pattern over the four channels
PATTERNS = list(itertools.product((False, True), repeat=4))


def _pattern_batch(seed: int, rows_per_pattern: int = 24) -> np.ndarray:
    """An (N, 4) batch covering all 16 channel patterns.

    Half the busy times come from a small grid, so exact ties (equal
    raw times, and equal scaled times when the factors are 1) are
    common; the rest are log-uniform. Idle channels are +0.0 or -0.0.
    """
    rng = np.random.default_rng(seed)
    grid = np.array([1e-3, 2e-3, 3e-3, 4e-3])
    blocks = []
    for pattern in PATTERNS:
        tied = rng.choice(grid, size=(rows_per_pattern, 4))
        spread = np.exp(rng.uniform(np.log(1e-5), np.log(1e-1),
                                    size=(rows_per_pattern, 4)))
        times = np.where(rng.random((rows_per_pattern, 4)) < 0.5,
                         tied, spread)
        idle = np.where(rng.random((rows_per_pattern, 4)) < 0.5, 0.0, -0.0)
        blocks.append(np.where(np.array(pattern), times, idle))
    batch = np.concatenate(blocks)
    return batch[rng.permutation(len(batch))]


def assert_bit_identical(actual, expected) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def assert_bit_identical_but_nan_sign(actual, expected) -> None:
    """:func:`assert_bit_identical`, except that a NaN matches a NaN of
    either sign. IEEE-754 leaves open which operand's NaN an add
    returns, and numpy's answer depends on whether an element lands in
    a SIMD block or a scalar tail (its index and the buffer's
    alignment): ``+nan + -nan`` can come out ``-nan`` at index 8 of a
    12-wide array and ``+nan`` at index 0 of a 4-wide one. So a NaN's
    sign may change when its column moves within a stacked matrix;
    every other bit may not."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    number = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[number]),
                          np.signbit(expected[number]))


def _both(model: InterferenceModel, *args):
    return model.predict(*args), reference_predict(model, *args)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestActiveRowMatchesDense:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("seed", range(4))
    def test_all_patterns_and_ties(self, name, seed):
        batch = _pattern_batch(seed)
        active = batch > 0
        assert {tuple(row) for row in active} == set(PATTERNS)
        new, ref = _both(MODELS[name], *batch.T)
        assert_bit_identical(new, ref)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equal_times_tie_on_every_channel(self, name):
        # all four channels equal: with unit factors every combo's
        # scaled times tie exactly and the overlap zeroes them all
        times = np.array([1e-3, 2.5e-3, 7e-3])
        new, ref = _both(MODELS[name], times, times, times, times)
        assert_bit_identical(new, ref)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_scalar_inputs(self, name):
        model = MODELS[name]
        for pattern in PATTERNS:
            args = [3e-3 - i * 5e-4 if on else 0.0
                    for i, on in enumerate(pattern)]
            new, ref = _both(model, *args)
            assert np.ndim(new) == 0
            assert_bit_identical(new, ref)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_broadcast_inputs(self, name):
        comp = np.linspace(0.0, 5e-3, 6).reshape(6, 1)
        g2g = np.array([[0.0, 1e-3, 2e-3, 5e-3]])
        new, ref = _both(MODELS[name], comp, g2g, 1e-3, np.float64(0.0))
        assert new.shape == (6, 4)
        assert_bit_identical(new, ref)
        new, ref = _both(MODELS[name], comp.ravel(), 2e-3, 0.0, 1e-3)
        assert_bit_identical(new, ref)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_empty_and_special_values(self, name):
        model = MODELS[name]
        empty = np.zeros(0)
        assert_bit_identical(*_both(model, empty, empty, empty, empty))
        special = np.array([np.inf, np.nan, -1e-3, 5e-324, 1e300, 2e-3])
        rolled = [np.roll(special, k) for k in range(4)]
        with np.errstate(invalid="ignore", over="ignore"):
            new, ref = _both(model, *rolled)
        assert_bit_identical(new, ref)


#: busy times with exact ties, signed zeros, infinities and NaN
SPECIAL_TIMES = (0.0, -0.0, 1e-3, 2e-3, 3e-3, 5e-324, 1e300, -1e-3,
                 np.inf, -np.inf, np.nan)


@st.composite
def segments(draw):
    """Four channel inputs of one batch: all scalars, 0-size arrays, or
    a ``(k, m)`` grid whose channels are scalars, ``(k, 1)``, ``(1, m)``
    or full."""
    kind = draw(st.sampled_from(("scalar", "empty", "grid")))
    value = st.one_of(st.sampled_from(SPECIAL_TIMES),
                      st.floats(1e-6, 1e-1))
    if kind == "scalar":
        return tuple(draw(value) for _ in range(4))
    if kind == "empty":
        return tuple(np.zeros(0) if draw(st.booleans()) else draw(value)
                     for _ in range(4))
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    channels = []
    for _ in range(4):
        shape = draw(st.sampled_from(((), (k, 1), (1, m), (k, m))))
        size = int(np.prod(shape))
        channels.append(np.array(draw(st.lists(
            value, min_size=size, max_size=size))).reshape(shape))
    return tuple(channels)


class TestStackedSweep:
    """Each batch of a stacked sweep equals the dense reference on that
    batch alone, and ``predict`` on it equals the reference exactly."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(MODELS)),
           stack=st.lists(segments(), min_size=1, max_size=5))
    def test_each_segment_matches_reference(self, name, stack):
        model = MODELS[name]
        shapes = [np.broadcast(*seg).shape for seg in stack]
        bounds = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
        x = np.empty((4, bounds[-1]))
        for seg, shape, start, stop in zip(stack, shapes, bounds, bounds[1:]):
            for row, value in zip(x, seg):
                np.copyto(row[start:stop].reshape(shape), value)
        with np.errstate(invalid="ignore", over="ignore"):
            total = model.sweep(x)
            for seg, shape, start, stop in zip(stack, shapes, bounds,
                                               bounds[1:]):
                ref = reference_predict(model, *seg)
                assert_bit_identical_but_nan_sign(
                    total[start:stop].reshape(shape), ref)
                assert_bit_identical(model.predict(*seg), ref)
        assert total.shape == (bounds[-1],)


class TestCalibrationIdentity:
    """A full Nelder-Mead refit lands on bit-equal factors either way."""

    @pytest.mark.parametrize("pcie_only", [True, False])
    def test_fitted_factors_bit_equal(self, pcie_only, monkeypatch):
        oracle = partial(corun_total_time,
                         model=contention_model(pcie_only=pcie_only))
        new = fit_interference_model(oracle, pcie_only=pcie_only,
                                     n_samples=192)
        monkeypatch.setattr(InterferenceModel, "predict", reference_predict)
        ref = fit_interference_model(oracle, pcie_only=pcie_only,
                                     n_samples=192)
        assert new.model.factors == ref.model.factors
        _, new_vec = new.model.pair_vector()
        _, ref_vec = ref.model.pair_vector()
        assert_bit_identical(new_vec, ref_vec)
        assert new.mean_abs_error == ref.mean_abs_error
        assert new.max_abs_error == ref.max_abs_error
