"""Tests for the interference model (Algorithm 1) and communication costs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MistTuner
from repro.costmodel import (
    CHANNELS,
    InterferenceModel,
    all_gather_time,
    all_reduce_time,
    host_copy_time,
    p2p_time,
    reduce_scatter_time,
)
from repro.execution import corun_total_time
from repro.hardware import make_cluster
from repro.models import get_model
from repro.symbolic import evaluate


class TestCommFormulas:
    def test_allreduce_ring_volume(self):
        t = all_reduce_time(1e9, 4, 100e9)
        assert evaluate(t, {}) == pytest.approx(2 * 3 / 4 * 1e9 / 100e9)

    def test_allreduce_single_rank_free(self):
        assert evaluate(all_reduce_time(1e9, 1, 100e9, 1e-5), {}) == 0.0

    def test_allgather_is_half_allreduce(self):
        ar = evaluate(all_reduce_time(1e9, 8, 100e9), {})
        ag = evaluate(all_gather_time(1e9, 8, 100e9), {})
        assert ag == pytest.approx(ar / 2)

    def test_reduce_scatter_equals_allgather(self):
        assert evaluate(reduce_scatter_time(2e9, 8, 50e9), {}) == evaluate(
            all_gather_time(2e9, 8, 50e9), {}
        )

    def test_latency_term_scales_with_ranks(self):
        t4 = evaluate(all_reduce_time(0, 4, 1e9, 1e-5), {})
        t8 = evaluate(all_reduce_time(0, 8, 1e9, 1e-5), {})
        assert t8 > t4

    def test_p2p_and_host_copy(self):
        assert evaluate(p2p_time(1e9, 10e9, 1e-5), {}) == pytest.approx(0.10001)
        assert evaluate(host_copy_time(13e9, 13e9), {}) == pytest.approx(1.0)

    def test_symbolic_group_size(self):
        from repro.symbolic import Sym

        n = Sym("n", integer=True)
        t = all_reduce_time(1e9, n, 100e9)
        assert evaluate(t, {"n": 1}) == 0.0
        assert evaluate(t, {"n": 4}) > 0.0


class TestInterferenceModel:
    @pytest.fixture(scope="class")
    def model(self):
        return InterferenceModel.default(pcie_only=True)

    def test_single_channel_unaffected(self, model):
        assert model.predict(5e-3, 0.0, 0.0, 0.0) == pytest.approx(5e-3)
        assert model.predict(0.0, 2e-3, 0.0, 0.0) == pytest.approx(2e-3)

    def test_two_channels_between_max_and_sum(self, model):
        comp, g2g = 5e-3, 3e-3
        total = model.predict(comp, g2g, 0.0, 0.0)
        assert max(comp, g2g) < total < comp + g2g

    def test_perfect_overlap_when_factors_one(self):
        model = InterferenceModel.from_pairs({})
        total = model.predict(5e-3, 3e-3, 1e-3, 0.0)
        assert total == pytest.approx(5e-3)

    def test_pcie_contention_worse_than_nvlink(self):
        pcie = InterferenceModel.default(pcie_only=True)
        nvlink = InterferenceModel.default(pcie_only=False)
        times = (0.0, 4e-3, 4e-3, 0.0)
        assert pcie.predict(*times) > nvlink.predict(*times)

    def test_batched_matches_scalar(self, model):
        rng = np.random.default_rng(7)
        times = rng.uniform(0, 5e-3, size=(64, 4))
        batched = model.predict(times[:, 0], times[:, 1], times[:, 2],
                                times[:, 3])
        for i in range(64):
            scalar = model.predict(*times[i])
            assert batched[i] == pytest.approx(scalar)

    def test_broadcasting(self, model):
        comp = np.linspace(1e-3, 5e-3, 10)
        out = model.predict(comp, 1e-3, 0.0, 0.0)
        assert out.shape == (10,)
        assert np.all(np.diff(out) > 0)

    def test_four_way_concurrency(self, model):
        total = model.predict(4e-3, 3e-3, 2e-3, 1e-3)
        assert 4e-3 < total < 10e-3

    def test_pair_vector_roundtrip(self, model):
        keys, values = model.pair_vector()
        rebuilt = InterferenceModel.from_pair_vector(keys, values)
        sample = (3e-3, 2e-3, 1e-3, 0.5e-3)
        assert rebuilt.predict(*sample) == pytest.approx(
            model.predict(*sample)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0, max_value=1.0, allow_nan=False),
            min_size=4, max_size=4,
        )
    )
    def test_monotone_bounds_property(self, times):
        """Prediction is always within [max(times), factor_cap * sum]."""
        model = InterferenceModel.default(pcie_only=True)
        total = model.predict(*times)
        assert total >= max(times) - 1e-12
        assert total <= model.max_factor * sum(times) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(min_value=1e-4, max_value=1.0),
        extra=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_adding_work_never_reduces_total(self, base, extra):
        model = InterferenceModel.default(pcie_only=False)
        t0 = model.predict(base, base / 2, 0.0, 0.0)
        t1 = model.predict(base + extra, base / 2, 0.0, 0.0)
        assert t1 >= t0 - 1e-12

    def test_factor_reads_one_without_an_entry(self):
        comp, g2g, h2d, d2h = CHANNELS
        model = InterferenceModel(factors={
            frozenset((comp, g2g)): {comp: 1.2, g2g: 1.3}})
        assert model.factor(frozenset((comp, g2g)), g2g) == 1.3
        assert model.factor(frozenset((comp,)), comp) == 1.0
        assert model.factor(frozenset((h2d, d2h)), h2d) == 1.0
        # an empty model integrates co-runs as fully overlapped
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.0, 3.0, size=(64, 4))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        np.testing.assert_allclose(
            corun_total_time(rows, InterferenceModel()), rows.max(axis=1),
            rtol=1e-12)


#: factors no co-run can produce: a speed-up, and two non-numbers
UNPHYSICAL = [0.9, float("nan"), float("inf")]


class TestPhysicalFactors:
    """Every factor is finite and >= 1 from the moment a model exists:
    the tuner's branch-and-bound cut relies on it."""

    @pytest.mark.parametrize("value", UNPHYSICAL, ids=str)
    def test_constructor_rejects(self, value):
        comp, g2g = CHANNELS[:2]
        with pytest.raises(ValueError,
                           match=r"'g2g' in combo \['comp', 'g2g'\]"):
            InterferenceModel(factors={
                frozenset((comp, g2g)): {comp: 1.1, g2g: value}})

    @pytest.mark.parametrize("value", UNPHYSICAL, ids=str)
    def test_from_pairs_rejects(self, value):
        comp, _, h2d, d2h = CHANNELS
        with pytest.raises(ValueError,
                           match=r"'c2g' in combo \['c2g', 'g2c'\]"):
            InterferenceModel.from_pairs(
                {frozenset((h2d, d2h)): {h2d: value, d2h: 1.2},
                 frozenset((comp, h2d)): {comp: 1.05}})

    @pytest.mark.parametrize("value", UNPHYSICAL, ids=str)
    def test_tuner_cannot_be_built_with_one(self, value):
        comp, g2g = CHANNELS[:2]
        with pytest.raises(ValueError, match="must be finite and >= 1"):
            MistTuner(get_model("gpt3-1.3b"), make_cluster("L4", 1, 2),
                      seq_len=2048,
                      interference=InterferenceModel.from_pairs(
                          {frozenset((comp, g2g)): {comp: value}}))

    def test_from_pair_vector_clamps_fits_to_one(self):
        keys, values = InterferenceModel.default(pcie_only=True).pair_vector()
        values[::2] = 0.5  # an optimizer's trial point below 1
        model = InterferenceModel.from_pair_vector(keys, values)
        rebuilt = dict(zip(keys, model.pair_vector()[1]))
        for i, key in enumerate(keys):
            assert rebuilt[key] == (1.0 if i % 2 == 0 else values[i])
