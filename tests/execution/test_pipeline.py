"""Tests for the 1F1B pipeline simulator and contention integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import InterferenceModel
from repro.execution import (
    contention_model,
    corun_total_time,
    one_f_one_b_order,
    simulate_pipeline,
)


class TestOneFOneBOrder:
    def test_single_stage_alternates(self):
        order = one_f_one_b_order(1, 3, 0)
        assert order == [("F", 0), ("B", 0), ("F", 1), ("B", 1),
                         ("F", 2), ("B", 2)]

    def test_first_stage_warmup_equals_depth(self):
        order = one_f_one_b_order(4, 8, 0)
        warmup = [op for op in order[:4]]
        assert warmup == [("F", 0), ("F", 1), ("F", 2), ("F", 3)]

    def test_last_stage_no_warmup_beyond_one(self):
        order = one_f_one_b_order(4, 8, 3)
        assert order[0] == ("F", 0)
        assert order[1] == ("B", 0)

    def test_all_microbatches_covered(self):
        for stage in range(4):
            order = one_f_one_b_order(4, 6, stage)
            fwds = sorted(k for kind, k in order if kind == "F")
            bwds = sorted(k for kind, k in order if kind == "B")
            assert fwds == list(range(6))
            assert bwds == list(range(6))

    def test_fewer_microbatches_than_stages(self):
        order = one_f_one_b_order(8, 2, 0)
        assert len(order) == 4

    def test_invalid_stage_raises(self):
        with pytest.raises(ValueError):
            one_f_one_b_order(4, 4, 7)


class TestSimulatePipeline:
    def test_single_stage_serial_time(self):
        result = simulate_pipeline([[1.0, 1.0]], [[2.0, 2.0]])
        assert result.total_time == pytest.approx(6.0)

    def test_perfectly_balanced_pipeline_formula(self):
        """S stages, equal fwd f and bwd b: T = (G-1)(f+b) + S(f+b)."""
        s_num, g = 4, 8
        f, b = 1.0, 2.0
        result = simulate_pipeline(
            [[f] * g for _ in range(s_num)],
            [[b] * g for _ in range(s_num)],
        )
        expected = (g - 1) * (f + b) + s_num * (f + b)
        assert result.total_time == pytest.approx(expected)

    def test_bottleneck_stage_dominates(self):
        slow = simulate_pipeline(
            [[1.0] * 8, [3.0] * 8], [[1.0] * 8, [1.0] * 8]
        )
        fast = simulate_pipeline(
            [[1.0] * 8, [1.0] * 8], [[1.0] * 8, [1.0] * 8]
        )
        assert slow.total_time > fast.total_time

    def test_first_microbatch_delay_propagates(self):
        base = [[1.0] * 4, [1.0] * 4]
        slow_first = [[5.0, 1.0, 1.0, 1.0], [1.0] * 4]
        r0 = simulate_pipeline(base, [[1.0] * 4, [1.0] * 4])
        r1 = simulate_pipeline(slow_first, [[1.0] * 4, [1.0] * 4])
        assert r1.total_time >= r0.total_time + 3.9

    def test_dependencies_respected(self):
        result = simulate_pipeline([[1.0] * 3, [1.0] * 3],
                                   [[1.0] * 3, [1.0] * 3])
        by_key = {(r.kind, r.stage, r.microbatch): r for r in result.timeline}
        for k in range(3):
            assert by_key[("F", 1, k)].start >= by_key[("F", 0, k)].end
            assert by_key[("B", 0, k)].start >= by_key[("B", 1, k)].end

    def test_stage_never_runs_two_phases_at_once(self):
        result = simulate_pipeline([[1.0] * 5, [1.5] * 5],
                                   [[2.0] * 5, [1.0] * 5])
        for stage in range(2):
            phases = sorted((r for r in result.timeline if r.stage == stage),
                            key=lambda r: r.start)
            for a, b in zip(phases, phases[1:]):
                assert b.start >= a.end - 1e-12

    def test_bubble_fraction_positive_in_deep_pipeline(self):
        result = simulate_pipeline([[1.0] * 2 for _ in range(4)],
                                   [[1.0] * 2 for _ in range(4)])
        assert result.bubble_fraction(0) > 0.2

    @pytest.mark.parametrize("stages", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("microbatches", [1, 2, 3, 4, 8, 16])
    def test_uniform_phases_match_the_1f1b_closed_form(self, stages,
                                                       microbatches):
        """Narayanan et al. (Megatron-LM): p stages, m microbatches,
        uniform f and b, free p2p: T = (m+p-1)(f+b), and the first stage
        idles (p-1)/(m+p-1) of it."""
        f, b = 0.75, 1.5
        result = simulate_pipeline(
            [[f] * microbatches for _ in range(stages)],
            [[b] * microbatches for _ in range(stages)], p2p_delay=0.0)
        span = microbatches + stages - 1
        assert result.total_time == span * (f + b)
        assert result.bubble_fraction(0) == pytest.approx(
            (stages - 1) / span, rel=0, abs=1e-12)

    def test_p2p_delay_increases_total(self):
        fast = simulate_pipeline([[1.0] * 4, [1.0] * 4],
                                 [[1.0] * 4, [1.0] * 4], p2p_delay=0.0)
        slow = simulate_pipeline([[1.0] * 4, [1.0] * 4],
                                 [[1.0] * 4, [1.0] * 4], p2p_delay=0.2)
        assert slow.total_time > fast.total_time

    def test_ragged_arrays_rejected(self):
        with pytest.raises(ValueError):
            simulate_pipeline([[1.0, 1.0], [1.0]], [[1.0, 1.0], [1.0, 1.0]])

    def test_no_stages_rejected(self):
        with pytest.raises(ValueError, match="no stages"):
            simulate_pipeline([], [])

    def test_missing_backward_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            simulate_pipeline([[1.0], [1.0]], [[1.0]])

    @settings(max_examples=40, deadline=None)
    @given(
        s_num=st.integers(min_value=1, max_value=5),
        g=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_total_at_least_critical_path(self, s_num, g, seed):
        rng = np.random.default_rng(seed)
        fwd = rng.uniform(0.5, 2.0, size=(s_num, g)).tolist()
        bwd = rng.uniform(0.5, 2.0, size=(s_num, g)).tolist()
        result = simulate_pipeline(fwd, bwd)
        per_stage = [sum(fwd[i]) + sum(bwd[i]) for i in range(s_num)]
        assert result.total_time >= max(per_stage) - 1e-9
        assert result.total_time <= sum(per_stage) + 1e-9


class TestContentionIntegrator:
    def test_single_channel_exact(self):
        model = contention_model(pcie_only=True)
        assert corun_total_time([5.0, 0, 0, 0], model) == pytest.approx(5.0)

    def test_no_contention_equals_max(self):
        model = InterferenceModel()
        assert corun_total_time([3.0, 2.0, 1.0, 0.5], model) == \
            pytest.approx(3.0)

    def test_contention_slows_down(self):
        model = contention_model(pcie_only=True)
        total = corun_total_time([3.0, 2.0, 0, 0], model)
        assert 3.0 < total < 5.0

    def test_batched_matches_scalar(self):
        model = contention_model(pcie_only=False)
        rng = np.random.default_rng(3)
        batch = rng.uniform(0, 4.0, size=(32, 4))
        totals = corun_total_time(batch, model)
        for i in range(32):
            assert totals[i] == pytest.approx(
                float(corun_total_time(batch[i], model))
            )

    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.floats(min_value=0, max_value=10),
                          min_size=4, max_size=4))
    def test_bounds_property(self, times):
        model = contention_model(pcie_only=True)
        total = float(corun_total_time(times, model))
        assert total >= max(times) - 1e-9
        assert total <= model.max_factor * sum(times) + 1e-9
