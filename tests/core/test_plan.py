"""Tests for plan dataclasses, validation, and objectives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PlanValidationError,
    StageConfig,
    TrainingPlan,
    pipeline_iteration_time,
    pipeline_time_uniform,
    throughput,
    uniform_plan,
    zero_flags,
)
from repro.hardware import make_cluster
from repro.models import get_model


class TestZeroFlags:
    def test_levels_cumulative(self):
        assert zero_flags(0) == (0, 0, 0)
        assert zero_flags(1) == (1, 0, 0)
        assert zero_flags(2) == (1, 1, 0)
        assert zero_flags(3) == (1, 1, 1)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            zero_flags(4)


class TestStageConfig:
    def test_valid(self):
        cfg = StageConfig(layers=8, microbatch=2, dp=2, tp=2, zero=2,
                          ckpt=4, oo=0.5)
        assert cfg.gpus == 4
        assert cfg.samples_per_microbatch == 4

    def test_ckpt_bounds(self):
        with pytest.raises(PlanValidationError):
            StageConfig(layers=4, microbatch=1, dp=1, tp=1, ckpt=5)

    def test_ratio_bounds(self):
        with pytest.raises(PlanValidationError):
            StageConfig(layers=4, microbatch=1, dp=1, tp=1, ao=1.5)

    def test_describe_mentions_offloads(self):
        cfg = StageConfig(layers=4, microbatch=1, dp=1, tp=1, ao=0.25)
        assert "AO=0.25" in cfg.describe()


class TestTrainingPlanValidation:
    @pytest.fixture
    def model(self):
        return get_model("gpt3-1.3b")  # 24 layers

    @pytest.fixture
    def cluster(self):
        return make_cluster("L4", 1, 4)

    def test_valid_plan(self, model, cluster):
        plan = uniform_plan(model, cluster, global_batch=8, gacc=2,
                            num_stages=2, dp=2, tp=1)
        plan.validate(model, cluster)
        assert plan.total_gpus == 4
        assert plan.total_layers == 24

    def test_layer_mismatch(self, model, cluster):
        plan = TrainingPlan(
            global_batch=8, gacc=2,
            stages=(StageConfig(layers=10, microbatch=2, dp=2, tp=1),
                    StageConfig(layers=10, microbatch=2, dp=2, tp=1)),
        )
        with pytest.raises(PlanValidationError, match="layers"):
            plan.validate(model, cluster)

    def test_gpu_mismatch(self, model, cluster):
        plan = TrainingPlan(
            global_batch=8, gacc=2,
            stages=(StageConfig(layers=24, microbatch=2, dp=2, tp=1),),
        )
        with pytest.raises(PlanValidationError, match="GPUs"):
            plan.validate(model, cluster)

    def test_wave_mismatch(self, model, cluster):
        plan = TrainingPlan(
            global_batch=8, gacc=2,
            stages=(StageConfig(layers=12, microbatch=1, dp=2, tp=1),
                    StageConfig(layers=12, microbatch=2, dp=2, tp=1)),
        )
        with pytest.raises(PlanValidationError, match="dp\\*b"):
            plan.validate(model, cluster)

    def test_tp_exceeding_node(self, model):
        tiny = make_cluster("L4", 2, 2)
        plan = TrainingPlan(
            global_batch=8, gacc=2,
            stages=(StageConfig(layers=24, microbatch=4, dp=1, tp=4),),
        )
        with pytest.raises(PlanValidationError, match="node"):
            plan.validate(model, tiny)

    def test_inflight_1f1b(self, model, cluster):
        plan = uniform_plan(model, cluster, global_batch=16, gacc=4,
                            num_stages=4, dp=1, tp=1)
        assert plan.inflight(0) == 4
        assert plan.inflight(3) == 1


class TestObjectives:
    def test_eq1_balanced_no_delta(self):
        t = [1.0, 1.0, 1.0]
        d = [0.0, 0.0, 0.0]
        assert pipeline_iteration_time(t, d, gacc=5) == pytest.approx(
            4 * 1.0 + 3.0
        )

    def test_eq1_delta_hidden_by_ramp(self):
        """A late stage's delta overlaps earlier stages' work (Fig. 10)."""
        t = [1.0, 1.0, 1.0]
        no_delta = pipeline_iteration_time(t, [0, 0, 0], gacc=4)
        hidden = pipeline_iteration_time(t, [0, 0, 1.5], gacc=4)
        exposed = pipeline_iteration_time(t, [2.5, 0, 0], gacc=4)
        assert hidden == pytest.approx(no_delta)  # 1.5 < prefix 2.0
        assert exposed == pytest.approx(no_delta + 2.5)

    def test_uniform_ignores_delta(self):
        t = [1.0, 2.0]
        assert pipeline_time_uniform(t, gacc=3) == pytest.approx(
            2 * 2.0 + 3.0
        )

    def test_throughput(self):
        assert throughput(128, 2.0) == 64.0
        with pytest.raises(ValueError):
            throughput(128, 0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        t=st.lists(st.floats(min_value=0.01, max_value=5), min_size=1,
                   max_size=6),
        gacc=st.integers(min_value=1, max_value=32),
    )
    def test_eq1_bounds_property(self, t, gacc):
        """Iteration time is within [steady-state, steady + fill + drain]."""
        d = [0.0] * len(t)
        total = pipeline_iteration_time(t, d, gacc)
        assert total >= (gacc - 1) * max(t) - 1e-9
        assert total <= gacc * max(t) + sum(t) + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        t=st.lists(st.floats(min_value=0.01, max_value=5), min_size=1,
                   max_size=6),
        d=st.lists(st.floats(min_value=0.0, max_value=5), min_size=1,
                   max_size=6),
        gacc=st.integers(min_value=1, max_value=16),
    )
    def test_deltas_never_reduce_time(self, t, d, gacc):
        n = min(len(t), len(d))
        t, d = t[:n], d[:n]
        base = pipeline_iteration_time(t, [0.0] * n, gacc)
        with_d = pipeline_iteration_time(t, d, gacc)
        assert with_d >= base - 1e-9


class TestPlanSerialization:
    PLAN = TrainingPlan(
        global_batch=64, gacc=4,
        stages=(
            StageConfig(layers=12, microbatch=2, dp=4, tp=2, zero=2,
                        ckpt=6, oo=0.5, ao=0.25),
            StageConfig(layers=12, microbatch=2, dp=2, tp=4, zero=1,
                        wo=1.0, go=0.5),
        ),
        source="test", metadata={"note": "round-trip"},
    )

    def test_dict_round_trip(self):
        assert TrainingPlan.from_dict(self.PLAN.to_dict()) == self.PLAN

    def test_json_round_trip_byte_identical(self):
        text = self.PLAN.to_json()
        again = TrainingPlan.from_json(text)
        assert again == self.PLAN
        assert again.to_json() == text

    def test_stage_config_round_trip(self):
        stage = self.PLAN.stages[0]
        assert StageConfig.from_dict(stage.to_dict()) == stage

    def test_metadata_preserved(self):
        again = TrainingPlan.from_json(self.PLAN.to_json())
        assert again.metadata == {"note": "round-trip"}

    @settings(max_examples=40, deadline=None)
    @given(
        layers=st.integers(min_value=1, max_value=48),
        microbatch=st.integers(min_value=1, max_value=8),
        dp=st.integers(min_value=1, max_value=8),
        tp=st.integers(min_value=1, max_value=8),
        zero=st.integers(min_value=0, max_value=3),
        oo=st.floats(min_value=0.0, max_value=1.0),
        gacc=st.integers(min_value=1, max_value=16),
    )
    def test_round_trip_property(self, layers, microbatch, dp, tp, zero,
                                 oo, gacc):
        plan = TrainingPlan(
            global_batch=microbatch * dp * gacc, gacc=gacc,
            stages=(StageConfig(layers=layers, microbatch=microbatch,
                                dp=dp, tp=tp, zero=zero,
                                ckpt=layers // 2, oo=oo),),
        )
        assert TrainingPlan.from_json(plan.to_json()) == plan
