"""Tests for the symbolic performance analyzer."""

import numpy as np
import pytest

from repro.core import SymbolicPerformanceAnalyzer
from repro.core.plan import StageConfig, TrainingPlan, uniform_plan
from repro.hardware import make_cluster
from repro.models import get_model
from repro.tracing import trace


@pytest.fixture(scope="module")
def cluster():
    return make_cluster("L4", 1, 4)


@pytest.fixture(scope="module")
def analyzer(cluster):
    traced = trace(get_model("gpt3-1.3b"), cluster.gpu, flash=True)
    return SymbolicPerformanceAnalyzer(traced, cluster)


def base_env(analyzer, **overrides):
    values = dict(
        b=2, s=2048, tp=1, dp=2, l=12, ckpt=0, zero=0,
        wo=0.0, go=0.0, oo=0.0, ao=0.0, gacc=4, inflight=2,
        has_pre=1, has_post=0,
    )
    values.update(overrides)
    return analyzer.build_env(**values)


class TestPrediction:
    def test_positive_outputs(self, analyzer):
        pred = analyzer.predict(base_env(analyzer))
        assert pred.t_stable > 0
        assert pred.delta >= 0
        assert pred.peak_mem > 0

    def test_more_layers_more_time_and_memory(self, analyzer):
        small = analyzer.predict(base_env(analyzer, l=6))
        large = analyzer.predict(base_env(analyzer, l=12))
        assert large.t_stable > small.t_stable
        assert large.peak_mem > small.peak_mem

    def test_ckpt_trades_time_for_memory(self, analyzer):
        free = analyzer.predict(base_env(analyzer))
        ckpt = analyzer.predict(base_env(analyzer, ckpt=12))
        assert ckpt.t_stable > free.t_stable
        assert ckpt.peak_mem < free.peak_mem

    def test_offload_trades_delta_for_memory(self, analyzer):
        base = analyzer.predict(base_env(analyzer))
        off = analyzer.predict(base_env(analyzer, oo=1.0, zero=1))
        assert off.peak_mem < base.peak_mem
        assert off.delta > base.delta

    def test_batched_prediction_shape(self, analyzer):
        ckpts = np.array([0, 4, 8, 12])
        pred = analyzer.predict(base_env(analyzer, ckpt=ckpts))
        assert pred.t_stable.shape == (4,)
        assert np.all(np.diff(pred.t_stable) > 0)
        assert np.all(np.diff(pred.peak_mem) < 0)

    def test_missing_symbol_rejected(self, analyzer):
        with pytest.raises(TypeError, match="missing"):
            analyzer.build_env(b=2, s=2048)

    def test_budget_below_device_memory(self, analyzer, cluster):
        assert analyzer.memory_budget < cluster.gpu.usable_memory_bytes

    def test_gpu_mismatch_rejected(self, cluster):
        traced = trace(get_model("gpt3-1.3b"),
                       make_cluster("A100-40GB", 1, 4).gpu, flash=True)
        with pytest.raises(ValueError, match="priced"):
            SymbolicPerformanceAnalyzer(traced, cluster)


class TestPlanPrediction:
    def test_predict_plan_bundles_stages(self, analyzer, cluster):
        model = get_model("gpt3-1.3b")
        plan = uniform_plan(model, cluster, global_batch=16, gacc=4,
                            num_stages=2, dp=2, tp=1, zero=1,
                            ckpt_all=True)
        pred = analyzer.predict_plan(plan, seq_len=2048)
        assert pred.iteration_time > 0
        assert pred.throughput == pytest.approx(
            16 / pred.iteration_time
        )
        assert pred.stage_t.shape == (2,)
        assert isinstance(pred.fits_memory, bool)

    def test_first_stage_usually_heavier(self, analyzer, cluster):
        model = get_model("gpt3-1.3b")
        plan = uniform_plan(model, cluster, global_batch=16, gacc=4,
                            num_stages=2, dp=2, tp=1, zero=1,
                            ckpt_all=True)
        pred = analyzer.predict_plan(plan, seq_len=2048)
        # embedding + deeper in-flight queue on stage 0
        assert pred.stage_peak_mem[0] > 0

    def test_infeasible_plan_flagged(self, analyzer, cluster):
        model = get_model("gpt3-1.3b")
        # b=8, no ckpt, no sharding on 24GB cards with seq 2048
        plan = TrainingPlan(
            global_batch=32, gacc=1,
            stages=(StageConfig(layers=24, microbatch=8, dp=4, tp=1),),
        )
        pred = analyzer.predict_plan(plan, seq_len=2048)
        assert pred.stage_peak_mem[0] > 0
