"""Tests for the symbolic performance analyzer."""

import hashlib

import numpy as np
import pytest

from repro.core import SymbolicPerformanceAnalyzer
from repro.core.plan import StageConfig, TrainingPlan, uniform_plan
from repro.execution.engine import ExecutionEngine
from repro.execution.memory_tracker import _memory_fn
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

    def test_peak_mem_is_the_memory_kernel(self, analyzer):
        # predict reads peak memory from the memory kernel alone: the
        # runtime kernel has no memory output
        env = base_env(analyzer, ckpt=np.array([0, 6, 12]),
                       zero=np.array([[0], [1], [3]]))
        pred = analyzer.predict(env)
        assert pred.peak_mem.shape == (3, 3)
        assert np.array_equal(pred.peak_mem, analyzer.predict_memory(env))
        assert analyzer._fn.n_outputs == 13

    def test_compute_channel_floors_stable_time(self, analyzer):
        env = base_env(analyzer, ckpt=np.array([0, 6, 12]),
                       oo=np.array([[0.0], [1.0]]), zero=1)
        floor = analyzer.compute_channel(env)
        t_stable = analyzer.predict(env).t_stable
        assert floor.shape == t_stable.shape == (2, 3)
        assert np.all(floor > 0) and np.all(floor <= t_stable)

    def test_feasible_rows_follow_the_given_memory(self, analyzer):
        # predict_feasible prices the rows the caller's peak memory
        # admits and passes that memory through; it prices none itself
        env = base_env(analyzer, ckpt=np.array([0, 4, 8, 12]))
        pred = analyzer.predict(env)
        budget = analyzer.memory_budget
        fits = np.array([budget, budget * 2, 0.0, np.inf])
        rows, got = analyzer.predict_feasible(env, fits)
        assert rows.tolist() == [0, 2]
        assert got.peak_mem is fits
        assert np.array_equal(got.t_first, pred.t_first[rows])
        assert np.array_equal(got.t_last, pred.t_last[rows])
        assert np.array_equal(got.delta, pred.delta[rows])
        rows, _ = analyzer.predict_feasible(env, np.full(4, np.inf))
        assert rows.size == 0

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


class TestKernelSize:
    def test_gpt3_2_7b_kernel_statement_ratchet(self, cluster):
        # a ratchet on compile_expr's structural sharing: without it
        # this kernel needs over 500 statements
        traced = trace(get_model("gpt3-2.7b"), cluster.gpu, flash=True)
        source = SymbolicPerformanceAnalyzer(traced, cluster)._fn.source
        statements = [line for line in source.splitlines()
                      if line.startswith("    _v")]
        assert len(statements) <= 350


#: sha256 of ``CompiledExpr.source`` of each kernel of gpt3-2.7b on L4
#: with flash attention
KERNEL_DIGESTS = {
    "analyzer.fn":
        "9b75d40c233ca43a3c922a268fcbe74e78136b4a81e753241e33ab00383469e4",
    "analyzer.mem_fn":
        "863fd4f460bdd5886b46673089b8c5e1ee6e1d05d84732563f8cb03d3cba624e",
    "engine.components":
        "a60f33416fe522f9c415dfa7438254ade8e943dbeadbbb7ae3c57224bc63c6c5",
    "engine.memory":
        "3aef95e660000d766130be801ab26b21cd90e9107762cf85c5d93e3f1a59af8e",
}


class TestKernelDigests:
    """The emitted kernels are pinned byte for byte: a refactor of the
    expression engine or the tracer must not move a statement."""

    @pytest.fixture(scope="class")
    def sources(self, cluster):
        traced = trace(get_model("gpt3-2.7b"), cluster.gpu, flash=True)
        analyzer = SymbolicPerformanceAnalyzer(traced, cluster)
        return {
            "analyzer.fn": analyzer._fn.source,
            "analyzer.mem_fn": analyzer._mem_fn.source,
            "engine.components": ExecutionEngine._components_fn(traced).source,
            "engine.memory": _memory_fn(traced.graph).source,
        }

    @pytest.mark.parametrize("kernel", sorted(KERNEL_DIGESTS))
    def test_source_matches_pinned_digest(self, sources, kernel):
        digest = hashlib.sha256(sources[kernel].encode()).hexdigest()
        assert digest == KERNEL_DIGESTS[kernel], (
            f"the {kernel} kernel's emitted source changed. If the "
            f"change is meant to move its statements (and plans, "
            f"counters and measured bits with them), set "
            f"KERNEL_DIGESTS[{kernel!r}] in {__file__} to {digest!r}")
