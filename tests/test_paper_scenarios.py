"""Regression tests for the paper's core claims at test-friendly scale.

These pin the behaviours the reproduction's figures depend on, so a
refactor that silently breaks a trade-off fails fast here rather than
in a long benchmark run.
"""

import numpy as np
import pytest

from repro.core import (
    MistTuner,
    SPACE_3D,
    SPACE_MIST,
    SymbolicPerformanceAnalyzer,
)
from repro.core.plan import StageConfig, TrainingPlan, uniform_plan
from repro.costmodel import calibrated_interference
from repro.execution import ExecutionEngine, OOMError
from repro.hardware import make_cluster
from repro.models import get_model
from repro.tracing import trace

MODEL = get_model("gpt3-1.3b")
CLUSTER = make_cluster("L4", 1, 2)
SEQ = 2048


@pytest.fixture(scope="module")
def engine():
    return ExecutionEngine(CLUSTER, system="mist")


@pytest.fixture(scope="module")
def analyzer():
    return SymbolicPerformanceAnalyzer(
        trace(MODEL, CLUSTER.gpu, flash=True), CLUSTER,
        interference=calibrated_interference(True),
    )


class TestMemoryParallelismTradeoffs:
    """Section 1's core observation: memory optimizations buy memory
    that parallelism changes can convert into speed."""

    def test_zero_enables_smaller_pipeline(self, engine):
        """Sharding states lets DP replace PP, removing bubbles
        (same per-device microbatch size in both plans)."""
        pp = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=8,
                          num_stages=2, dp=1, tp=1, zero=0, ckpt_all=True)
        dp = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=4,
                          num_stages=1, dp=2, tp=1, zero=2, ckpt_all=True)
        r_pp = engine.run(pp, MODEL, seq_len=SEQ)
        r_dp = engine.run(dp, MODEL, seq_len=SEQ)
        assert r_dp.throughput > r_pp.throughput

    def test_ckpt_reduction_pays_off_when_memory_allows(self, engine):
        """Fewer recomputed layers -> faster, all else equal."""
        full = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=8,
                            num_stages=1, dp=2, tp=1, zero=2,
                            ckpt_all=True)
        partial = TrainingPlan(
            global_batch=16, gacc=8,
            stages=(StageConfig(layers=24, microbatch=1, dp=2, tp=1,
                                zero=2, ckpt=8),),
        )
        r_full = engine.run(full, MODEL, seq_len=SEQ)
        r_partial = engine.run(partial, MODEL, seq_len=SEQ)
        assert r_partial.throughput > r_full.throughput

    def test_offload_frees_memory_at_bounded_cost(self, engine):
        """Optimizer offload cuts peak memory; overlapped, its cost is
        far below the raw transfer time."""
        base = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=8,
                            num_stages=1, dp=2, tp=1, zero=1,
                            ckpt_all=True)
        off = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=8,
                           num_stages=1, dp=2, tp=1, zero=1,
                           ckpt_all=True, oo=1.0)
        r_base = engine.run(base, MODEL, seq_len=SEQ)
        r_off = engine.run(off, MODEL, seq_len=SEQ)
        assert r_off.peak_memory < r_base.peak_memory
        assert r_off.iteration_time < 1.5 * r_base.iteration_time

    def test_microbatch_size_kernel_efficiency(self, engine):
        """Bigger microbatches run more efficiently (fewer of them)."""
        small_b = uniform_plan(MODEL, CLUSTER, global_batch=32, gacc=16,
                               num_stages=1, dp=2, tp=1, zero=2,
                               ckpt_all=True)
        big_b = uniform_plan(MODEL, CLUSTER, global_batch=32, gacc=4,
                             num_stages=1, dp=2, tp=1, zero=2,
                             ckpt_all=True)
        r_small = engine.run(small_b, MODEL, seq_len=SEQ)
        r_big = engine.run(big_b, MODEL, seq_len=SEQ)
        assert r_big.throughput > r_small.throughput


class TestPredictionQuality:
    """Section 6.6 in miniature: analyzer vs engine."""

    @pytest.mark.parametrize("zero,ckpt_all,oo", [
        (0, True, 0.0), (1, True, 0.5), (2, False, 0.0), (3, False, 0.5),
    ])
    def test_runtime_error_within_10pct(self, analyzer, engine, zero,
                                        ckpt_all, oo):
        plan = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=8,
                            num_stages=2, dp=1, tp=1, zero=zero,
                            ckpt_all=ckpt_all, oo=oo)
        try:
            measured = engine.run(plan, MODEL, seq_len=SEQ)
        except OOMError:
            pytest.skip("plan OOMs at this scale")
        predicted = analyzer.predict_plan(plan, seq_len=SEQ)
        err = abs(predicted.iteration_time - measured.iteration_time) \
            / measured.iteration_time
        assert err < 0.10

    def test_memory_prediction_conservative_enough(self, analyzer, engine):
        """If the analyzer says a plan fits, the engine agrees."""
        plan = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=8,
                            num_stages=1, dp=2, tp=1, zero=2,
                            ckpt_all=True)
        predicted = analyzer.predict_plan(plan, seq_len=SEQ)
        assert predicted.fits_memory
        measured = engine.run(plan, MODEL, seq_len=SEQ)  # must not OOM
        assert all(r.fits for r in measured.stage_memory)


class TestTunedPlanQuality:
    def test_mist_beats_its_own_3d_subspace(self):
        interference = calibrated_interference(True)
        full = MistTuner(MODEL, CLUSTER, seq_len=SEQ, space=SPACE_MIST,
                         interference=interference,
                         max_gacc_candidates=3).search(16)
        narrow = MistTuner(MODEL, CLUSTER, seq_len=SEQ,
                           space=SPACE_3D.with_(name="3d",
                                                ckpt_policy="full"),
                           interference=interference,
                           max_gacc_candidates=3).search(16)
        engine = ExecutionEngine(CLUSTER, system="mist")
        best_full = max(
            engine.run(p, MODEL, seq_len=SEQ).throughput
            for p in full.top_plans
        )
        best_narrow = max(
            engine.run(p, MODEL, seq_len=SEQ).throughput
            for p in narrow.top_plans
        )
        assert best_full >= best_narrow * 0.99

    def test_imbalance_awareness_never_hurts(self):
        interference = calibrated_interference(True)
        engine = ExecutionEngine(CLUSTER, system="mist")
        results = {}
        for aware in (True, False):
            space = SPACE_MIST.with_(name=f"imb={aware}",
                                     imbalance_aware=aware)
            tuned = MistTuner(MODEL, CLUSTER, seq_len=SEQ, space=space,
                              interference=interference,
                              max_gacc_candidates=3).search(16)
            results[aware] = max(
                engine.run(p, MODEL, seq_len=SEQ).throughput
                for p in tuned.top_plans
            )
        assert results[True] >= results[False] * 0.97
