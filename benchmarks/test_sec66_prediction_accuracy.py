"""Section 6.6: accuracy of the symbolic performance analyzer.

Samples feasible training plans across parallelism/ZeRO/CKPT/offloading
configurations, predicts iteration time and peak memory with the
symbolic analyzer, executes each plan on the engine, and reports the
error distributions.

Paper: average runtime error 1.79%, average memory error 2.10%.
Reproduction target: mean runtime error < 6%, mean memory error < 5%
(the engine quantizes offloading to whole layers and integrates
contention differently — exactly the effects the paper's errors cover).
"""

import numpy as np

from repro.baselines.common import pipeline_grids
from repro.benchmarking.suite import current_scale
from repro.core import SymbolicPerformanceAnalyzer
from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan
from repro.costmodel import calibrated_interference
from repro.execution import ExecutionEngine, OOMError
from repro.hardware import make_cluster
from repro.models import get_model
from repro.tracing import trace

MODEL = get_model("gpt3-2.7b")
CLUSTER = make_cluster("L4", 1, 4)
SEQ_LEN = 2048
GLOBAL_BATCH = 32


def _sample_plans(rng: np.random.Generator, count: int):
    """Random structurally valid plans over the full option space."""
    grids = list(pipeline_grids(MODEL, CLUSTER, GLOBAL_BATCH))
    plans = []
    attempts = 0
    while len(plans) < count and attempts < count * 60:
        attempts += 1
        num_stages, dp, tp, gacc, microbatch = grids[rng.integers(len(grids))]
        layers = MODEL.num_layers // num_stages
        zero = int(rng.integers(0, 4))
        stages = []
        for _ in range(num_stages):
            ckpt = int(rng.integers(0, layers + 1))
            # deliberately non-layer-aligned ratios: the engine rounds
            # them to whole layers, the analyzer keeps them continuous
            stages.append(StageConfig(
                layers=layers, microbatch=microbatch, dp=dp, tp=tp,
                zero=zero, ckpt=ckpt,
                oo=float(rng.choice([0.0, 0.3, 0.55])),
                ao=float(rng.choice([0.0, 0.3, 0.55])),
            ))
        try:
            plan = TrainingPlan(global_batch=GLOBAL_BATCH, gacc=gacc,
                                stages=tuple(stages))
            plan.validate(MODEL, CLUSTER)
        except PlanValidationError:
            continue
        plans.append(plan)
    return plans


def _accuracy():
    n_samples = {"smoke": 10, "quick": 30, "full": 80}[current_scale().name]
    rng = np.random.default_rng(7)
    analyzer = SymbolicPerformanceAnalyzer(
        trace(MODEL, CLUSTER.gpu, flash=True), CLUSTER,
        interference=calibrated_interference(pcie_only=True),
    )
    engine = ExecutionEngine(CLUSTER, system="mist")

    runtime_errors = []
    memory_errors = []
    evaluated = 0
    for plan in _sample_plans(rng, n_samples * 3):
        if evaluated >= n_samples:
            break
        try:
            measured = engine.run(plan, MODEL, seq_len=SEQ_LEN)
        except OOMError:
            continue
        predicted = analyzer.predict_plan(plan, seq_len=SEQ_LEN)
        evaluated += 1
        runtime_errors.append(
            abs(predicted.iteration_time - measured.iteration_time)
            / measured.iteration_time
        )
        predicted_peak = predicted.stage_peak_mem.max()
        measured_peak = max(r.peak for r in measured.stage_memory)
        memory_errors.append(
            abs(predicted_peak - measured_peak) / measured_peak
        )
    return np.array(runtime_errors), np.array(memory_errors)


def test_sec66_prediction_accuracy(report, benchmark):
    runtime_errors, memory_errors = benchmark.pedantic(
        _accuracy, rounds=1, iterations=1
    )
    assert runtime_errors.size >= 10, "not enough feasible samples"
    report(
        "Section 6.6 — symbolic analyzer accuracy "
        f"({runtime_errors.size} sampled strategies)\n"
        f"  runtime error: mean {runtime_errors.mean() * 100:.2f}%  "
        f"p90 {np.percentile(runtime_errors, 90) * 100:.2f}%  "
        f"max {runtime_errors.max() * 100:.2f}%   (paper mean: 1.79%)\n"
        f"  memory  error: mean {memory_errors.mean() * 100:.2f}%  "
        f"p90 {np.percentile(memory_errors, 90) * 100:.2f}%  "
        f"max {memory_errors.max() * 100:.2f}%   (paper mean: 2.10%)"
    )
    assert runtime_errors.mean() < 0.06
    assert memory_errors.mean() < 0.05
    assert np.percentile(runtime_errors, 90) < 0.12
