"""Figure 3: comprehensive co-optimization vs checkpoint-only tuning.

GPT-3 7B (6.7B) on 8 NVIDIA L4 GPUs, seq 2048, global batch 512. The
paper's point: tuning only activation checkpointing drives the planner
into a deep (PP=8) bubble-heavy pipeline, while comprehensive
co-optimization uses offloading/ZeRO to buy memory, shrink the pipeline
and cut recomputation — a 1.22x speedup over parallelism-only tuning
and 1.11x over parallelism+CKPT tuning.
"""

from repro.benchmarking.suite import current_scale
from repro.core import MistTuner, SPACE_3D, SPACE_MIST
from repro.costmodel import calibrated_interference
from repro.execution import ExecutionEngine, OOMError
from repro.hardware import make_cluster
from repro.models import get_model

MODEL = get_model("gpt3-6.7b")
CLUSTER = make_cluster("L4", 1, 8)
SEQ_LEN = 2048
GLOBAL_BATCH = 512

SPACES = {
    "parallelism-only": SPACE_3D.with_(name="3d", ckpt_policy="full"),
    "parallelism+ckpt": SPACE_3D.with_(name="3d+ckpt", tune_ckpt=True),
    "comprehensive": None,  # filled from the scale preset
}


def _run(space_key):
    scale = current_scale()
    space = SPACES[space_key] or scale.apply(SPACE_MIST)
    interference = calibrated_interference(pcie_only=True)
    tuner = MistTuner(
        MODEL, CLUSTER, seq_len=SEQ_LEN, space=space,
        interference=interference,
        max_gacc_candidates=scale.max_gacc_candidates,
    )
    tuned = tuner.search(GLOBAL_BATCH)
    if tuned.best_plan is None:
        return None, None
    engine = ExecutionEngine(CLUSTER, system="mist")
    try:
        return tuned.best_plan, engine.run(tuned.best_plan, MODEL,
                                           seq_len=SEQ_LEN)
    except OOMError:
        return tuned.best_plan, None


def test_fig3_cooptimization(report, benchmark):
    outcomes = benchmark.pedantic(
        lambda: {key: _run(key) for key in SPACES},
        rounds=1, iterations=1,
    )
    lines = [f"Figure 3 — co-optimization (GPT-3 7B, 8x L4, B={GLOBAL_BATCH})"]
    base = outcomes["parallelism-only"][1]
    for key, (plan, result) in outcomes.items():
        if result is None:
            lines.append(f"  {key:18s}: infeasible")
            continue
        lines.append(
            f"  {key:18s}: {result.throughput:6.2f} samples/s "
            f"({result.throughput / base.throughput:4.2f}x)  "
            f"S={plan.num_stages} G={plan.gacc}"
        )
    # per-stage configuration of the comprehensive plan (Fig. 3b analog)
    plan, result = outcomes["comprehensive"]
    for idx, stage in enumerate(plan.stages):
        lines.append(f"    stage {idx}: {stage.describe()}")
    bubbles = [f"{result.pipeline.bubble_fraction(i) * 100:.0f}%"
               for i in range(plan.num_stages)]
    lines.append(f"    idle fractions: {bubbles}")
    report("\n".join(lines))

    assert base is not None
    ckpt = outcomes["parallelism+ckpt"][1]
    comp = outcomes["comprehensive"][1]
    assert ckpt is not None and comp is not None
    assert ckpt.throughput >= base.throughput * 0.999
    assert comp.throughput >= ckpt.throughput * 0.999
    # paper: 1.22x over parallelism-only
    assert comp.throughput / base.throughput > 1.08
