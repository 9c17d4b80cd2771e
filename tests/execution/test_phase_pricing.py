"""``ExecutionEngine.run`` prices each distinct phase once.

Only microbatch 0's forward carries the first-microbatch extras and only
microbatch ``gacc - 1``'s backward carries the last-microbatch extra, so
a stage has at most four distinct phase times. The engine fills its
``gacc``-long rows from those; the per-microbatch loop it replaced is
kept here as the oracle, and every ``PipelineResult`` field must match
it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import StageConfig, TrainingPlan
from repro.execution import ExecutionEngine
from repro.execution.engine import _COMPONENT_FIELDS
from repro.execution.pipeline import simulate_pipeline
from repro.execution.schedule import SCHEDULES, phase_wall_times
from repro.hardware import DeviceGroup, HeterogeneousCluster, make_cluster
from repro.models import get_model

MODEL = get_model("gpt3-1.3b")
SEQ_LEN = 1024


def per_microbatch_oracle(engine: ExecutionEngine, plan: TrainingPlan, *,
                          flash: bool = True):
    """The engine's pipeline, pricing every (stage, microbatch) phase."""
    fwd_times, bwd_times = [], []
    max_p2p_lat = 0.0
    links = engine.cluster.p2p_links(
        [stage.device_group for stage in plan.stages])
    for idx, stage in enumerate(plan.stages):
        gcluster = engine._stage_cluster(stage)
        fn = engine._components_fn(engine._traced(MODEL, flash, gcluster))
        env = engine._stage_env(plan, idx, SEQ_LEN, gcluster, links[idx])
        comp = dict(zip(_COMPONENT_FIELDS,
                        (float(np.asarray(v).reshape(-1)[0])
                         for v in fn(**env))))
        # rows in PHASE_RESOURCES order: comp, tp, dp, p2p, d2h, h2d
        fwd = np.array([comp["comp_fwd"], comp["tp_fwd"], comp["dp_fwd"],
                        comp["p2p_fwd"], comp["d2h_fwd"], comp["h2d_fwd"]])
        bwd = np.array([comp["comp_bwd"], comp["tp_bwd"], comp["dp_bwd"],
                        comp["p2p_bwd"], comp["d2h_bwd"], comp["h2d_bwd"]])
        first_extra = np.array([comp["comp_first"], 0.0, comp["dp_first"],
                                0.0, comp["d2h_first"], comp["h2d_first"]])
        last_extra = np.array([0.0, 0.0, comp["dp_last"], 0.0, 0.0, 0.0])
        stage_fwd, stage_bwd = [], []
        for k in range(plan.gacc):
            fwd_k = fwd + first_extra if k == 0 else fwd
            bwd_k = bwd + last_extra if k == plan.gacc - 1 else bwd
            stage_fwd.append(float(phase_wall_times(
                [fwd_k], engine.capability, engine.contention)[0]))
            stage_bwd.append(float(phase_wall_times(
                [bwd_k], engine.capability, engine.contention)[0]))
        fwd_times.append(stage_fwd)
        bwd_times.append(stage_bwd)
        max_p2p_lat = max(max_p2p_lat, env["p2p_lat"])
    return simulate_pipeline(fwd_times, bwd_times, p2p_delay=max_p2p_lat)


def homogeneous():
    return make_cluster("L4", 1, 4)


def mixed():
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, 2)),
        DeviceGroup("l4", make_cluster("L4", 1, 2)),
    ))


def two_stage_plan(gacc: int, groups: tuple[str, str]) -> TrainingPlan:
    """Offloading, ZeRO and partial checkpointing, so every channel and
    every first/last extra carries time."""
    half = MODEL.num_layers // 2
    return TrainingPlan(global_batch=2 * gacc, gacc=gacc, stages=(
        StageConfig(layers=half, microbatch=1, dp=2, tp=1, zero=1,
                    ckpt=half // 2, wo=0.5, go=0.25, oo=0.5, ao=0.25,
                    device_group=groups[0]),
        StageConfig(layers=half, microbatch=1, dp=2, tp=1, zero=2,
                    ckpt=half, oo=1.0, device_group=groups[1]),
    ))


CLUSTERS = {
    "L4": (homogeneous, ("", "")),
    "A100+L4": (mixed, ("a100", "l4")),
}


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("system", sorted(SCHEDULES))
@pytest.mark.parametrize("gacc", [1, 2, 8])
def test_distinct_phase_pricing_matches_per_microbatch_loop(
        cluster_name, system, gacc):
    make, groups = CLUSTERS[cluster_name]
    engine = ExecutionEngine(make(), system=system)
    plan = two_stage_plan(gacc, groups)
    result = engine.run(plan, MODEL, seq_len=SEQ_LEN, check_memory=False)
    oracle = per_microbatch_oracle(engine, plan)
    assert result.iteration_time == oracle.total_time
    # total_time, every timeline record and every stage's busy time
    assert result.pipeline == oracle
