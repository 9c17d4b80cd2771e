"""Metamorphic relations the pruned search's predictions must keep.

A larger search space never predicts a slower plan: the named spaces
nest, ``3d`` ⊂ ``3d-zero`` ⊂ ``3d-ckpt`` ⊂ ``oo`` ⊂ ``ao`` ⊂ ``go`` ⊂
``wo`` ⊂ ``mist``, so along that chain the predicted iteration time may
only fall. A worse cluster never predicts a faster plan: degrading the
mixed fleet's inter-group link, an inter-node link or the device memory
may only raise it. A bound cut that drops a winner breaks a relation
even where prune and exhaustive still agree on the job at hand.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import TuningJob, delta_job
from repro.api.solvers import MistSolver
from repro.core import NAMED_SPACES, MistTuner
from repro.core.spaces import SCALES
from repro.hardware import DeviceGroup, HeterogeneousCluster

CHAIN = ("3d", "3d-zero", "3d-ckpt", "oo", "ao", "go", "wo", "mist")
#: the paper's Table 4 GPT-3 grid on L4: (model, GPUs, global batch)
TABLE4_GRID = (
    ("gpt3-1.3b", 2, 32), ("gpt3-2.7b", 4, 64), ("gpt3-6.7b", 8, 128),
    ("gpt3-13b", 16, 256), ("gpt3-22b", 32, 512),
)


def _nests(small, large) -> bool:
    """Field by field, ``large`` is at least as permissive as ``small``."""
    return (set(small.zero_levels) <= set(large.zero_levels)
            and small.tune_ckpt <= large.tune_ckpt
            and small.ckpt_policy == large.ckpt_policy
            and small.ckpt_grid_points == large.ckpt_grid_points
            and all(set(getattr(small, grid)) <= set(getattr(large, grid))
                    for grid in ("oo_grid", "ao_grid", "go_grid", "wo_grid"))
            and small.imbalance_aware == large.imbalance_aware
            and small.layer_slack <= large.layer_slack)


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_chain_nests_after_scale(scale):
    spaces = [SCALES[scale].apply(NAMED_SPACES[name]) for name in CHAIN]
    for small, large in zip(spaces, spaces[1:]):
        assert _nests(small, large), (small.name, large.name)


@pytest.mark.parametrize("model, gpus, batch", TABLE4_GRID,
                         ids=[model for model, _, _ in TABLE4_GRID])
def test_larger_space_never_predicts_slower(model, gpus, batch):
    predicted = []
    for name in CHAIN:
        job = TuningJob(model=model, num_gpus=gpus, global_batch=batch,
                        scale="quick", space=name)
        result = MistSolver().make_tuner(job).search(
            batch, keep_top=job.keep_top)
        predicted.append(result.predicted_iteration_time)
    for name, small, large in zip(CHAIN[1:], predicted, predicted[1:]):
        assert large <= small, (name, predicted)


#: the mixed A100 + L4 fleet of examples/mixed_a100_l4.json
MIXED_A100_L4 = {
    "groups": [
        {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
         "gpus_per_node": 4, "inter_node_bandwidth_gbps": 400},
        {"name": "l4", "gpu": "L4", "num_nodes": 1,
         "gpus_per_node": 4, "inter_node_bandwidth_gbps": 100},
    ],
    "inter_group_bandwidth_gbps": 100,
    "inter_group_latency_us": 25.0,
}


#: how far each degraded factor is scaled, from intact to 1/20
FACTORS = (1, 0.9, 0.75, 0.5, 0.3, 0.2, 0.1, 0.05)

#: the mixed fleet with each group on two nodes of two GPUs, so its
#: stages' traffic crosses the inter-node link
MIXED_2X2 = {**MIXED_A100_L4, "groups": [
    {**group, "num_nodes": 2, "gpus_per_node": 2}
    for group in MIXED_A100_L4["groups"]]}
#: (cluster document, model, global batch, the degraded link)
LINK_CASES = {
    "inter_group": (MIXED_A100_L4, "gpt3-2.7b", 64, {"link": "inter_group"}),
    "inter_node-l4-2x2": ({"gpu": "L4", "num_nodes": 2, "gpus_per_node": 2},
                          "gpt3-1.3b", 32, {"link": "inter_node"}),
    "inter_node-mixed-2x2": (MIXED_2X2, "gpt3-2.7b", 64,
                             {"link": "inter_node", "group": "l4"}),
}


def _never_faster(predicted: list[float]) -> None:
    """``predicted`` never falls, and the last factor made it rise."""
    assert all(fast <= slow
               for fast, slow in zip(predicted, predicted[1:])), predicted
    assert predicted[0] < predicted[-1], predicted


@pytest.mark.parametrize("case", sorted(LINK_CASES))
def test_worse_link_never_predicts_faster(case):
    cluster, model, batch, link = LINK_CASES[case]
    base = TuningJob.for_cluster(cluster, model=model, global_batch=batch,
                                 scale="smoke")
    predicted = []
    for factor in FACTORS:
        job = delta_job(base, {"ops": [{"op": "degrade_link",
                                        "factor": factor, **link}]})
        result = MistSolver().make_tuner(job).search(
            job.global_batch, keep_top=job.keep_top)
        predicted.append(result.predicted_iteration_time)
    _never_faster(predicted)


def _less_memory(cluster, factor: float):
    """``cluster`` with every GPU's device memory scaled by ``factor``."""
    def scaled(spec):
        return dataclasses.replace(spec, gpu=dataclasses.replace(
            spec.gpu, memory_bytes=int(spec.gpu.memory_bytes * factor)))

    if isinstance(cluster, HeterogeneousCluster):
        return dataclasses.replace(cluster, groups=tuple(
            DeviceGroup(group.name, scaled(group.cluster))
            for group in cluster.groups))
    return scaled(cluster)


@pytest.mark.parametrize("name", ["l4", "mixed"])
def test_less_device_memory_never_predicts_faster(name):
    job = (TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64,
                     scale="smoke") if name == "l4"
           else TuningJob.for_cluster(MIXED_A100_L4, model="gpt3-2.7b",
                                      global_batch=64, scale="smoke"))
    tuner = MistSolver().make_tuner(job)
    # the job's own per-group interference, on every scaled cluster
    interference = {group: analyzer.interference
                    for group, analyzer in tuner.analyzers.items()}
    predicted = []
    for factor in FACTORS:
        scaled = MistTuner(
            tuner.model, _less_memory(tuner.cluster, factor),
            seq_len=tuner.seq_len, flash=tuner.flash, space=tuner.space,
            interference=interference,
            max_gacc_candidates=tuner.max_gacc_candidates)
        result = scaled.search(job.global_batch, keep_top=job.keep_top)
        predicted.append(result.predicted_iteration_time)
    _never_faster(predicted)
