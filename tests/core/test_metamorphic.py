"""Metamorphic relations the pruned search's predictions must keep.

A larger search space never predicts a slower plan: the named spaces
nest, ``3d`` ⊂ ``3d-zero`` ⊂ ``3d-ckpt`` ⊂ ``oo`` ⊂ ``ao`` ⊂ ``go`` ⊂
``wo`` ⊂ ``mist``, so along that chain the predicted iteration time may
only fall. A worse link never predicts a faster plan: degrading the
mixed fleet's inter-group link may only raise it. A bound cut that drops
a winner breaks a relation even where prune and exhaustive still agree
on the job at hand.
"""

from __future__ import annotations

import pytest

from repro.api import TuningJob, delta_job
from repro.api.solvers import MistSolver
from repro.core import NAMED_SPACES
from repro.core.spaces import SCALES

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


def test_worse_link_never_predicts_faster():
    base = TuningJob.for_cluster(MIXED_A100_L4, model="gpt3-2.7b",
                                 global_batch=64, scale="smoke")
    predicted = []
    for factor in (1, 0.9, 0.75, 0.5, 0.3, 0.2, 0.1, 0.05):
        job = delta_job(base, {"ops": [{"op": "degrade_link",
                                        "factor": factor,
                                        "link": "inter_group"}]})
        result = MistSolver().make_tuner(job).search(
            job.global_batch, keep_top=job.keep_top)
        predicted.append(result.predicted_iteration_time)
    assert all(slow <= slower
               for slow, slower in zip(predicted, predicted[1:])), predicted
