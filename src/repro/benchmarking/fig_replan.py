"""Warm-vs-cold replan measurement (elastic re-tuning, §5.3).

Each scenario plays one cluster-change event: tune the *old* cluster
(producing the incumbent plan and a warm :class:`MenuMemo`), apply a
:class:`~repro.hardware.ClusterDelta`, then solve the *new* cluster
twice — a cold :meth:`~repro.core.MistTuner.search` with a fresh memo,
and a warm :meth:`~repro.core.MistTuner.replan` riding the incumbent
plan and the old memo. The pass asserts the warm plan hash-equals the
cold plan (the replan bit-identity contract) and reports the
work-counter speedup ``cold configs_evaluated / warm
configs_evaluated`` per scenario.

The CI gate (``repro bench --min-warm-speedup``) checks the
*geometric mean* of the per-scenario speedups: configuration counters
are deterministic functions of (model, cluster, space), so unlike wall
time this gate cannot flake with machine load.
"""

from __future__ import annotations

import math
import time

from repro.core import MenuMemo, MistTuner
from repro.core.spaces import SPACE_MIST, TuningScale
from repro.hardware import (
    ClusterDelta,
    ClusterSpec,
    HeterogeneousCluster,
    cluster_from_dict,
    make_cluster,
)
from repro.models.registry import get_model

from .fig16 import plan_hash

__all__ = ["measure_replan", "replan_scenarios"]


def _hetero_pair() -> HeterogeneousCluster:
    return cluster_from_dict({
        "groups": [
            {"name": "a100", "gpu": "A100-40GB",
             "num_nodes": 1, "gpus_per_node": 4},
            {"name": "l4", "gpu": "L4", "num_nodes": 1, "gpus_per_node": 4},
        ],
        "inter_group_bandwidth_gbps": 100,
    })


def replan_scenarios() -> list[dict]:
    """The cluster-change suite: grow, shrink, degrade, hetero-resize.

    The same events run at every scale — the scale preset coarsens the
    search space, not the fleet. Each scenario dict carries the model
    name, the pre-delta cluster, the delta, and the global batch.
    """
    return [
        {"name": "degrade_link", "model": "gpt3-1.3b",
         "cluster": make_cluster("L4", 1, 8),
         "delta": ClusterDelta.degrade_link(0.5), "global_batch": 64},
        {"name": "shrink_node", "model": "gpt3-2.7b",
         "cluster": make_cluster("L4", 2, 4),
         "delta": ClusterDelta.remove_nodes(1), "global_batch": 64},
        {"name": "grow_node", "model": "gpt3-2.7b",
         "cluster": make_cluster("L4", 1, 4),
         "delta": ClusterDelta.add_nodes(1), "global_batch": 64},
        {"name": "hetero_resize", "model": "gpt3-2.7b",
         "cluster": _hetero_pair(),
         "delta": ClusterDelta.resize_group("l4", gpus_per_node=2),
         "global_batch": 64},
    ]


def _tuner(model_name: str,
           cluster: "ClusterSpec | HeterogeneousCluster",
           scale: TuningScale) -> MistTuner:
    return MistTuner(
        get_model(model_name), cluster, seq_len=2048,
        space=scale.apply(SPACE_MIST),
        max_gacc_candidates=scale.max_gacc_candidates,
    )


def measure_replan(scale: TuningScale) -> dict:
    """Run the warm-vs-cold suite; returns a JSON-ready dict::

        {"wall_time_seconds": ...,
         "scenarios": {name: {"delta", "cold": {...}, "warm": {...},
                              "plans_match", "config_speedup"}},
         "config_speedup_geomean": ...,
         "plans_match": <all scenarios>,
         "warm_memo_hits": <aggregate>}
    """
    scenarios: dict[str, dict] = {}
    wall = 0.0
    speedups: list[float] = []
    all_match = True
    memo_hits = 0
    for scenario in replan_scenarios():
        old_cluster = scenario["cluster"]
        delta: ClusterDelta = scenario["delta"]
        new_cluster = delta.apply(old_cluster)
        gb = scenario["global_batch"]

        # the pre-delta search: its plan is the incumbent, its memo is
        # the warm state a long-running service would already hold
        memo = MenuMemo()
        incumbent = _tuner(scenario["model"], old_cluster,
                           scale).search(gb, memo=memo)

        start = time.perf_counter()
        cold = _tuner(scenario["model"], new_cluster, scale).search(
            gb, memo=MenuMemo())
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = _tuner(scenario["model"], new_cluster, scale).replan(
            gb, incumbent=incumbent.best_plan, memo=memo)
        warm_seconds = time.perf_counter() - start
        wall += cold_seconds + warm_seconds

        match = plan_hash(cold.best_plan) == plan_hash(warm.best_plan)
        all_match = all_match and match
        speedup = (cold.configurations_evaluated
                   / max(1, warm.configurations_evaluated))
        speedups.append(speedup)
        warm_stats = warm.stats.to_dict() if warm.stats else {}
        cold_stats = cold.stats.to_dict() if cold.stats else {}
        memo_hits += warm_stats.get("memo_hits", 0)
        scenarios[scenario["name"]] = {
            "delta": delta.describe(),
            "workload": f"{scenario['model']}/gb{gb}",
            "cold": {
                "seconds": cold_seconds,
                "configurations_evaluated": cold.configurations_evaluated,
                "cells_explored": cold_stats.get("cells_explored"),
                "plan_hash": plan_hash(cold.best_plan),
            },
            "warm": {
                "seconds": warm_seconds,
                "configurations_evaluated": warm.configurations_evaluated,
                "cells_explored": warm_stats.get("cells_explored"),
                "memo_hits": warm_stats.get("memo_hits", 0),
                "matched": (warm_stats.get("warm_seed") or {}).get(
                    "matched", False),
                "plan_hash": plan_hash(warm.best_plan),
            },
            "plans_match": match,
            "config_speedup": speedup,
        }
    geomean = (math.exp(sum(math.log(s) for s in speedups) / len(speedups))
               if speedups else 0.0)
    return {
        "wall_time_seconds": wall,
        "scenarios": scenarios,
        "config_speedup_geomean": geomean,
        "plans_match": all_match,
        "warm_memo_hits": memo_hits,
    }
