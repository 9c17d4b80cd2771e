"""Warm-started replanning: bit-identity to cold search, cheaper work.

The contract of :meth:`MistTuner.replan` is the same bit-identity the
pruned search guarantees — the incumbent plan only chooses *where to
look first*, never what is returned — plus a work reduction: pruning
against the best solved objective (k=1) from a strong first cell must
evaluate at most as many configurations as the cold search, and >=2x
fewer on the link-degradation scenario the CI perf gate measures.
"""

from __future__ import annotations

import pytest

from repro.core import MenuMemo, MistTuner, NAMED_SPACES, uniform_plan
from repro.core.spaces import get_scale
from repro.hardware import (
    ClusterDelta,
    DeviceGroup,
    HeterogeneousCluster,
    make_cluster,
)
from repro.models import get_model

SMOKE = get_scale("smoke")


def _tuner(model_name, cluster) -> MistTuner:
    return MistTuner(
        get_model(model_name), cluster, seq_len=2048,
        space=SMOKE.apply(NAMED_SPACES["mist"]),
        max_gacc_candidates=SMOKE.max_gacc_candidates,
    )


def _plan_bytes(plan):
    return None if plan is None else plan.to_json()


def _mixed_cluster() -> HeterogeneousCluster:
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, 4)),
        DeviceGroup("l4", make_cluster("L4", 1, 4)),
    ))


class TestBitIdentity:
    @pytest.mark.parametrize("model,cluster,batch,delta", [
        ("gpt3-1.3b", make_cluster("L4", 1, 8), 64,
         ClusterDelta.degrade_link(0.5)),
        ("gpt3-2.7b", make_cluster("L4", 2, 4), 32,
         ClusterDelta.remove_nodes(1)),
        ("gpt3-1.3b", _mixed_cluster(), 32,
         ClusterDelta.resize_group("l4", gpus_per_node=2)),
    ], ids=["degrade-link", "shrink-node", "hetero-resize"])
    def test_warm_matches_cold(self, model, cluster, batch, delta):
        incumbent = _tuner(model, cluster).search(
            batch, keep_top=1, memo=MenuMemo()).best_plan
        assert incumbent is not None
        new_cluster = delta.apply(cluster)
        cold = _tuner(model, new_cluster).search(
            batch, keep_top=1, memo=MenuMemo())
        warm = _tuner(model, new_cluster).replan(
            batch, incumbent=incumbent, memo=MenuMemo())
        assert _plan_bytes(warm.best_plan) == _plan_bytes(cold.best_plan)
        assert warm.predicted_iteration_time \
            == cold.predicted_iteration_time
        assert warm.stats is not None and warm.stats.warm
        seed = warm.stats.warm_seed
        assert seed["num_stages"] == incumbent.num_stages
        assert seed["gacc"] == incumbent.gacc
        assert isinstance(seed["matched"], bool)
        # k=1 pruning from a strong first cell never does *more* work
        assert warm.configurations_evaluated \
            <= cold.configurations_evaluated

    def test_warm_speedup_on_ci_gate_scenario(self):
        # the scenario the perf job's --min-warm-speedup gate leans on:
        # a cold service solve protects top_plans (keep_top=3 default)
        # while the replan wants *the* plan (k=1 cut + incumbent-first
        # ordering). Counters are deterministic, so this cannot flake.
        cluster = make_cluster("L4", 1, 8)
        result = _tuner("gpt3-1.3b", cluster).search(64, memo=MenuMemo())
        incumbent = result.best_plan
        new_cluster = ClusterDelta.degrade_link(0.5).apply(cluster)
        cold = _tuner("gpt3-1.3b", new_cluster).search(64, memo=MenuMemo())
        warm = _tuner("gpt3-1.3b", new_cluster).replan(
            64, incumbent=incumbent, memo=MenuMemo())
        assert _plan_bytes(warm.best_plan) == _plan_bytes(cold.best_plan)
        assert warm.stats.warm_seed["matched"] is True
        assert warm.configurations_evaluated * 2 \
            <= cold.configurations_evaluated


class TestWarmStartMechanics:
    def test_unmatched_incumbent_falls_back_to_cold_ordering(self):
        # a 4-stage incumbent cannot exist on a 2-GPU cluster: the
        # replan must record matched=False and still answer exactly
        # what a cold search answers
        incumbent = uniform_plan(
            get_model("gpt3-1.3b"), make_cluster("L4", 1, 8),
            global_batch=16, gacc=4, num_stages=4, dp=2, tp=1)
        new_cluster = make_cluster("L4", 1, 2)
        cold = _tuner("gpt3-1.3b", new_cluster).search(
            16, keep_top=1, memo=MenuMemo())
        warm = _tuner("gpt3-1.3b", new_cluster).replan(
            16, incumbent=incumbent, memo=MenuMemo())
        assert warm.stats.warm_seed["matched"] is False
        assert _plan_bytes(warm.best_plan) == _plan_bytes(cold.best_plan)
        assert warm.predicted_iteration_time \
            == cold.predicted_iteration_time

    def test_unchanged_group_menus_replay_from_memo(self):
        # per-device-group memo scoping: a delta that only touches the
        # l4 group keeps the a100 group's memo entries valid, so the
        # warm replan replays them instead of recomputing. The base
        # search keeps every cell (no bound cut), so the memo holds
        # every a100 menu of the old fleet whichever cell the replan
        # explores.
        cluster = _mixed_cluster()
        memo = MenuMemo()
        incumbent = _tuner("gpt3-1.3b", cluster).search(
            32, keep_top=100, memo=memo).best_plan
        new_cluster = ClusterDelta.resize_group(
            "l4", gpus_per_node=2).apply(cluster)
        warm = _tuner("gpt3-1.3b", new_cluster).replan(
            32, incumbent=incumbent, memo=memo)
        assert warm.stats.memo_hits > 0

    def test_counters_independent_of_memo_warmth(self):
        # a replan on a warm memo reports the same configs_evaluated
        # as on a cold one — the CI speedup gate depends on this
        cluster = make_cluster("L4", 1, 4)
        incumbent = _tuner("gpt3-1.3b", cluster).search(
            16, keep_top=1, memo=MenuMemo()).best_plan
        new_cluster = ClusterDelta.degrade_link(0.5).apply(cluster)
        shared = MenuMemo()
        first = _tuner("gpt3-1.3b", new_cluster).replan(
            16, incumbent=incumbent, memo=shared)
        second = _tuner("gpt3-1.3b", new_cluster).replan(
            16, incumbent=incumbent, memo=shared)
        assert second.configurations_evaluated \
            == first.configurations_evaluated
        assert second.stats.memo_hits > 0
        assert _plan_bytes(second.best_plan) == _plan_bytes(first.best_plan)
