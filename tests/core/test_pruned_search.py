"""Pruning correctness: the prune-and-memoize engine vs exhaustive.

The acceptance property of the engine is *bit-identity*: for any job,
``search(prune=True)`` must return byte-identical ``TrainingPlan``s
(winner *and* ``top_plans``) and the exact same predicted objective as
the exhaustive reference path — pruning may only skip work that
provably cannot change the ranking. The corpus below mixes hand-picked
and seeded-random small jobs, including heterogeneous clusters, plus
coverage for the service hooks and the memoization layer under
pruning.
"""

from __future__ import annotations

import random

import pytest

from repro.api import TuningJob
from repro.api.solvers import MistSolver
from repro.core import (
    NAMED_SPACES,
    MenuMemo,
    MistTuner,
    SearchCancelled,
)
from repro.core.memo import GLOBAL_MENU_MEMO
from repro.costmodel import calibrated_interference
from repro.core.spaces import get_scale
from repro.hardware import DeviceGroup, HeterogeneousCluster, make_cluster
from repro.models import get_model

SMOKE = get_scale("smoke")
QUICK = get_scale("quick")


def _mixed_cluster() -> HeterogeneousCluster:
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, 2)),
        DeviceGroup("l4", make_cluster("L4", 1, 2)),
    ))


def _case(model, cluster, batch, space, keep_top, seq_len=2048,
          scale=SMOKE, interference=True):
    return dict(model=model, cluster=cluster, batch=batch, space=space,
                keep_top=keep_top, seq_len=seq_len, scale=scale,
                interference=interference)


def _corpus():
    cases = [
        _case("gpt3-1.3b", make_cluster("L4", 1, 2), 16, "mist", 3),
        _case("gpt3-1.3b", make_cluster("L4", 1, 4), 32, "3d", 1),
        _case("gpt3-2.7b", make_cluster("L4", 1, 4), 32, "3d-ckpt", 2,
              scale=QUICK),
        _case("gpt3-2.7b", make_cluster("A100-40GB", 1, 4), 32, "mist", 3,
              seq_len=1024),
        _case("gpt3-1.3b", _mixed_cluster(), 16, "mist", 3),
        _case("gpt3-1.3b", _mixed_cluster(), 32, "3d-zero", 1),
    ]
    rng = random.Random(20260730)
    for _ in range(5):
        gpus = rng.choice([2, 4, 8])
        cases.append(_case(
            model=rng.choice(["gpt3-1.3b", "gpt3-2.7b"]),
            cluster=make_cluster(rng.choice(["L4", "A100-40GB"]), 1, gpus),
            batch=rng.choice([16, 32, 64]),
            space=rng.choice(["3d", "3d-zero", "mist"]),
            keep_top=rng.choice([1, 3]),
            seq_len=rng.choice([1024, 2048]),
            interference=rng.choice([True, False]),
        ))
    return cases


def _make_tuner(case) -> MistTuner:
    cluster = case["cluster"]
    pcie_only = True
    if not isinstance(cluster, HeterogeneousCluster):
        pcie_only = not cluster.gpu.has_nvlink
    interference = (calibrated_interference(pcie_only)
                    if case["interference"] else None)
    return MistTuner(
        get_model(case["model"]), cluster, seq_len=case["seq_len"],
        space=case["scale"].apply(NAMED_SPACES[case["space"]]),
        interference=interference,
        max_gacc_candidates=case["scale"].max_gacc_candidates,
    )


def _plan_bytes(plan):
    return None if plan is None else plan.to_json()


class TestBitIdentity:
    @pytest.mark.parametrize("case", _corpus(),
                             ids=lambda c: f"{c['model']}-{c['space']}"
                                           f"-B{c['batch']}-k{c['keep_top']}")
    def test_pruned_matches_exhaustive(self, case):
        tuner = _make_tuner(case)
        exhaustive = tuner.search(case["batch"], keep_top=case["keep_top"],
                                  prune=False)
        pruned = tuner.search(case["batch"], keep_top=case["keep_top"],
                              prune=True, memo=MenuMemo())
        assert _plan_bytes(pruned.best_plan) \
            == _plan_bytes(exhaustive.best_plan)
        assert [_plan_bytes(p) for p in pruned.top_plans] \
            == [_plan_bytes(p) for p in exhaustive.top_plans]
        assert pruned.predicted_iteration_time \
            == exhaustive.predicted_iteration_time
        assert pruned.predicted_throughput == exhaustive.predicted_throughput

        stats = pruned.stats
        assert stats is not None and stats.prune
        assert stats.cells_explored + stats.cells_pruned \
            + stats.cells_infeasible == stats.cells_total
        assert stats.memo_misses > 0 or stats.cells_explored == 0

    def test_explored_cells_log_the_exhaustive_objective(self):
        # every explored cell makes the same single exact solve either
        # way, so pruning may skip cells but never alter a logged one
        job = TuningJob(model="gpt3-6.7b", num_gpus=8, global_batch=128,
                        scale="quick")
        tuner = MistSolver().make_tuner(job)
        exhaustive = tuner.search(job.global_batch, keep_top=job.keep_top,
                                  prune=False)
        pruned = tuner.search(job.global_batch, keep_top=job.keep_top,
                              prune=True, memo=MenuMemo())
        reference = {(e["num_stages"], e["gacc"]): e["objective"]
                     for e in exhaustive.search_log}
        explored = [e for e in pruned.search_log
                    if e["status"] == "explored"]
        assert explored
        for entry in explored:
            assert entry["objective"] == \
                reference[(entry["num_stages"], entry["gacc"])], entry

    def test_work_accounting_is_deterministic(self):
        # configs_evaluated must not depend on memo warmth: a hit
        # replays the counters its original computation recorded
        case = _corpus()[0]
        tuner = _make_tuner(case)
        cold = tuner.search(case["batch"], memo=MenuMemo())
        warm_memo = MenuMemo()
        first = tuner.search(case["batch"], memo=warm_memo)
        second = tuner.search(case["batch"], memo=warm_memo)
        assert first.configurations_evaluated \
            == cold.configurations_evaluated
        assert second.configurations_evaluated \
            == first.configurations_evaluated
        assert second.stats.configs_prefiltered \
            == first.stats.configs_prefiltered
        assert second.stats.memo_hits > 0
        assert _plan_bytes(second.best_plan) == _plan_bytes(first.best_plan)


class TestExhaustiveMode:
    """``prune=False`` is the same driver and per-cell routine, cuts off."""

    @pytest.mark.parametrize("cluster", [make_cluster("L4", 1, 4),
                                         _mixed_cluster()],
                             ids=["homogeneous", "heterogeneous"])
    def test_every_cell_explored_in_enumeration_order(self, cluster):
        tuner = _make_tuner(_case("gpt3-1.3b", cluster, 16, "mist", 3))
        result = tuner.search(16, prune=False)
        stats = result.stats
        grid = tuner._sg_grid(16)
        assert not stats.prune
        assert stats.cells_explored == stats.cells_total == len(grid)
        assert stats.cells_pruned == stats.cells_infeasible == 0
        # no bounds, but the same memory pass over every menu: it drops
        # at least what the pruned search's (a subset of cells) drops
        assert stats.configs_prefiltered > 0
        pruned = tuner.search(16, memo=MenuMemo())
        assert stats.configs_prefiltered >= pruned.stats.configs_prefiltered
        assert all(entry["status"] == "explored" and "bound" not in entry
                   for entry in result.search_log)
        assert [(e["num_stages"], e["gacc"]) for e in result.search_log] \
            == [(len(slots), g) for g, _, slots in grid]

    def test_private_memo_per_search(self):
        tuner = _make_tuner(_case("gpt3-1.3b", make_cluster("L4", 1, 2),
                                  16, "mist", 3))
        memo = MenuMemo()
        global_entries = len(GLOBAL_MENU_MEMO)
        first = tuner.search(16, prune=False, memo=memo)
        # the memo argument is ignored and the process-wide memo untouched
        assert len(memo) == 0
        assert len(GLOBAL_MENU_MEMO) == global_entries
        # the counters report reuse within the one search, so a second
        # search starts just as cold and counts the same
        assert first.stats.memo_misses > 0
        second = tuner.search(16, prune=False)
        assert second.stats.to_dict() == first.stats.to_dict()
        assert _plan_bytes(second.best_plan) == _plan_bytes(first.best_plan)


class TestHooksUnderPruning:
    def _tuner(self):
        return _make_tuner(_case("gpt3-1.3b", make_cluster("L4", 1, 4),
                                 16, "mist", 3))

    def test_progress_fires_for_pruned_and_explored_cells(self):
        tuner = self._tuner()
        calls: list[tuple[int, int]] = []
        result = tuner.search(16, memo=MenuMemo(),
                              progress=lambda done, total: calls.append(
                                  (done, total)))
        assert result.found
        total = len(tuner._sg_grid(16))
        assert calls == [(i + 1, total) for i in range(total)]
        stats = result.stats
        # pruned/infeasible cells still count toward progress
        assert stats.cells_explored < stats.cells_total or \
            stats.cells_pruned + stats.cells_infeasible == 0

    def test_should_stop_cancels_between_cells(self):
        tuner = self._tuner()
        seen = [0]

        def should_stop():
            seen[0] += 1
            return seen[0] > 2

        with pytest.raises(SearchCancelled):
            tuner.search(16, memo=MenuMemo(), should_stop=should_stop)

    def test_should_stop_checked_before_first_cell(self):
        tuner = self._tuner()
        with pytest.raises(SearchCancelled):
            tuner.search(16, memo=MenuMemo(), should_stop=lambda: True)


class TestMemoSharing:
    def test_memo_eviction_bounds_size(self):
        memo = MenuMemo(maxsize=2)
        from repro.core.memo import MemoEntry
        for i in range(5):
            memo.store(("key", i), MemoEntry(menus={}, evaluated=i,
                                             prefiltered=0))
        assert len(memo) == 2
        assert memo.lookup(("key", 0)) is None
        assert memo.lookup(("key", 4)) is not None

    def test_distinct_tuner_scopes_never_share(self):
        memo = MenuMemo()
        a = _make_tuner(_case("gpt3-1.3b", make_cluster("L4", 1, 2), 16,
                              "mist", 3))
        b = _make_tuner(_case("gpt3-1.3b", make_cluster("L4", 1, 2), 16,
                              "3d", 3))
        a.search(16, memo=memo)
        second = b.search(16, memo=memo)
        assert second.stats.memo_hits == 0
