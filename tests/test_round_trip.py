"""``from_dict(x.to_dict())`` reproduces ``x.to_dict()`` for every class.

Plan caches, campaign manifests, daemon responses and ``repro check``
reports are stored as ``to_dict`` output and read back with
``from_dict``; a key emitted on one side but dropped on the other
corrupts them silently. One representative instance per class, with
every optional field set to a non-default value, pins the contract.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import CheckResult, Finding
from repro.api import SolveReport, TuningJob
from repro.campaigns import CampaignReport, CampaignSpec
from repro.core.plan import StageConfig, TrainingPlan
from repro.core.tuner import SearchStats
from repro.hardware import ClusterDelta

SRC = Path(__file__).resolve().parents[1] / "src"

CLUSTER = {
    "groups": [
        {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
         "gpus_per_node": 2, "inter_node_bandwidth_gbps": 400},
        {"name": "l4", "gpu": "L4", "num_nodes": 2, "gpus_per_node": 2},
    ],
    "inter_group_bandwidth_gbps": 100,
    "inter_group_latency_us": 25.0,
}


def stage():
    return StageConfig(layers=12, microbatch=2, dp=2, tp=1, zero=2, ckpt=3,
                       wo=0.25, go=0.5, oo=0.75, ao=0.125,
                       device_group="a100")


def plan():
    return TrainingPlan(
        global_batch=16, gacc=2,
        stages=(stage(), StageConfig(layers=12, microbatch=1, dp=4, tp=1,
                                     device_group="l4")),
        source="mist", metadata={"note": "round trip"})


def stats():
    return SearchStats(prune=True, cells_total=9, cells_explored=4,
                       cells_pruned=3, cells_infeasible=2,
                       configs_evaluated=120, configs_prefiltered=30,
                       memo_hits=5, memo_misses=7, bound_pruning=False,
                       warm=True,
                       warm_seed={"num_stages": 2, "gacc": 2,
                                  "matched": True})


def job():
    return TuningJob.for_cluster(CLUSTER, model="gpt3-1.3b",
                                 global_batch=16, scale="smoke",
                                 interference="none",
                                 keep_top=2, options={"k": 1})


def report():
    return SolveReport(
        solver="mist", job=job(), plan=plan(),
        predicted={"iteration_time": 1.25, "throughput": 12.8},
        measured={"iteration_time": 1.5, "throughput": 10.7},
        tuning_time_seconds=3.5, configurations_evaluated=120,
        search_log=[{"num_stages": 2, "gacc": 2, "objective": 1.25}],
        search_stats=stats().to_dict(), top_plans=[plan()],
        extra={"replan": {"warm": True}})


def spec():
    return CampaignSpec(
        name="round-trip", solvers=("mist", "uniform"), family="gpt3",
        sizes=("1.3b",), clusters=({"gpu": "L4"},), scales=("smoke",),
        global_batches=(8, 16), interference="none",
        keep_top=2, reference="uniform",
        exclude=({"solver": "uniform", "global_batch": 8},))


def campaign_report():
    cell = {"cell_id": "abc", "workload": "gpt3-1.3b", "solver": "mist",
            "status": "done", "throughput": 10.7,
            "job": job().to_dict(), "plan": plan().to_dict()}
    return CampaignReport(
        name="round-trip", spec=spec(), cells=[cell],
        counters={"cells": 1, "done": 1, "solved": 1},
        executor="process-pool", elapsed_seconds=2.5)


def finding():
    return Finding(rule="determinism", path="pkg/a.py", line=3,
                   message="wall-clock reference", hint="inject it")


CASES = {
    StageConfig: stage,
    TrainingPlan: plan,
    TuningJob: job,
    SolveReport: report,
    ClusterDelta: lambda: (ClusterDelta.remove_nodes(1, group="l4")
                           + ClusterDelta.degrade_link(
                               0.5, link="inter_group")),
    CampaignSpec: spec,
    CampaignReport: campaign_report,
    Finding: finding,
    CheckResult: lambda: CheckResult(findings=(finding(),),
                                     rules=("determinism", "lock-order"),
                                     module_count=3),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_from_dict_reproduces_to_dict(cls):
    data = CASES[cls]().to_dict()
    # the stored form is JSON: round-trip through it, not just the dict
    stored = json.loads(json.dumps(data, sort_keys=True))
    assert cls.from_dict(stored).to_dict() == data


def test_every_from_dict_class_is_covered():
    """A class gaining a ``from_dict`` must gain a case above."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods = {item.name for item in node.body
                           if isinstance(item, ast.FunctionDef)}
                if {"to_dict", "from_dict"} <= methods:
                    found.add(node.name)
    assert found == {cls.__name__ for cls in CASES}
