#!/usr/bin/env python3
"""Heterogeneous-cluster tuning: a mixed A100 + L4 fleet.

The paper's memory-parallelism co-optimization pays off most when the
device pool itself is imbalanced: the best (dp, tp, ckpt, offloading)
point differs per GPU class, and the stage partition must respect each
class's memory. This example tunes GPT-3 1.3B on a fleet of 2x
A100-40GB plus 2x L4 (24 GB) and shows how Mist skews layers toward
the larger devices, then compares against Megatron-LM's worst-GPU
homogeneous fallback.

Run:  python examples/heterogeneous_tuning.py
"""

import warnings

from repro.api import TuningJob, solve
from repro.hardware import cluster_from_dict

CLUSTER = {
    "groups": [
        {"name": "a100", "gpu": "A100-40GB",
         "num_nodes": 1, "gpus_per_node": 2,
         "inter_node_bandwidth_gbps": 400},
        {"name": "l4", "gpu": "L4",
         "num_nodes": 1, "gpus_per_node": 2,
         "inter_node_bandwidth_gbps": 100},
    ],
    "inter_group_bandwidth_gbps": 100,
}

JOB = TuningJob.for_cluster(
    CLUSTER,
    model="gpt3-1.3b",
    global_batch=16,
    seq_len=2048,
    scale="smoke",       # keep the example fast; use "quick"/"full" for real runs
)


def main() -> None:
    cluster = cluster_from_dict(CLUSTER)
    print(cluster.describe(), "\n")

    # 1. Mist tunes the mixed fleet natively: per-group analyzers,
    #    group-aware stage partitioning, per-group memory budgets.
    report = solve(JOB, solver="mist")
    print(f"Mist evaluated {report.configurations_evaluated} configurations "
          f"in {report.tuning_time_seconds:.1f}s")
    print(report.plan.describe())
    for idx, (stage, peak) in enumerate(
            zip(report.plan.stages, report.result.stage_memory)):
        gpu = cluster.group_named(stage.device_group).gpu
        print(f"  stage {idx} on {gpu.name}: peak "
              f"{peak.peak / 2**30:.2f} GiB of {gpu.memory_gb:.0f} GB")
    print(f"measured: {report.throughput:.2f} samples/s\n")

    # 2. Baselines see the fleet as worst-GPU homogeneous (a warning
    #    explains the fallback) — the throughput gap is the value of
    #    heterogeneity-aware tuning.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = solve(JOB, solver="megatron")
    print(f"megatron (worst-GPU fallback): {base.throughput:.2f} samples/s")
    if base.throughput > 0:
        print(f"mist speedup: {report.throughput / base.throughput:.2f}x")


if __name__ == "__main__":
    main()
