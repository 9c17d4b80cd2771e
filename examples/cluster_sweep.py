#!/usr/bin/env python3
"""Multi-node sweep as a campaign: one model across cluster shapes.

Tunes the same GPT-3 model on several simulated clusters (PCIe L4 vs
NVLink A100, single- and multi-node) through the declarative Campaign
API and reports how the chosen strategy shifts with the hardware — the
paper's Section 6.2 observation that memory-tight PCIe machines reward
aggressive memory-parallelism co-optimization, while NVLink machines
run closer to their physical limits.

The whole sweep is one :class:`~repro.campaigns.CampaignSpec` with a
cluster axis; sequence lengths follow the paper's per-GPU-type default
(2048 on L4, 4096 on A100). Set ``REPRO_CAMPAIGN_DIR`` to make the run
durable: a resumable manifest plus plan cache land there, and re-running
the script resumes instead of re-searching.

Run:  python examples/cluster_sweep.py            (paper-scale, minutes)
      python examples/cluster_sweep.py --smoke    (tiny CI grid, ~10s)
"""

import os
import sys
from pathlib import Path

from repro.campaigns import CampaignSpec, run_campaign

SMOKE = "--smoke" in sys.argv[1:]

SPEC = CampaignSpec(
    name="cluster-sweep-smoke" if SMOKE else "cluster-sweep",
    solvers=("mist",),
    models=("gpt3-1.3b",) if SMOKE else ("gpt3-6.7b",),
    clusters=(
        ({"gpu": "L4", "num_gpus": 2}, {"gpu": "L4", "num_gpus": 4})
        if SMOKE else
        ({"gpu": "L4", "num_gpus": 8}, {"gpu": "L4", "num_gpus": 16},
         {"gpu": "A100-40GB", "num_gpus": 8},
         {"gpu": "A100-40GB", "num_gpus": 16})
    ),
    scales=("smoke",) if SMOKE else ("quick",),
    global_batches=(16,) if SMOKE else (128,),
    interference="none" if SMOKE else "auto",
)


def _print_cell(record: dict, report) -> None:
    name = f"{record['cluster']}"
    if record["status"] != "done":
        print(f"{name:18s}: failed ({record['error']})")
        return
    origin = {"cache": " (cached)", "manifest": " (resumed)"}.get(
        record["source"] or "", "")
    if report is None or report.plan is None:
        print(f"{name:18s} seq={record['seq_len']}: no feasible plan")
        return
    plan = report.plan
    stage0 = plan.stages[0]
    print(f"{name:18s} seq={record['seq_len']}: "
          f"{record['throughput']:6.2f} samples/s"
          f"  S={plan.num_stages} G={plan.gacc}  "
          f"stage0[{stage0.describe()}]{origin}")


def main() -> None:
    from repro.campaigns import CampaignError

    model = SPEC.models[0]
    print(f"model: {model}, global batch {SPEC.global_batches[0]}\n")
    directory = os.environ.get("REPRO_CAMPAIGN_DIR")
    resume = bool(directory) and \
        (Path(directory) / "manifest.json").exists()
    try:
        report = run_campaign(SPEC, directory=directory, resume=resume,
                              on_event=_print_cell)
    except CampaignError:
        # the directory holds a different grid (e.g. --smoke toggled):
        # start that directory over instead of dying on the mismatch
        print("(existing manifest is for a different grid; "
              "starting fresh)\n")
        report = run_campaign(SPEC, directory=directory, resume=False,
                              on_event=_print_cell)
    counters = report.counters
    print(f"\n{counters['done']}/{counters['cells']} cells done "
          f"(solved {counters['solved']}, cache {counters['cache_hits']}, "
          f"manifest {counters['manifest_hits']})")


if __name__ == "__main__":
    main()
