#!/usr/bin/env python
"""Regenerate (or check) the "plans did not move" corpus fixture.

``tests/baselines/PLANS_corpus.json`` records what every solve of a
fixed job corpus returns: the winning plan's hash, the ``top_plans``
hashes, ``repr`` of the predicted and measured metrics, the number of
configurations evaluated, the search log and the search counters (memo
hits and misses excluded; they depend on what the process solved
before). A change that must not move plans keeps the fixture passing
unchanged; a plan-moving change rewrites it and explains each changed
entry:

    # rewrite the fixture from fresh solves
    PYTHONPATH=src python scripts/refresh_plan_corpus.py
    # re-solve and compare; exit 1 and name every drifted field
    PYTHONPATH=src python scripts/refresh_plan_corpus.py --check

The corpus:

* the paper's Table-4 GPT-3 grid on L4 at quick scale;
* gpt3-1.3b and gpt3-2.7b of that grid at full scale;
* gpt3-1.3b to gpt3-13b on A100-40GB at sequence length 4096, quick;
* gpt3-1.3b to gpt3-6.7b on L4 at a quarter of the Table-4 batch;
* the ``uniform``, ``aceso``, ``megatron`` and ``deepspeed`` solvers on
  gpt3-1.3b to gpt3-6.7b of the grid;
* a mixed A100 + L4 fleet: a cold solve, a warm replan per kind of
  cluster delta, and a cold solve of each post-delta job.

Entries are keyed ``<job fingerprint>/<solver>`` (``mist-replan`` for
the warm replans), not by ``job.name``, which omits the scale.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Iterator

from repro.api import SolveReport, TuningJob, delta_job, replan, solve
from repro.benchmarking.fig16 import plan_hash
from repro.core.memo import GLOBAL_MENU_MEMO

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "baselines" \
    / "PLANS_corpus.json"
SCHEMA = "repro-plan-corpus/1"

#: the paper's Table 4 GPT-3 grid on L4: (model, GPUs, global batch)
TABLE4_GRID = (
    ("gpt3-1.3b", 2, 32), ("gpt3-2.7b", 4, 64), ("gpt3-6.7b", 8, 128),
    ("gpt3-13b", 16, 256), ("gpt3-22b", 32, 512),
)
BASELINES = ("uniform", "aceso", "megatron", "deepspeed")

#: examples/mixed_a100_l4.json, copied so the corpus keeps solving the
#: same fleet if the example changes
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
#: one cluster delta of each kind
DELTAS = {
    "resize-l4": {"ops": [{"op": "resize_group", "group": "l4",
                           "gpus_per_node": 2}]},
    "degrade-link": {"ops": [{"op": "degrade_link", "factor": 0.5,
                              "link": "inter_group"}]},
    "add-a100": {"ops": [{"op": "add_nodes", "count": 1,
                          "group": "a100"}]},
    "drop-a100": {"ops": [{"op": "remove_group", "group": "a100"}]},
}

#: search counters that depend on the process's memo history
_VOLATILE_STATS = ("memo_hits", "memo_misses")


def _homogeneous() -> Iterator[tuple[TuningJob, str]]:
    for model, gpus, batch in TABLE4_GRID:
        yield TuningJob(model=model, num_gpus=gpus, global_batch=batch,
                        scale="quick"), "mist"
    for model, gpus, batch in TABLE4_GRID[:2]:
        yield TuningJob(model=model, num_gpus=gpus, global_batch=batch,
                        scale="full"), "mist"
    for model, gpus, batch in TABLE4_GRID[:4]:
        yield TuningJob(model=model, num_gpus=gpus, global_batch=batch,
                        gpu="A100-40GB", seq_len=4096, scale="quick"), "mist"
    for model, gpus, batch in TABLE4_GRID[:3]:
        yield TuningJob(model=model, num_gpus=gpus, global_batch=batch // 4,
                        scale="quick"), "mist"
    for solver in BASELINES:
        for model, gpus, batch in TABLE4_GRID[:3]:
            yield TuningJob(model=model, num_gpus=gpus, global_batch=batch,
                            scale="quick"), solver


def solves() -> Iterator[tuple[str, TuningJob, Callable[[], SolveReport]]]:
    """``(solver label, job, solve)`` for every corpus entry, in order.

    Every solve starts from a cleared menu memo, except the warm
    replans, which reuse what the base solve left in it (that reuse is
    what a replan is for).
    """
    for job, solver in _homogeneous():
        yield solver, job, lambda job=job, solver=solver: solve(
            job, solver=solver)
    base = TuningJob.for_cluster(MIXED_A100_L4, model="gpt3-2.7b",
                                 global_batch=64, scale="smoke")
    solved: list[SolveReport] = []

    def solve_base() -> SolveReport:
        solved.append(solve(base))
        return solved[0]

    yield "mist", base, solve_base
    for delta in DELTAS.values():
        yield "mist-replan", delta_job(base, delta), (
            lambda delta=delta: replan(base, delta, incumbent=solved[0]))
    for delta in DELTAS.values():
        job = delta_job(base, delta)
        yield "mist", job, lambda job=job: solve(job)


def record(report: SolveReport) -> dict:
    """The fields of ``report`` that must not move."""
    stats = {key: value for key, value in report.search_stats.items()
             if key not in _VOLATILE_STATS}
    return {
        "job": report.job.name,
        "plan": plan_hash(report.plan),
        "top_plans": [plan_hash(plan) for plan in report.top_plans],
        "predicted": repr(report.predicted),
        "measured": repr(report.measured),
        "configurations_evaluated": report.configurations_evaluated,
        "search_log": report.search_log,
        "search_stats": stats,
    }


def build_corpus() -> dict:
    """Solve every corpus job; the fixture's content."""
    entries: dict[str, dict] = {}
    GLOBAL_MENU_MEMO.clear()
    for solver, job, run in solves():
        if solver != "mist-replan":
            GLOBAL_MENU_MEMO.clear()
        key = f"{job.fingerprint()}/{solver}"
        if key in entries:
            raise ValueError(f"duplicate corpus entry {key}")
        # round-trip through JSON so tuples compare like the fixture's lists
        entries[key] = json.loads(json.dumps(record(run())))
    GLOBAL_MENU_MEMO.clear()
    return {"schema": SCHEMA, "entries": entries}


def drift(fixture: dict, corpus: dict) -> list[str]:
    """Every field of ``corpus`` that differs from ``fixture``."""
    problems = []
    want, got = fixture["entries"], corpus["entries"]
    for key in sorted(set(want) | set(got)):
        if key not in got:
            problems.append(f"{key}: entry missing from the corpus")
        elif key not in want:
            problems.append(f"{key}: entry absent from the fixture")
        else:
            for name in sorted(set(want[key]) | set(got[key])):
                if want[key].get(name) != got[key].get(name):
                    problems.append(
                        f"{key} ({want[key]['job']}): {name} moved")
    return problems


def render(corpus: dict) -> str:
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the fixture instead of "
                             "rewriting it; exit 1 on any drift")
    args = parser.parse_args(argv)
    corpus = build_corpus()
    if args.check:
        problems = drift(json.loads(FIXTURE.read_text()), corpus)
        for line in problems:
            print(line)
        print(f"{len(corpus['entries'])} entries, {len(problems)} drifted")
        return 1 if problems else 0
    FIXTURE.write_text(render(corpus))
    print(f"wrote {FIXTURE} ({len(corpus['entries'])} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
