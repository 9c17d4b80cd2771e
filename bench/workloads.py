"""The benchmark's four workloads, built only from the public API.

``--seed`` picks arrival times and the order of jobs and deltas; every
seed runs the same jobs, so plan quality is identical across seeds.

* ``table4-quick`` — the paper's Table-4 GPT-3 grid on L4 at
  ``scale="quick"``, cold solves. Every search layer carries time:
  intra-stage, execution and (on 13b and 22b only) the MILP.
* ``full-menus`` — ``scale="full"`` on the two smallest grid points:
  the intra-stage tuner is nearly the whole solve and the MILP never
  runs, so a cost-model change shows here and a MILP change must not.
* ``hetero-replan`` — a mixed A100 + L4 fleet: one cold solve, then a
  warm replan per kind of cluster delta. The only heterogeneous path,
  the only one with two fabrics, the only one that reuses the menu memo
  across solves.
* ``service-open`` — an open loop against a ``repro serve`` daemon
  (see ``service_driver.py``): plan-cache hits beside cold solves.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Generator
from typing import Any, NamedTuple

#: the paper's Table 4 GPT-3 grid on L4: (model, GPUs, global batch)
TABLE4_GRID = (
    ("gpt3-1.3b", 2, 32), ("gpt3-2.7b", 4, 64), ("gpt3-6.7b", 8, 128),
    ("gpt3-13b", 16, 256), ("gpt3-22b", 32, 512),
)

#: the cluster of examples/mixed_a100_l4.json, copied so the benchmark
#: keeps measuring the same fleet if the example changes
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

#: one delta of each kind, as ClusterDelta documents
DELTAS = {
    "resize-l4": {"ops": [{"op": "resize_group", "group": "l4",
                           "gpus_per_node": 2}]},
    "degrade-link": {"ops": [{"op": "degrade_link", "factor": 0.5,
                              "link": "inter_group"}]},
    "add-a100": {"ops": [{"op": "add_nodes", "count": 1,
                          "group": "a100"}]},
    "drop-a100": {"ops": [{"op": "remove_group", "group": "a100"}]},
}


class Op(NamedTuple):
    """One timed call into the program."""

    kind: str
    #: the job whose plan the call returns (post-delta for a replan)
    job: Any
    #: name of the benchmark's root span around the call
    entry: str
    call: Callable[[], Any]
    #: untimed preparation, run just before the call
    before: Callable[[], None] | None = None


#: an episode yields ops and receives each op's report back
Episode = Generator[Op, Any, None]


def grid_jobs(api: Any, grid: tuple, scale: str) -> dict[str, Any]:
    return {f"{model}/{gpus}/B{batch}": api.TuningJob(
                model=model, num_gpus=gpus, global_batch=batch, scale=scale)
            for model, gpus, batch in grid}


def cold_passes(api: Any, jobs: dict[str, Any],
                rng: random.Random) -> Episode:
    """Every job once, in seeded order, each solved with a cleared memo."""
    from repro.core.memo import GLOBAL_MENU_MEMO

    for kind in rng.sample(sorted(jobs), len(jobs)):
        job = jobs[kind]
        yield Op(kind, job, "api.solve", lambda job=job: api.solve(job),
                 before=GLOBAL_MENU_MEMO.clear)


def replan_episode(api: Any, jobs: dict[str, Any],
                   rng: random.Random) -> Episode:
    """Cold-solve the base job, then warm-replan each delta from it."""
    from repro.core.memo import GLOBAL_MENU_MEMO

    base_job = jobs["base"]
    base = yield Op("base", base_job, "api.solve",
                    lambda: api.solve(base_job),
                    before=GLOBAL_MENU_MEMO.clear)
    if base is None:
        return
    for name in rng.sample(sorted(DELTAS), len(DELTAS)):
        yield Op(f"replan:{name}", jobs[f"replan:{name}"], "api.replan",
                 lambda name=name: api.replan(base_job, DELTAS[name],
                                              incumbent=base))


def hetero_jobs(api: Any, smoke: bool) -> dict[str, Any]:
    base = api.TuningJob.for_cluster(MIXED_A100_L4, model="gpt3-2.7b",
                                     global_batch=64, scale="smoke")
    jobs = {"base": base}
    for name, delta in DELTAS.items():
        jobs[f"replan:{name}"] = api.delta_job(base, delta)
    return jobs


class ClosedLoop(NamedTuple):
    """One client that sends its next call when the last one returns."""

    #: (api, smoke) -> {kind: job}; the first job builds the first tuner
    jobs: Callable[[Any, bool], dict[str, Any]]
    #: (api, jobs, rng) -> one pass over the jobs
    episode: Callable[[Any, dict[str, Any], random.Random], Episode]


CLOSED = {
    "table4-quick": ClosedLoop(
        lambda api, smoke: grid_jobs(api, TABLE4_GRID[:2], "smoke")
        if smoke else grid_jobs(api, TABLE4_GRID, "quick"),
        cold_passes),
    "full-menus": ClosedLoop(
        lambda api, smoke: grid_jobs(api, TABLE4_GRID[:1], "quick")
        if smoke else grid_jobs(api, TABLE4_GRID[:2], "full"),
        cold_passes),
    "hetero-replan": ClosedLoop(hetero_jobs, replan_episode),
}


# -- service-open ---------------------------------------------------------

#: mean request rate of the open loop
SERVICE_RATE = 12.0


def service_jobs(api: Any, smoke: bool) -> dict[str, Any]:
    """32 distinct smoke mist jobs (4 with ``smoke``)."""
    jobs = {}
    for model, gpus in (("gpt3-1.3b", 2), ("gpt3-2.7b", 4)):
        for batch in (8, 16, 32, 64):
            for flash in (True, False):
                for seq_len in (1024, 2048):
                    kind = (f"{model}/{gpus}/B{batch}/s{seq_len}/"
                            f"{'flash' if flash else 'noflash'}")
                    jobs[kind] = api.TuningJob(
                        model=model, num_gpus=gpus, global_batch=batch,
                        seq_len=seq_len, flash=flash, scale="smoke")
    if smoke:
        return dict(list(jobs.items())[::8])
    return jobs


def warmup_job(api: Any) -> Any:
    """A job outside :func:`service_jobs`, solved once per daemon start."""
    return api.TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=4,
                         scale="smoke")


def service_schedule(n_jobs: int, n_requests: int,
                     rng: random.Random) -> list[tuple[float, int]]:
    """Poisson arrivals as ``(due offset, job index)``.

    First visits are spread evenly over the run; every other request
    revisits a job already seen, so cache reads sit beside cache writes
    throughout.
    """
    firsts = {round(k * n_requests / n_jobs): k for k in range(n_jobs)}
    order = rng.sample(range(n_jobs), n_jobs)
    seen: list[int] = []
    due = 0.0
    out = []
    for i in range(n_requests):
        due += rng.expovariate(SERVICE_RATE)
        if i in firsts:
            job = order[firsts[i]]
            seen.append(job)
        else:
            job = rng.choice(seen)
        out.append((due, job))
    return out
