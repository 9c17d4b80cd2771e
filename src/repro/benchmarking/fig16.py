"""Figure 16 measurement: tuning time across the incremental spaces.

The paper's claim (§5.3, Fig. 16) is that Mist's hierarchical search
stays tractable as the search space grows. This module measures our
tuner over the same incremental spaces on a scale-appropriate workload,
through either the prune-and-memoize engine (``prune=True``) or the
exhaustive reference path, and reports wall time, search counters, and
a deterministic hash of every space's winning plan.

Both ``benchmarks/test_fig16_tuning_time.py`` and the ``repro bench``
CLI harness call into here, so the pytest benchmark and the CI perf
artifact always measure the same thing.
"""

from __future__ import annotations

import hashlib
import time

from repro.api import MistSolver, TuningJob
from repro.core import INCREMENTAL_SPACES, MenuMemo, space_ref
from repro.core.plan import TrainingPlan
from repro.core.spaces import TuningScale, scale_ref

__all__ = ["fig16_job", "measure_fig16", "plan_hash"]


def plan_hash(plan: "TrainingPlan | None") -> str | None:
    """Deterministic short hash of a plan's canonical JSON form."""
    if plan is None:
        return None
    return hashlib.sha256(
        plan.to_json(indent=None).encode()
    ).hexdigest()[:16]


def fig16_job(scale: TuningScale) -> TuningJob:
    """The Fig. 16 workload for one scale preset (paper: 22B on 32)."""
    model, num_gpus, global_batch = {
        "full": ("gpt3-22b", 32, 512),
        "smoke": ("gpt3-2.7b", 4, 64),
    }.get(scale.name, ("gpt3-6.7b", 8, 128))
    return TuningJob(model=model, num_gpus=num_gpus,
                     global_batch=global_batch, scale=scale_ref(scale))


def measure_fig16(scale: TuningScale, *, prune: bool = True) -> dict:
    """Tune the Fig. 16 workload over every incremental space.

    Returns a JSON-ready dict::

        {"wall_time_seconds": ..., "per_space": {name: {...}},
         "stats": {aggregated search counters},
         "plan_hashes": {name: hash-or-None}}

    ``prune`` selects the search path.
    """
    job = fig16_job(scale)
    memo = MenuMemo()

    per_space: dict[str, dict] = {}
    hashes: dict[str, str | None] = {}
    totals = {"cells_total": 0, "cells_explored": 0, "cells_pruned": 0,
              "cells_infeasible": 0, "configs_evaluated": 0,
              "configs_prefiltered": 0, "memo_hits": 0, "memo_misses": 0}
    wall = 0.0
    for space in INCREMENTAL_SPACES:
        tuner = MistSolver().make_tuner(job.with_(space=space_ref(space)))
        start = time.perf_counter()
        result = tuner.search(job.global_batch, prune=prune, memo=memo)
        seconds = time.perf_counter() - start
        wall += seconds
        entry = {
            "seconds": seconds,
            "configurations_evaluated": result.configurations_evaluated,
            "objective": (float(result.predicted_iteration_time)
                          if result.found else None),
        }
        if result.stats is not None:
            entry["stats"] = result.stats.to_dict()
            for key in totals:
                totals[key] += getattr(result.stats, key)
        per_space[space.name] = entry
        hashes[space.name] = plan_hash(result.best_plan)

    return {
        "workload": job.name,
        "prune": prune,
        "wall_time_seconds": wall,
        "per_space": per_space,
        "stats": totals,
        "plan_hashes": hashes,
    }
