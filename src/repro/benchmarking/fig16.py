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

from repro.core import INCREMENTAL_SPACES, MenuMemo, MistTuner
from repro.core.plan import TrainingPlan
from repro.evaluation import WorkloadSpec, calibrated_interference
from repro.evaluation.workloads import TuningScale

__all__ = ["fig16_spec", "measure_fig16", "plan_hash"]


def plan_hash(plan: "TrainingPlan | None") -> str | None:
    """Deterministic short hash of a plan's canonical JSON form."""
    if plan is None:
        return None
    return hashlib.sha256(
        plan.to_json(indent=None).encode()
    ).hexdigest()[:16]


def fig16_spec(scale_name: str) -> WorkloadSpec:
    """The Fig. 16 workload for one scale preset (paper: 22B on 32)."""
    if scale_name == "full":
        return WorkloadSpec("gpt3-22b", "L4", 32, 512, 2048)
    if scale_name == "smoke":
        return WorkloadSpec("gpt3-2.7b", "L4", 4, 64, 2048)
    return WorkloadSpec("gpt3-6.7b", "L4", 8, 128, 2048)


def _make_tuner(spec: WorkloadSpec, scale: TuningScale, space,
                interference) -> MistTuner:
    return MistTuner(
        spec.model, spec.cluster, seq_len=spec.seq_len,
        space=scale.apply(space), interference=interference,
        max_gacc_candidates=scale.max_gacc_candidates,
    )


def measure_fig16(scale: TuningScale, *, prune: bool = True,
                  parallel_rerun: bool = False) -> dict:
    """Tune the Fig. 16 workload over every incremental space.

    Returns a JSON-ready dict::

        {"wall_time_seconds": ..., "per_space": {name: {...}},
         "stats": {aggregated search counters},
         "plan_hashes": {name: hash-or-None},
         "parallel": {...} }            # only with parallel_rerun

    ``prune`` selects the search path; with ``parallel_rerun``
    the widest space is searched once more with one worker per core
    against the same menu memo — proving both that the fan-out returns
    the identical plan and that the memo serves the repeated
    subproblems (its ``memo_hits`` land in the ``parallel`` section).
    """
    spec = fig16_spec(scale.name)
    cluster = spec.cluster
    interference = calibrated_interference(not cluster.gpu.has_nvlink)
    memo = MenuMemo()

    per_space: dict[str, dict] = {}
    hashes: dict[str, str | None] = {}
    totals = {"cells_total": 0, "cells_explored": 0, "cells_pruned": 0,
              "cells_infeasible": 0, "configs_evaluated": 0,
              "configs_prefiltered": 0, "memo_hits": 0, "memo_misses": 0}
    wall = 0.0
    last = None
    for space in INCREMENTAL_SPACES:
        tuner = _make_tuner(spec, scale, space, interference)
        start = time.perf_counter()
        result = tuner.search(spec.global_batch, prune=prune, memo=memo)
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
        last = (tuner, result)

    out = {
        "workload": spec.name,
        "prune": prune,
        "wall_time_seconds": wall,
        "per_space": per_space,
        "stats": totals,
        "plan_hashes": hashes,
    }

    if parallel_rerun and last is not None:
        tuner, serial = last
        start = time.perf_counter()
        parallel = tuner.search(spec.global_batch, parallelism=0,
                                prune=prune, memo=memo)
        seconds = time.perf_counter() - start
        stats = parallel.stats.to_dict() if parallel.stats else {}
        out["parallel"] = {
            "seconds": seconds,
            "matches_serial": parallel.best_plan == serial.best_plan,
            "plan_hash": plan_hash(parallel.best_plan),
            "memo_hits": stats.get("memo_hits", 0),
        }
    return out
