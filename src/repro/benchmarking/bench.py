"""The ``repro bench`` snapshot: schema, runner, and regression gates.

One invocation produces a ``BENCH_4.json`` document::

    {
      "schema": "repro-bench/1",
      "scale": "smoke",
      "environment": {"python": ..., "platform": ..., "cpu_count": ...,
                      "version": ...},
      "benchmarks": {
        "fig16_tuning_time":          {... pruned search ...},
        "fig16_exhaustive_reference": {... exhaustive search path ...},
        "fig_replan":                 {... warm-vs-cold replan pass ...}
      },
      "derived": {
        "fig16_speedup": <exhaustive wall / pruned wall>,
        "plans_match_exhaustive": true,
        "fig_replan_speedup": <geomean cold/warm configs evaluated>,
        "replan_plans_match": true
      }
    }

Gates (used by the CI ``perf`` job):

* :func:`validate_bench` — internal consistency: every pruned plan
  hash must equal the exhaustive reference's, and the pruned and
  memo-hit counters must be nonzero (a silent fallback to exhaustive
  search would otherwise pass unnoticed);
* :func:`check_against_baseline` — wall-time regression against the
  committed baseline snapshot (default threshold: 25%), any drift in
  the deterministic work counters and plan hashes it records, plus a
  schema / scale sanity check;
* :func:`check_warm_speedup` — warm replans must evaluate at least the
  given factor fewer configurations than cold searches (CI: 2x).
"""

from __future__ import annotations

import os
import platform
import sys

from repro import __version__
from repro.core.spaces import get_scale

from .fig16 import measure_fig16, plan_hash
from .fig_replan import measure_replan

__all__ = ["BENCH_SCHEMA", "check_against_baseline", "check_warm_speedup",
           "format_bench", "plan_hash", "run_bench", "validate_bench"]

BENCH_SCHEMA = "repro-bench/1"

#: the benchmark whose wall time the baseline gate watches
PRIMARY_BENCH = "fig16_tuning_time"
REFERENCE_BENCH = "fig16_exhaustive_reference"
#: the warm-vs-cold elastic replan pass
REPLAN_BENCH = "fig_replan"


def run_bench(scale_name: str = "smoke", *,
              include_exhaustive: bool = True,
              include_replan: bool = True) -> dict:
    """Run the benchmark suite at ``scale_name`` and build the snapshot.

    ``include_exhaustive=False`` skips the exhaustive reference pass
    (and with it the plan-hash cross-check) — useful for quick local
    timing runs, never for the CI artifact. ``include_replan=False``
    skips the warm-vs-cold replan pass and its speedup gate.
    """
    scale = get_scale(scale_name)
    benchmarks: dict[str, dict] = {}
    benchmarks[PRIMARY_BENCH] = measure_fig16(scale, prune=True)
    derived: dict = {}
    pruned = benchmarks[PRIMARY_BENCH]
    if include_exhaustive:
        benchmarks[REFERENCE_BENCH] = measure_fig16(scale, prune=False)
        reference = benchmarks[REFERENCE_BENCH]
        derived["fig16_speedup"] = (
            reference["wall_time_seconds"] / pruned["wall_time_seconds"]
            if pruned["wall_time_seconds"] > 0 else 0.0
        )
        derived["plans_match_exhaustive"] = (
            pruned["plan_hashes"] == reference["plan_hashes"]
        )
    if include_replan:
        benchmarks[REPLAN_BENCH] = measure_replan(scale)
        replan = benchmarks[REPLAN_BENCH]
        derived["fig_replan_speedup"] = replan["config_speedup_geomean"]
        derived["replan_plans_match"] = replan["plans_match"]
    return {
        "schema": BENCH_SCHEMA,
        "scale": scale.name,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "version": __version__,
        },
        "benchmarks": benchmarks,
        "derived": derived,
    }


def validate_bench(result: dict) -> list[str]:
    """Internal-consistency failures of one snapshot (empty = OK)."""
    problems: list[str] = []
    pruned = result["benchmarks"].get(PRIMARY_BENCH)
    if pruned is None:
        return [f"snapshot carries no {PRIMARY_BENCH!r} benchmark"]
    derived = result.get("derived", {})
    if "plans_match_exhaustive" in derived and \
            not derived["plans_match_exhaustive"]:
        reference = result["benchmarks"][REFERENCE_BENCH]
        drifted = sorted(
            name for name, value in pruned["plan_hashes"].items()
            if reference["plan_hashes"].get(name) != value
        )
        problems.append(
            "pruned plans drifted from the exhaustive reference: "
            + ", ".join(drifted)
        )
    stats = pruned.get("stats", {})
    if stats.get("cells_pruned", 0) <= 0:
        problems.append("branch-and-bound pruned no (S, G) cell — the "
                        "search silently fell back to exhaustive")
    if stats.get("configs_prefiltered", 0) <= 0:
        problems.append("the memory pass rejected no configuration")
    # a pruned search may share no subproblem between its cells (quick
    # scale does not), so the fig16 passes count together
    memo_hits = sum(
        result["benchmarks"][name].get("stats", {}).get("memo_hits", 0)
        for name in (PRIMARY_BENCH, REFERENCE_BENCH)
        if name in result["benchmarks"])
    if memo_hits <= 0:
        problems.append("memoization recorded no hit across the suite")
    replan = result["benchmarks"].get(REPLAN_BENCH)
    if replan is not None:
        if not replan.get("plans_match", False):
            drifted = sorted(
                name for name, entry in replan.get("scenarios", {}).items()
                if not entry.get("plans_match", False)
            )
            problems.append(
                "warm replan plans drifted from the cold search: "
                + ", ".join(drifted)
            )
        if replan.get("warm_memo_hits", 0) <= 0:
            problems.append(
                "warm replans recorded no memo hit — unchanged-group "
                "menu reuse across cluster deltas is broken"
            )
        unmatched = sorted(
            name for name, entry in replan.get("scenarios", {}).items()
            if not entry.get("warm", {}).get("matched", False)
        )
        if unmatched:
            problems.append(
                "replan could not locate the incumbent's (S, G) cell "
                "on the delta'd cluster: " + ", ".join(unmatched)
            )
    return problems


def _pinned_fields(benchmarks: dict, names: set[str]) -> dict[str, object]:
    """The deterministic fields of the ``names`` passes, keyed by path.

    These are the fig16 plan hashes, the pruned and exhaustive
    ``stats`` counters (summed and per space), and each fig_replan
    scenario's cold and warm work and plan hash.
    """
    fields: dict[str, object] = {}
    for name in (PRIMARY_BENCH, REFERENCE_BENCH):
        if name not in names:
            continue
        bench = benchmarks[name]
        for space, value in bench.get("plan_hashes", {}).items():
            fields[f"{name}.plan_hashes[{space}]"] = value
        for key, value in bench.get("stats", {}).items():
            fields[f"{name}.stats.{key}"] = value
        for space, entry in bench.get("per_space", {}).items():
            for key, value in entry.get("stats", {}).items():
                fields[f"{name}.per_space[{space}].stats.{key}"] = value
    if REPLAN_BENCH in names:
        scenarios = benchmarks[REPLAN_BENCH].get("scenarios", {})
        for scenario, entry in scenarios.items():
            for side in ("cold", "warm"):
                for key in ("configurations_evaluated", "cells_explored",
                            "plan_hash"):
                    fields[f"{REPLAN_BENCH}.{scenario}.{side}.{key}"] = \
                        entry.get(side, {}).get(key)
    return fields


def check_against_baseline(current: dict, baseline: dict, *,
                           max_regression: float = 0.25,
                           min_abs_seconds: float = 1.0) -> list[str]:
    """Regression failures vs the committed baseline (empty = OK).

    A wall-time regression must exceed *both* the relative threshold
    and ``min_abs_seconds`` of absolute drift — sub-second smoke runs
    are scheduler-noise-dominated and would otherwise flake the gate.
    Work counters and plan hashes must match the baseline exactly in
    every pass both snapshots ran (see :func:`_pinned_fields`); a
    change meant to move them regenerates the baseline.
    """
    problems: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        problems.append(
            f"baseline schema {baseline.get('schema')!r} does not match "
            f"current {current.get('schema')!r} — regenerate the baseline"
        )
        return problems
    if baseline.get("scale") != current.get("scale"):
        problems.append(
            f"baseline was recorded at scale {baseline.get('scale')!r}, "
            f"this run is {current.get('scale')!r}"
        )
        return problems
    base = baseline["benchmarks"].get(PRIMARY_BENCH, {})
    cur = current["benchmarks"].get(PRIMARY_BENCH, {})
    base_wall = base.get("wall_time_seconds")
    cur_wall = cur.get("wall_time_seconds")
    if base_wall and cur_wall and \
            cur_wall > base_wall * (1.0 + max_regression) and \
            cur_wall - base_wall > min_abs_seconds:
        problems.append(
            f"fig16 tuning wall-time regressed "
            f"{cur_wall / base_wall - 1.0:+.0%} over the baseline "
            f"({cur_wall:.2f}s vs {base_wall:.2f}s, "
            f"threshold +{max_regression:.0%})"
        )
    names = set(baseline["benchmarks"]) & set(current["benchmarks"])
    base_fields = _pinned_fields(baseline["benchmarks"], names)
    cur_fields = _pinned_fields(current["benchmarks"], names)
    for path in sorted(base_fields.keys() | cur_fields.keys()):
        was = base_fields.get(path, "absent")
        now = cur_fields.get(path, "absent")
        if was != now:
            problems.append(
                f"{path} differs from the baseline: {was} -> {now}")
    return problems


def check_warm_speedup(current: dict, *,
                       min_speedup: float = 2.0) -> list[str]:
    """Warm-vs-cold replan speedup failures (empty = OK).

    The gated quantity is the geometric mean of per-scenario
    ``cold configs_evaluated / warm configs_evaluated`` ratios —
    deterministic work counters, not wall time, so the gate cannot
    flake with machine load. Applies only when the snapshot carries the
    replan pass; ``include_replan=False`` snapshots pass vacuously.
    """
    speedup = current.get("derived", {}).get("fig_replan_speedup")
    if speedup is None or min_speedup <= 0:
        return []
    if speedup < min_speedup:
        return [
            f"warm replan evaluates only {speedup:.2f}x fewer "
            f"configurations than a cold search "
            f"(gate: >= {min_speedup:.1f}x)"
        ]
    return []


def format_bench(result: dict) -> str:
    """Human-readable summary of one snapshot."""
    lines = [f"repro bench — scale {result['scale']} "
             f"(schema {result['schema']})"]
    for name, bench in result["benchmarks"].items():
        if "scenarios" in bench:
            lines.append(f"  {name}: {bench['wall_time_seconds']:.2f}s")
            for scen, entry in bench["scenarios"].items():
                lines.append(
                    f"    {scen:34s} {entry['config_speedup']:6.2f}x "
                    f"fewer configs warm "
                    f"[{entry['delta']}; identical="
                    f"{entry['plans_match']}]")
            continue
        lines.append(f"  {name}: {bench['wall_time_seconds']:.2f}s "
                     f"({bench['workload']})")
        for space, entry in bench["per_space"].items():
            stats = entry.get("stats", {})
            detail = (f" [{stats['cells_explored']} explored / "
                      f"{stats['cells_pruned']} pruned / "
                      f"{stats['memo_hits']} memo-hits]"
                      if stats else "")
            lines.append(f"    {space:34s} {entry['seconds']:7.2f}s"
                         f"{detail}")
    derived = result.get("derived", {})
    if "fig16_speedup" in derived:
        lines.append(f"  speedup vs exhaustive: "
                     f"{derived['fig16_speedup']:.2f}x  "
                     f"(plans match: {derived['plans_match_exhaustive']})")
    if "fig_replan_speedup" in derived:
        lines.append(f"  warm replan vs cold search: "
                     f"{derived['fig_replan_speedup']:.2f}x fewer configs "
                     f"(plans match: {derived['replan_plans_match']})")
    return "\n".join(lines)


def main_check(current: dict, baseline: dict | None, *,
               max_regression: float = 0.25,
               min_warm_speedup: float = 0.0, out=None) -> int:
    """Apply all gates; print verdicts; return a process exit code."""
    out = out if out is not None else sys.stdout
    problems = validate_bench(current)
    problems += check_warm_speedup(current, min_speedup=min_warm_speedup)
    if baseline is not None:
        problems += check_against_baseline(
            current, baseline, max_regression=max_regression)
    for problem in problems:
        print(f"FAIL: {problem}", file=out)
    if not problems:
        print("bench gates: OK", file=out)
    return 1 if problems else 0


__all__.append("main_check")
