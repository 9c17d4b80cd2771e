"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py A/*.json B/*.json

Each file holds the last line ``bench/run.py`` printed for one run and
is named ``<workload>.<anything>.json``; the first directory given is
the baseline (A), the second the candidate (B). Runs pair up in
file-name order. For every workload and metric the table shows each
side's median and quartiles, the pairs B won (ties count for neither)
and a verdict against the bounds in ``BENCHMARK.json``:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, and not every B run beats every A run;
* ``improved`` — B won at least 9 of 10 pairs and the medians differ
  by more than A's quartile distance;
* ``within bound`` — otherwise.

Metrics without a bound (per-layer) get no verdict. Exits 1 when any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, int]:
    """(verdict, pairs B won) for one metric on one workload."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max((a3 - a1) / abs(a_med) if a_med else 0.0,
                 (b3 - b1) / abs(b_med) if b_med else 0.0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    gain = (wins >= 0.9 * min(len(a), len(b)) and sign * (b_med - a_med) < 0
            and abs(b_med - a_med) > a3 - a1)
    if spread > bound and not all_better:
        return "unresolved", wins
    if worse > bound:
        return "regressed", wins
    return ("improved" if gain else "within bound"), wins


def load(paths: list[Path]) -> dict[str, dict[str, dict[str, float]]]:
    """workload -> run name -> metric -> value."""
    runs: dict[str, dict[str, dict[str, float]]] = defaultdict(dict)
    for path in sorted(paths):
        result = json.loads(path.read_text().strip().splitlines()[-1])
        workload = path.name.split(".")[0]
        runs[workload][path.name] = {
            name: metric["value"] for name, metric in
            result["metrics"].items()}
        if not result["correct"]:
            print(f"note: {path} reports {result['failed']} failed "
                  f"of {result['attempted']}")
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)
    dirs = list(dict.fromkeys(path.parent for path in args.files))
    if len(dirs) != 2:
        parser.error("give the result files of exactly two directories")
    sides = [load([p for p in args.files if p.parent == d]) for d in dirs]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in declared["end_to_end"]}

    regressed = False
    print(f"A = {dirs[0]}   B = {dirs[1]}")
    print(f"{'workload':14} {'metric':26} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'wins':>6}  verdict")
    for workload in sorted(set(sides[0]) & set(sides[1])):
        runs_a, runs_b = sides[0][workload], sides[1][workload]
        names_a, names_b = sorted(runs_a), sorted(runs_b)
        metrics = [m for m in runs_a[names_a[0]] if m in runs_b[names_b[0]]]
        for metric in metrics:
            a = [runs_a[n][metric] for n in names_a]
            b = [runs_b[n][metric] for n in names_b]
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            spec = bounds.get(metric)
            verdict_text, wins_text = "-", "-"
            if spec is not None:
                verdict_text, wins = verdict(
                    a, b, spec["bound"], spec["better"] == "lower")
                wins_text = f"{wins}/{min(len(a), len(b))}"
                regressed |= verdict_text == "regressed"
            print(f"{workload:14} {metric:26} {fmt(qa):>34} {fmt(qb):>34} "
                  f"{change:+8.2%} {wins_text:>6}  {verdict_text}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
