"""Self-test of the benchmark: ``python -m pytest bench -q`` (~45 s).

Not part of the tier-1 suite (``bench/`` is outside ``testpaths``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT,
          ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke",
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def printed(stdout: str) -> tuple[dict[str, tuple[float, str]], dict]:
    *lines, last = stdout.strip().splitlines()
    values = {}
    for line in lines:
        name, value, unit = line.split()
        values[name] = (float(value), unit)
    return values, json.loads(last)


@pytest.mark.parametrize("workload,trace", [
    *((w["name"], 0) for w in DECLARED["workloads"]),
    ("hetero-replan", 1), ("service-open", 1)])
def test_smoke_prints_every_declared_metric(workload, trace):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    values, result = printed(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value, unit = values[metric["name"]]
        assert unit == metric["unit"]
        assert result["metrics"][metric["name"]] == {"value": value,
                                                     "unit": unit}
        if not trace:
            assert value != 0, metric["name"]


def test_self_times_subtract_covered_children():
    tree = [
        spans.Span(1, 0, "root", 0.0, 10.0, 1, None),
        spans.Span(2, 1, "a", 1.0, 4.0, 1, None),
        spans.Span(3, 1, "b", 3.0, 6.0, 1, None),  # overlaps a
        spans.Span(4, 2, "leaf", 2.0, 3.0, 1, 7),
        spans.Span(5, 1, "b", 8.0, 12.0, 1, "hit"),  # runs past root
    ]
    assert spans.self_times(tree) == {1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0,
                                      5: 4.0}
    layers = spans.layers(tree)
    assert layers.self_s == {"root": 3.0, "a": 2.0, "b": 7.0, "leaf": 1.0}
    assert layers.calls["b"] == 2
    assert layers.rows == {"leaf": 7}
    assert layers.outcomes == {("b", "hit"): 1}
    assert (layers.root_s, layers.below_root_s) == (10.0, 10.0)


def test_failed_check_exits_1(monkeypatch, capsys):
    from repro.core.plan import PlanValidationError, TrainingPlan

    def reject(*_args, **_kwargs):
        raise PlanValidationError("rejected by the test")

    monkeypatch.setattr(TrainingPlan, "validate", reject)
    code = run.main(["--workload", "table4-quick", "--smoke",
                     "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_exits_2_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = smoke("table4-quick", 0, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
