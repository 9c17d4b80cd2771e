"""Golden plan-hash fixture: both evaluation paths reproduce the plans.

``PLANS_fig16.json`` pins, per incremental search space, the winning
plan's deterministic hash and predicted objective for the smoke-scale
Fig. 16 workload. Any drift — a cost-model edit, a changed tie-break, a
vectorization bug — fails here with a per-space diff naming exactly
which space moved and how, for the compiled closures and for the
per-config interpreter (:meth:`CompiledExpr.interpret`, swapped in for
``__call__``) independently.

After an intentional change, regenerate with::

    PYTHONPATH=src python scripts/refresh_plan_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.benchmarking import measure_fig16
from repro.core.spaces import get_scale
from repro.symbolic import CompiledExpr

FIXTURE = Path(__file__).parent / "PLANS_fig16.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module", params=["interpreted", "vectorized"])
def measured(request, golden) -> tuple[str, dict]:
    scale = get_scale(golden["scale"])
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "interpreted":
            patch.setattr(CompiledExpr, "__call__", CompiledExpr.interpret)
        # measure_fig16 searches against its own fresh MenuMemo
        return request.param, measure_fig16(scale, prune=True)


def _diff(golden: dict, measured: dict, path: str) -> list[str]:
    """Readable per-space drift report; empty when everything matches."""
    lines = []
    for name, want in sorted(golden["spaces"].items()):
        entry = measured["per_space"].get(name)
        got_hash = measured["plan_hashes"].get(name)
        if entry is None:
            lines.append(f"  {name}: space missing from measurement")
            continue
        if got_hash != want["plan_hash"]:
            lines.append(
                f"  {name}: plan_hash {want['plan_hash']} -> {got_hash}")
        if entry["objective"] != want["objective"]:
            lines.append(
                f"  {name}: objective {want['objective']!r} "
                f"-> {entry['objective']!r}")
    for name in measured["plan_hashes"]:
        if name not in golden["spaces"]:
            lines.append(f"  {name}: new space absent from fixture")
    if lines:
        lines.insert(0, f"{path} evaluation drifted from PLANS_fig16.json "
                        "(regenerate via scripts/refresh_plan_fixtures.py "
                        "if intentional):")
    return lines


def test_fixture_schema(golden):
    assert golden["schema"] == "repro-plan-fixture/1"
    assert golden["spaces"], "fixture must pin at least one space"
    for name, entry in golden["spaces"].items():
        assert set(entry) == {"plan_hash", "objective"}, name


def test_engine_reproduces_golden_plans(golden, measured):
    path, result = measured
    drift = _diff(golden, result, path)
    assert not drift, "\n".join(drift)


def test_fixture_is_normalized(golden):
    # the regen script writes sorted, indented JSON — a hand edit that
    # breaks this also breaks reviewable diffs on the next regen
    canonical = json.dumps(golden, indent=2, sort_keys=True) + "\n"
    assert FIXTURE.read_text() == canonical
