#!/usr/bin/env python
"""Regenerate the golden plan-hash fixture for the Fig. 16 workload.

Run after an *intentional* cost-model or search change shifts the
winning plans, then commit the updated
``tests/baselines/PLANS_fig16.json`` alongside the change:

    PYTHONPATH=src python scripts/refresh_plan_fixtures.py

The fixture records, per incremental search space, the winning plan's
deterministic hash and predicted objective at smoke scale. The paired
test (``tests/baselines/test_plan_fixtures.py``) asserts that both the
compiled cost model and the per-config interpreter
(``CompiledExpr.interpret``, swapped in by the test) still reproduce
these values bit for bit — drift in either, or between them, fails
with a per-space diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.benchmarking import measure_fig16
from repro.core.spaces import get_scale

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "baselines" \
    / "PLANS_fig16.json"


def build_fixture(scale_name: str = "smoke") -> dict:
    scale = get_scale(scale_name)
    measured = measure_fig16(scale, prune=True)
    spaces = {
        name: {
            "plan_hash": measured["plan_hashes"][name],
            "objective": measured["per_space"][name]["objective"],
        }
        for name in measured["plan_hashes"]
    }
    return {
        "schema": "repro-plan-fixture/1",
        "scale": scale_name,
        "workload": measured["workload"],
        "spaces": spaces,
    }


def main() -> None:
    fixture = build_fixture()
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(fixture['spaces'])} spaces)")


if __name__ == "__main__":
    main()
