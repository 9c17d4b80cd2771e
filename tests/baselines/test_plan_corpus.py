"""Plans did not move: the corpus re-solves to its checked-in record.

``PLANS_corpus.json`` records, per job of a fixed corpus (the Table-4
grid at quick and full scale, A100 at seq 4096, quarter batches, the
four baselines, and a mixed fleet with its cold and warm replans), the
plan and ``top_plans`` hashes, the predicted and measured metrics, the
configuration count, the search log and the search counters. A change
that must not move plans passes here unchanged. After an intentional
plan move, regenerate with::

    PYTHONPATH=src python scripts/refresh_plan_corpus.py

and explain each changed entry.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load_refresh_script():
    path = ROOT / "scripts" / "refresh_plan_corpus.py"
    spec = importlib.util.spec_from_file_location("refresh_plan_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def script():
    return _load_refresh_script()


@pytest.fixture(scope="module")
def fixture(script) -> dict:
    return json.loads(script.FIXTURE.read_text())


def test_fixture_is_normalized(script, fixture):
    assert fixture["schema"] == script.SCHEMA
    assert script.FIXTURE.read_text() == script.render(fixture)


def test_corpus_resolves_to_the_fixture(script, fixture):
    drift = script.drift(fixture, script.build_corpus())
    assert not drift, (
        "plans moved against PLANS_corpus.json (regenerate with "
        "scripts/refresh_plan_corpus.py only if intended):\n"
        + "\n".join(drift))
