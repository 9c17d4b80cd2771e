"""The checked-in calibration table is what the fit produces, bit for bit.

``calibrated_interference`` reads Algorithm 1's factors from
``repro.costmodel.calibration_table``; these tests refit both fabrics
with ``scripts/refresh_calibration.py``'s own check, so a scipy, numpy
or oracle change that moves the fit fails here instead of silently
moving plans, and they tie the table to the plan cache's version.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from repro.api.cache import SOLVER_SEMANTICS
from repro.costmodel.calibration_table import PAIR_VECTORS

ROOT = Path(__file__).resolve().parents[2]

#: (SOLVER_SEMANTICS, SHA-256 of ``repr(PAIR_VECTORS)``) at which the
#: table was last recorded
RECORDED_TABLE = (
    1, "4018153453e844bd8408e643ca252bdf9473a28d02bcf83d2094157d18d928b7")


def _load_refresh_script():
    path = ROOT / "scripts" / "refresh_calibration.py"
    spec = importlib.util.spec_from_file_location("refresh_calibration", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refit_reproduces_the_table():
    script = _load_refresh_script()
    models = script.refit()
    assert set(models) == set(PAIR_VECTORS)
    assert script.drift(models) == [], (
        "the fit no longer reproduces calibration_table.py; if the change "
        "is intended, run scripts/refresh_calibration.py and bump "
        "SOLVER_SEMANTICS")


def test_table_change_bumps_solver_semantics():
    digest = hashlib.sha256(repr(PAIR_VECTORS).encode()).hexdigest()
    semantics, recorded = RECORDED_TABLE
    assert digest == recorded or semantics != SOLVER_SEMANTICS, (
        "calibration_table.py changed: bump SOLVER_SEMANTICS in "
        "repro/api/cache.py (otherwise the daemon serves plans priced "
        "with the old factors), then record the new (SOLVER_SEMANTICS, "
        f"digest) pair here: digest {digest}")
    assert (SOLVER_SEMANTICS, digest) == RECORDED_TABLE, (
        f"SOLVER_SEMANTICS is now {SOLVER_SEMANTICS}: record "
        f"({SOLVER_SEMANTICS}, {digest!r}) as RECORDED_TABLE")
