#!/usr/bin/env python
"""Refit Algorithm 1's slowdown factors and rewrite the checked-in table.

:func:`repro.costmodel.calibrated_interference` reads its factors from
``src/repro/costmodel/calibration_table.py`` instead of fitting them at
run time. That table is the output of
:func:`repro.evaluation.runner.refit_interference` (a Nelder-Mead fit
against the execution engine's contention oracle; needs scipy) for each
fabric:

    # rewrite the table from a fresh fit of both fabrics
    PYTHONPATH=src python scripts/refresh_calibration.py
    # refit and compare; exit 1 and name what moved if the table is stale
    PYTHONPATH=src python scripts/refresh_calibration.py --check

Rewrite the table only after an intentional change to the fit, the
oracle or Algorithm 1. A new table moves plans, so bump
``repro.api.cache.SOLVER_SEMANTICS`` with it and record the new digest
in ``tests/costmodel/test_calibration_table.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.costmodel import (
    InterferenceModel,
    calibrated_interference,
    calibration_table,
)
from repro.costmodel.interference import PAIR_KEYS
from repro.evaluation.runner import refit_interference

TABLE = Path(calibration_table.__file__)
#: table key of each fabric, by ``pcie_only``
FABRICS = {"pcie": True, "nvlink": False}

HEADER = '''"""Algorithm 1's fitted pairwise slowdown factors, one vector per fabric.

The paper fits the slowdown factors once, offline, from co-run
measurements (§5.2.2). Here ``scripts/refresh_calibration.py`` runs
that fit against the execution engine's contention oracle, and its
result is checked in, so no process fits at run time. Each vector follows
:data:`repro.costmodel.interference.PAIR_KEYS`; a comment names the
slowed channel and the channel it co-runs with.

Generated by ``scripts/refresh_calibration.py``; do not edit by hand.
A new table moves plans, so it must bump
``repro.api.cache.SOLVER_SEMANTICS``
(``tests/costmodel/test_calibration_table.py`` pins its digest).
"""

'''


def refit() -> dict[str, InterferenceModel]:
    """A fresh fit of every fabric, keyed like the table."""
    return {fabric: refit_interference(pcie_only)
            for fabric, pcie_only in FABRICS.items()}


def drift(models: dict[str, InterferenceModel]) -> list[str]:
    """Every way ``models`` differ from the table's models (empty: none)."""
    problems = []
    for fabric, fitted in models.items():
        table = calibrated_interference(FABRICS[fabric])
        _, fitted_vec = fitted.pair_vector()
        _, table_vec = table.pair_vector()
        if fitted_vec.tobytes() != table_vec.tobytes():
            problems.append(f"{fabric}: pair vector {table_vec.tolist()} "
                            f"refits to {fitted_vec.tolist()}")
        if fitted.factors != table.factors:
            problems.append(f"{fabric}: factors differ")
        if fitted.max_factor != table.max_factor:
            problems.append(f"{fabric}: max_factor {table.max_factor!r} "
                            f"refits to {fitted.max_factor!r}")
    return problems


def render(models: dict[str, InterferenceModel]) -> str:
    """The source of the table module holding ``models``' pair vectors."""
    lines = [HEADER.rstrip("\n"), "",
             "PAIR_VECTORS: dict[str, tuple[float, ...]] = {"]
    for fabric, model in models.items():
        lines.append(f'    "{fabric}": (')
        _, values = model.pair_vector()
        for (pair, channel), value in zip(PAIR_KEYS, values):
            (other,) = pair - {channel}
            lines.append(f"        {float(value)!r},  # {channel} with {other}")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="refit and exit 1 if the table is stale")
    args = parser.parse_args(argv)
    models = refit()
    if args.check:
        problems = drift(models)
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{TABLE.name}: "
              + ("stale" if problems else "matches a fresh fit"))
        return 1 if problems else 0
    TABLE.write_text(render(models))
    print(f"wrote {TABLE} ({', '.join(models)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
