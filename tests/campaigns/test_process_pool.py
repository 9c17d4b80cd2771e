"""The process-pool executor isolates a worker that dies.

Cells run on the daemon's :class:`~repro.service.workers.ProcessWorkerTier`,
so a worker that hard-exits on one cell is respawned, the cell is
retried once and then fails alone; its neighbours, on the same slot or
another, still solve.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec, get_executor

SRC = Path(__file__).resolve().parents[2] / "src"

SPEC = CampaignSpec(
    name="crash-grid",
    solvers=("synthetic",),
    models=("gpt3-1.3b",),
    clusters=({"gpu": "L4", "num_gpus": 2},),
    scales=("smoke",),
    global_batches=(8, 16, 24),
)


@pytest.mark.parametrize("workers", [1, 2])
def test_dead_worker_fails_only_its_own_cell(tmp_path, workers):
    flag = tmp_path / "die-now"
    flag.touch()
    cells = SPEC.expand()
    assert len(cells) == 3
    # campaign specs carry no free-form options: arm the synthetic
    # solver's die_file hook on the middle cell only
    doomed = cells[1]
    cells[1] = dataclasses.replace(doomed, job=dataclasses.replace(
        doomed.job,
        options={"synthetic": {"seconds": 0.1, "die_file": str(flag)}}))

    results = []
    get_executor("process-pool", workers=workers).run(
        cells, on_result=lambda cell, report, error:
            results.append((cell, report, error)))

    assert len(results) == 3
    reports = [report for _, report, _ in results if report is not None]
    errors = [(cell, error) for cell, _, error in results
              if error is not None]
    assert len(reports) == 2
    assert all(report.measured["throughput"] == 100.0
               for report in reports)
    [(cell, error)] = errors
    assert cell.cell_id == cells[1].cell_id
    assert error.startswith("WorkerDiedError"), error


def test_importing_campaigns_does_not_load_the_service():
    code = ("import sys, repro.campaigns; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.service')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    assert out.strip() == "[]"
