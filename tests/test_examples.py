"""Every script under ``examples/`` runs to completion.

Each runs in a fresh interpreter from a scratch working directory, with
its temporary files under that directory too, and must exit 0.
``cluster_sweep.py`` runs its ``--smoke`` grid with the campaign
directory under the scratch directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert {path.name for path in EXAMPLES} >= {
        "cluster_sweep.py", "heterogeneous_tuning.py", "quickstart.py"}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(tmp_path))
    args = [sys.executable, str(script)]
    if script.name == "cluster_sweep.py":
        args.append("--smoke")
        env["REPRO_CAMPAIGN_DIR"] = str(tmp_path / "campaign")
    proc = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
