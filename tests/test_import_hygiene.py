"""Importing and solving never touches scipy.

Calibration is a checked-in table and the MILP is a test oracle, so
only a refit (``scripts/refresh_calibration.py``) and that oracle need
scipy. A fresh interpreter whose import system refuses every ``scipy``
module must still import the public packages, solve on both fabrics
with interference on, and run ``repro tune``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_NO_SCIPY = textwrap.dedent("""
    import sys

    attempts = []

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                attempts.append(name)
                raise ImportError(f"scipy is off limits here: {name}")
            return None

    sys.meta_path.insert(0, RefuseScipy())

    import repro.api
    import repro.cli
    import repro.service
    from repro.api import TuningJob, solve

    for gpu in ("L4", "A100-40GB"):
        job = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=8,
                        gpu=gpu, scale="smoke", interference="auto")
        assert solve(job).plan is not None, gpu
    code = repro.cli.main(["tune", "--model", "gpt3-1.3b", "--gpus", "2",
                           "--global-batch", "8", "--scale", "smoke"])
    assert code == 0, code
    assert attempts == [], attempts
    print("no scipy")
""")


def test_import_solve_and_tune_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("no scipy")
