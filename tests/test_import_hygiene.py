"""Importing and solving never touches scipy.

Calibration is a checked-in table and the MILP is a test oracle, so
only a refit (``scripts/refresh_calibration.py``) and that oracle need
scipy, and numpy is the package's only runtime dependency. A fresh
interpreter whose import system refuses every ``scipy`` module must
still import every module under ``repro``, solve on both fabrics with
interference on, and run ``repro tune``; and none of that may load the
offline refit (``repro.evaluation``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_REFUSE_SCIPY = textwrap.dedent("""
    import sys

    attempts = []

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                attempts.append(name)
                raise ImportError(f"scipy is off limits here: {name}")
            return None

    sys.meta_path.insert(0, RefuseScipy())
""")

_NO_SCIPY = _REFUSE_SCIPY + textwrap.dedent("""
    import repro.api
    import repro.campaigns
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
    refit = sorted(name for name in sys.modules
                   if name.startswith("repro.evaluation")
                   or name == "repro.costmodel.calibration")
    assert refit == [], refit
    print("no scipy")
""")

_EVERY_MODULE = _REFUSE_SCIPY + textwrap.dedent("""
    import importlib
    import pkgutil

    import repro

    names = [info.name for info in
             pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in names:
        importlib.import_module(name)
    assert "repro.evaluation.runner" in names, names
    assert attempts == [], attempts
    print(f"{len(names)} modules, no scipy")
""")


def _run(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.rstrip()


def test_import_solve_and_tune_without_scipy():
    assert _run(_NO_SCIPY).endswith("no scipy")


def test_every_module_imports_without_scipy():
    assert _run(_EVERY_MODULE).endswith("modules, no scipy")
