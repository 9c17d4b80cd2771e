"""Solves do not depend on the string hash seed.

Algorithm 1's factors and the engine's contention ground truth are both
:class:`~repro.costmodel.InterferenceModel` products over channel names;
multiplying them in ``frozenset`` iteration order let ``PYTHONHASHSEED``
move the last bit of predicted and measured times between processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SOLVE = """
import json
from repro.api import TuningJob, solve
job = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=32,
                seq_len=1024, flash=False, scale="smoke")
report = solve(job).to_dict()
print(json.dumps({name: report[name] for name in
                  ("plan", "predicted", "measured", "search_log")}))
"""


def solve_under(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SOLVE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_reports_identical_across_hash_seeds():
    # seeds 0 and 1 order the channel-name frozensets differently
    assert solve_under("0") == solve_under("1")
