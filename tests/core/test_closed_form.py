"""Closed-form oracles from the related papers, against the analyzer.

ZeRO (Rajbhandari et al.): partitioning the optimizer states over ``dp``
ranks saves ``12 * Psi * (1 - 1/dp)`` bytes per rank, Psi being the
stage's parameter count — the fp32 master weights, momentum and
variance, 4 bytes each. ``12h^2 + 13h`` per layer is the usual
approximate parameter count of a transformer layer, so the analyzer's
memory kernel agrees with it to within 0.1%, not exactly.
"""

from __future__ import annotations

import pytest

from repro.api import TuningJob
from repro.api.solvers import MistSolver


@pytest.fixture(scope="module")
def tuner():
    job = TuningJob(model="gpt3-1.3b", num_gpus=8, global_batch=8)
    return MistSolver().make_tuner(job)


@pytest.mark.parametrize("layers", [2, 4, 8])
@pytest.mark.parametrize("dp", [2, 4, 8])
def test_zero1_saves_the_partitioned_optimizer_states(tuner, layers, dp):
    analyzer = tuner.analyzers[""]
    hidden = tuner.model.hidden_size

    def peak(zero: int) -> float:
        # a middle stage at b=1, s=2048, fully checkpointed, no offload
        return float(analyzer.predict_memory(analyzer.build_env(
            b=1, s=2048, dp=dp, tp=1, l=layers, ckpt=layers, zero=zero,
            wo=0, go=0, oo=0, ao=0, gacc=1, inflight=1, has_pre=0,
            has_post=0))[0])

    psi = layers * (12 * hidden ** 2 + 13 * hidden)
    expected = 12 * psi * (1 - 1 / dp)
    assert peak(0) - peak(1) == pytest.approx(expected, rel=1e-3)
