"""Closed-form oracles from the related papers, against the analyzer.

ZeRO (Rajbhandari et al.): partitioning a model state over ``dp``
ranks saves its bytes per parameter times ``Psi * (1 - 1/dp)`` per
rank, Psi being the stage's parameter count. ZeRO-1 partitions the
optimizer states (the fp32 master weights, momentum and variance, 12
bytes), ZeRO-2 also the fp16 gradients and ZeRO-3 also the fp16
parameters (2 bytes each). A partitioned gradient or parameter is
worked on through a buffer of two full layers (current + prefetched
next, ``tracing/memory.py``), which the ZeRO-2 and ZeRO-3 savings pay
back. ``12h^2 + 13h`` per layer is the usual approximate parameter
count of a transformer layer, so the analyzer's memory kernel agrees
with it to within 0.1%, not exactly. Nothing is asserted at ``dp = 1``,
where the buffer is charged with nothing to partition.
"""

from __future__ import annotations

import pytest

from repro.api import TuningJob
from repro.api.solvers import MistSolver


@pytest.fixture(scope="module")
def tuner():
    job = TuningJob(model="gpt3-1.3b", num_gpus=8, global_batch=8)
    return MistSolver().make_tuner(job)


def _peak(tuner, *, layers: int, dp: int, zero: int) -> float:
    # a middle stage at b=1, s=2048, fully checkpointed, no offload
    analyzer = tuner.analyzers[""]
    return float(analyzer.predict_memory(analyzer.build_env(
        b=1, s=2048, dp=dp, tp=1, l=layers, ckpt=layers, zero=zero,
        wo=0, go=0, oo=0, ao=0, gacc=1, inflight=1, has_pre=0,
        has_post=0))[0])


def _layer_params(tuner) -> int:
    hidden = tuner.model.hidden_size
    return 12 * hidden ** 2 + 13 * hidden


@pytest.mark.parametrize("layers", [2, 4, 8])
@pytest.mark.parametrize("dp", [2, 4, 8])
def test_zero1_saves_the_partitioned_optimizer_states(tuner, layers, dp):
    def peak(zero: int) -> float:
        return _peak(tuner, layers=layers, dp=dp, zero=zero)

    psi = layers * _layer_params(tuner)
    expected = 12 * psi * (1 - 1 / dp)
    assert peak(0) - peak(1) == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("zero", [2, 3], ids=["grads", "params"])
@pytest.mark.parametrize("layers", [2, 4, 8])
@pytest.mark.parametrize("dp", [2, 4, 8])
def test_zero2_and_zero3_save_the_partitioned_fp16_state(tuner, layers, dp,
                                                         zero):
    saving = (_peak(tuner, layers=layers, dp=dp, zero=zero - 1)
              - _peak(tuner, layers=layers, dp=dp, zero=zero))
    two_layer_buffer = 2 * 2 * _layer_params(tuner)
    psi = layers * _layer_params(tuner)
    assert saving + two_layer_buffer == pytest.approx(
        2 * psi * (1 - 1 / dp), rel=1e-3)
