"""The stacked Algorithm 1 sweep of the analyzer against the four-call
form it replaced.

:meth:`SymbolicPerformanceAnalyzer._interfere` writes the forward,
backward, first- and last-microbatch inputs of a menu side by side into
one ``(4, n)`` matrix and runs one :meth:`InterferenceModel.sweep`. The
reference below is what it replaced, kept verbatim: one
:meth:`InterferenceModel.predict` call per segment. Algorithm 1 is
row-independent, so every :class:`StagePrediction` field must agree bit
for bit — same shape, ``array_equal`` (NaN == NaN) and equal sign bits —
on every call a real solve makes, homogeneous and on both fabrics of a
mixed fleet.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import TuningJob, solve
from repro.core import SymbolicPerformanceAnalyzer
from repro.core.analyzer import StagePrediction, gather_rows
from repro.core.memo import GLOBAL_MENU_MEMO
from repro.costmodel.interference import InterferenceModel
from repro.hardware import make_cluster
from repro.models import get_model
from repro.tracing import trace


# ---------------------------------------------------------------------------
# the reference (four Algorithm 1 calls per menu)
# ---------------------------------------------------------------------------

def reference_interfere(self, channels: tuple, peak_mem: np.ndarray,
                        rows: np.ndarray | None = None,
                        grid: tuple[int, ...] = ()) -> StagePrediction:
    """Algorithm 1 over :meth:`_channels`' outputs.

    Each of the four Algorithm 1 calls runs at the broadcast shape
    of its own inputs, so every field keeps the shape of the axes
    it reads. Given ``rows``, flat indices into ``grid``,
    ``t_first``, ``t_last`` and ``delta`` are columns over those
    rows instead, and the first- and last-microbatch calls run on
    the gathered rows when those are fewer than the calls' cells.
    ``peak_mem`` passes through as the prediction's ``peak_mem``.
    """
    (comp_f, nccl_f, d2h_f, h2d_f,
     comp_b, nccl_b, d2h_b, h2d_b,
     comp_fx, nccl_fx, d2h_fx, h2d_fx,
     nccl_lx) = channels
    predict = self.interference.predict

    def at(value):
        return value if rows is None else gather_rows(value, rows, grid)

    def on_rows(*inputs):
        if rows is not None and rows.size < np.broadcast(*inputs).size:
            return predict(*(at(a) for a in inputs))
        return at(predict(*inputs))

    fwd = predict(comp_f, nccl_f, d2h_f, h2d_f)
    bwd = predict(comp_b, nccl_b, d2h_b, h2d_b)
    t_stable = fwd + bwd
    t_first = on_rows(comp_f + comp_fx, nccl_f + nccl_fx,
                      d2h_f + d2h_fx, h2d_f + h2d_fx) + at(bwd)
    t_last = at(fwd) + on_rows(comp_b, nccl_b + nccl_lx, d2h_b, h2d_b)
    stable = at(t_stable)
    delta = np.maximum(t_first - stable, 0.0) + np.maximum(
        t_last - stable, 0.0
    )
    return StagePrediction(
        t_stable=np.asarray(t_stable, dtype=float),
        delta=np.asarray(delta, dtype=float),
        peak_mem=peak_mem,
        t_first=np.asarray(t_first, dtype=float),
        t_last=np.asarray(t_last, dtype=float),
    )


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

MIXED_A100_L4 = json.loads(
    (Path(__file__).parents[2] / "examples" / "mixed_a100_l4.json")
    .read_text())

JOBS = {
    "gpt3-2.7b-L4x4-B64": TuningJob(model="gpt3-2.7b", num_gpus=4,
                                     global_batch=64, scale="quick"),
    "mixed-a100-l4": TuningJob.for_cluster(MIXED_A100_L4, model="gpt3-2.7b",
                                           global_batch=64, scale="smoke"),
}


def field_mismatches(got: StagePrediction, want: StagePrediction) -> list:
    """The names of the fields that are not bit-identical."""
    bad = []
    for name in StagePrediction.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if not (a.shape == b.shape and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=True)
                and np.array_equal(np.signbit(a), np.signbit(b))):
            bad.append(name)
    return bad


class _Recorder:
    """Spies on a solve: sweeps per analyzer call, and the stacked
    ``_interfere`` against :func:`reference_interfere` on every call
    (``predict_feasible`` rows, and ``rows=None`` over the same grid)."""

    def __init__(self, monkeypatch):
        self.sweeps = 0
        self.per_call: list[tuple[str, int]] = []
        self.checked = {"rows": 0, "none": 0}
        self.mismatches: list[tuple[str, list]] = []
        self.fabrics: set[bool] = set()
        sweep = InterferenceModel.sweep
        interfere = SymbolicPerformanceAnalyzer._interfere
        recorder = self

        def counting_sweep(model, x):
            recorder.sweeps += 1
            return sweep(model, x)

        def checked_interfere(analyzer, channels, peak_mem, rows=None,
                              grid=()):
            pred = interfere(analyzer, channels, peak_mem, rows, grid)
            sweeps = recorder.sweeps  # the oracles' sweeps do not count
            recorder.check(analyzer, pred, channels, peak_mem, rows, grid)
            if rows is not None:
                recorder.check(analyzer,
                               interfere(analyzer, channels, peak_mem),
                               channels, peak_mem)
            recorder.sweeps = sweeps
            return pred

        monkeypatch.setattr(InterferenceModel, "sweep", counting_sweep)
        monkeypatch.setattr(SymbolicPerformanceAnalyzer, "_interfere",
                            checked_interfere)
        for name in ("predict", "predict_feasible"):
            monkeypatch.setattr(SymbolicPerformanceAnalyzer, name,
                                self.counted(name))

    def counted(self, name):
        method = getattr(SymbolicPerformanceAnalyzer, name)

        def wrapper(analyzer, env, *args):
            before = self.sweeps
            out = method(analyzer, env, *args)
            self.per_call.append((name, self.sweeps - before))
            return out
        return wrapper

    def check(self, analyzer, pred, channels, peak_mem, rows=None, grid=()):
        self.fabrics.add(analyzer.gpu.has_nvlink)
        self.checked["none" if rows is None else "rows"] += 1
        ref = reference_interfere(analyzer, channels, peak_mem, rows, grid)
        bad = field_mismatches(pred, ref)
        if bad:
            self.mismatches.append((analyzer.gpu.name, bad))


class TestStackedSweepMatchesFourCalls:
    @pytest.mark.parametrize("name", sorted(JOBS))
    def test_solve_bit_identical(self, name, monkeypatch):
        recorder = _Recorder(monkeypatch)
        GLOBAL_MENU_MEMO.clear()
        solve(JOBS[name])
        GLOBAL_MENU_MEMO.clear()
        assert recorder.mismatches == []
        assert recorder.checked["rows"] > 0
        # every menu also priced whole, as predict() prices it
        assert recorder.checked["none"] == recorder.checked["rows"]
        feasible = [n for kind, n in recorder.per_call
                    if kind == "predict_feasible"]
        assert len(feasible) == recorder.checked["rows"]
        # one sweep per menu, not one per segment
        assert {n for _, n in recorder.per_call} == {1}
        if name == "mixed-a100-l4":
            assert recorder.fabrics == {True, False}

    def test_predict_bit_identical(self, monkeypatch):
        recorder = _Recorder(monkeypatch)
        cluster = make_cluster("L4", 1, 4)
        analyzer = SymbolicPerformanceAnalyzer(
            trace(get_model("gpt3-1.3b"), cluster.gpu, flash=True), cluster)
        scalar = dict(b=2, s=2048, tp=1, dp=2, l=12, ckpt=0, zero=0,
                      wo=0.0, go=0.0, oo=0.0, ao=0.0, gacc=4, inflight=2,
                      has_pre=1, has_post=0)
        grid = dict(scalar, b=np.array([[1], [2], [4]]),
                    ao=np.array([0.0, 0.5, 1.0]),
                    zero=np.array([0, 3]).reshape(2, 1, 1))
        for values in (scalar, grid):
            analyzer.predict(analyzer.build_env(**values))
        assert recorder.mismatches == []
        assert recorder.checked == {"rows": 0, "none": 2}
        assert recorder.per_call == [("predict", 1), ("predict", 1)]
