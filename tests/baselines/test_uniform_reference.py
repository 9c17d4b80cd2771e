"""The uniform heuristic against the per-row loop it replaced.

:meth:`UniformHeuristicTuner.tune` prices every pipeline point with one
row-wise Eq. (1) over the rows that fit at every stage, and validates
each point once. The reference below is the loop it replaced, kept
verbatim except that it reads the shared checkpoint grid: a one-row
:func:`~repro.core.objectives.pipeline_iteration_time` per fitting row,
keeping the first strict minimum, with a plan validation per improving
row. Both must pick the same plan, try the same points and reach the
same best objective, bit for bit.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.api import TuningJob, UniformSolver
from repro.baselines import heuristics
from repro.benchmarking.fig16 import plan_hash
from repro.core import objectives
from repro.core.objectives import pipeline_iteration_time
from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan


def reference_tune(tuner, global_batch: int):
    """``(best_plan, best_obj, tried, points_without_fit)`` by the
    per-row loop."""
    best_obj = np.inf
    best_plan = None
    tried = 0
    without_fit = 0

    for num_stages, dp, tp, gacc, microbatch in tuner.pipeline_grid(
            global_batch):
        tried += 1
        layers = tuner.model.num_layers // num_stages
        zero_g, ckpt_g, wo_g, go_g, oo_g, ao_g = \
            tuner._shared_config_grid(layers).values()
        n = zero_g.size

        stage_t = np.zeros((num_stages, n))
        stage_d = np.zeros((num_stages, n))
        fits = np.ones(n, dtype=bool)
        for i in range(num_stages):
            pred = tuner.analyzer.predict(tuner.analyzer.build_env(
                b=microbatch, s=tuner.seq_len, dp=dp, tp=tp, l=layers,
                ckpt=ckpt_g, zero=zero_g,
                wo=wo_g, go=go_g, oo=oo_g, ao=ao_g, gacc=gacc,
                inflight=min(gacc, num_stages - i),
                has_pre=int(i == 0), has_post=int(i == num_stages - 1),
            ))
            stage_t[i] = pred.t_stable
            stage_d[i] = pred.delta
            fits &= pred.peak_mem <= tuner.analyzer.memory_budget

        if not fits.any():
            without_fit += 1
            continue
        for j in np.nonzero(fits)[0]:
            obj = pipeline_iteration_time(stage_t[:, j], stage_d[:, j],
                                          gacc)
            if obj < best_obj:
                try:
                    stage = StageConfig(
                        layers=layers, microbatch=microbatch, dp=dp,
                        tp=tp, zero=int(zero_g[j]), ckpt=int(ckpt_g[j]),
                        wo=float(wo_g[j]), go=float(go_g[j]),
                        oo=float(oo_g[j]), ao=float(ao_g[j]),
                    )
                    plan = TrainingPlan(
                        global_batch=global_batch, gacc=gacc,
                        stages=tuple(stage for _ in range(num_stages)),
                        source="uniform-heuristic",
                    )
                    plan.validate(tuner.model, tuner.cluster)
                except PlanValidationError:
                    continue
                best_obj = obj
                best_plan = plan
    return best_plan, best_obj, tried, without_fit


JOBS = {
    # Table-4 quick
    "1.3b-quick": TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=32),
    "2.7b-quick": TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64),
    "6.7b-quick": TuningJob(model="gpt3-6.7b", num_gpus=8,
                            global_batch=128),
    "1.3b-full": TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=32,
                           scale="full"),
    "a100-seq4096": TuningJob(model="gpt3-2.7b", num_gpus=4,
                              global_batch=64, gpu="A100-40GB",
                              seq_len=4096),
    "space-3d": TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64,
                          space="3d"),
    "space-3d-ckpt": TuningJob(model="gpt3-2.7b", num_gpus=4,
                               global_batch=64, space="3d-ckpt"),
    "space-mist-no-interference": TuningJob(
        model="gpt3-1.3b", num_gpus=4, global_batch=64, space="mist",
        interference="none"),
    # no offloading: some pipeline points have no row that fits
    "points-without-fit": TuningJob(model="gpt3-6.7b", num_gpus=8,
                                    global_batch=128, space="3d"),
}


class _Spy:
    """Wraps a function, recording each call's result."""

    def __init__(self, fn):
        self.fn = fn
        self.results = []

    def __call__(self, *args, **kwargs):
        result = self.fn(*args, **kwargs)
        self.results.append(result)
        return result


@pytest.fixture
def one_row_calls(monkeypatch):
    """The one-row Eq. (1), wherever a module holds it, counting its
    calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pipeline_iteration_time(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
                module, "pipeline_iteration_time", None) \
                is pipeline_iteration_time:
            monkeypatch.setattr(module, "pipeline_iteration_time", counted)
    assert objectives.pipeline_iteration_time is counted
    return calls


@pytest.mark.parametrize("name", sorted(JOBS))
def test_tune_matches_the_per_row_loop(name, monkeypatch, one_row_calls):
    job = JOBS[name]
    solver = UniformSolver()
    priced = _Spy(heuristics.pipeline_iteration_time_rows)
    monkeypatch.setattr(heuristics, "pipeline_iteration_time_rows", priced)

    result = solver.make_tuner(job).tune(job.global_batch)
    assert not one_row_calls

    monkeypatch.undo()
    want_plan, want_obj, want_tried, without_fit = reference_tune(
        solver.make_tuner(job), job.global_batch)
    assert want_plan is not None
    assert result.candidates_tried == want_tried
    assert plan_hash(result.best_plan) == plan_hash(want_plan)
    # the least non-NaN objective priced, in the reference's bits
    objective = np.concatenate(priced.results)
    assert objective[~np.isnan(objective)].min().hex() == want_obj.hex()
    if name == "points-without-fit":
        assert without_fit > 0


def test_a_nan_objective_never_wins(monkeypatch):
    # the reference's ``obj < best_obj`` never takes a NaN, also as a
    # point's first priced row
    def nan_first(t, d, gacc):
        objective = objectives.pipeline_iteration_time_rows(t, d, gacc)
        objective[0] = np.nan
        return objective

    job = JOBS["1.3b-quick"]
    monkeypatch.setattr(heuristics, "pipeline_iteration_time_rows",
                        nan_first)
    result = UniformSolver().make_tuner(job).tune(job.global_batch)
    assert result.found

    def all_nan(t, d, gacc):
        return np.full(t.shape[0], np.nan)

    monkeypatch.setattr(heuristics, "pipeline_iteration_time_rows", all_nan)
    result = UniformSolver().make_tuner(job).tune(job.global_batch)
    assert result.best_plan is None
    assert result.candidates_tried > 0
