"""The execute step and the one baseline grid against the loops they
replaced.

Every solver now runs its candidates through
:meth:`~repro.execution.ExecutionEngine.execute`, and Megatron-LM and
DeepSpeed are two rows of :meth:`GridSearchTuner.candidate_plans`. The
references below are the replaced code, kept verbatim: the two
per-system grid loops, the four hand-written ``engine.run`` / ``except
OOMError`` loops, and the Aceso ranking that feeds its loop. For every
solver on every job both must run the same plans in the same order with
the same outcome bits, count the same candidates and OOMs, and return
the same plan and measured iteration time.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import TuningJob, get_solver, solve
from repro.baselines import pipeline_grids
from repro.benchmarking.fig16 import plan_hash
from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan
from repro.execution import ExecutionEngine, OOMError


# -- the two grid loops ------------------------------------------------------

def reference_megatron_plans(tuner, global_batch: int):
    layers_total = tuner.model.num_layers
    for num_stages, dp, tp, gacc, microbatch in pipeline_grids(
            tuner.model, tuner.cluster, global_batch):
        layers = layers_total // num_stages
        for zero in (0, 1):
            for ckpt_mode in ("none", "full"):
                ckpt = layers if ckpt_mode == "full" else 0
                try:
                    stage = StageConfig(
                        layers=layers, microbatch=microbatch,
                        dp=dp, tp=tp, zero=zero, ckpt=ckpt,
                    )
                    yield TrainingPlan(
                        global_batch=global_batch, gacc=gacc,
                        stages=tuple(stage for _ in range(num_stages)),
                        source="megatron-grid",
                    )
                except PlanValidationError:
                    continue


def reference_deepspeed_plans(tuner, global_batch: int):
    layers_total = tuner.model.num_layers
    for num_stages, dp, tp, gacc, microbatch in pipeline_grids(
            tuner.model, tuner.cluster, global_batch):
        layers = layers_total // num_stages
        for zero in (0, 1, 2, 3):
            for ckpt_mode in ("none", "full"):
                ckpt = layers if ckpt_mode == "full" else 0
                for oo, go in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
                    if (oo or go) and zero == 0:
                        continue
                    if go and zero < 2:
                        continue
                    try:
                        stage = StageConfig(
                            layers=layers, microbatch=microbatch,
                            dp=dp, tp=tp, zero=zero, ckpt=ckpt,
                            oo=oo, go=go,
                        )
                        yield TrainingPlan(
                            global_batch=global_batch, gacc=gacc,
                            stages=tuple(stage
                                         for _ in range(num_stages)),
                            source="deepspeed-grid",
                        )
                    except PlanValidationError:
                        continue


# -- the four run/OOM loops --------------------------------------------------

def reference_grid_execute(tuner, plans):
    """``(best_plan, best_result, tried, oom)``."""
    best_plan = best_result = None
    tried = oom = 0
    for plan in plans:
        tried += 1
        try:
            result = tuner.engine.run(plan, tuner.model,
                                      seq_len=tuner.seq_len,
                                      flash=tuner.flash)
        except OOMError:
            oom += 1
            continue
        except PlanValidationError:
            continue
        if best_result is None or result.throughput > best_result.throughput:
            best_plan, best_result = plan, result
    return best_plan, best_result, tried, oom


def reference_aceso_execute(tuner, ranked):
    best_plan = best_result = None
    oom = 0
    for _, plan in ranked[:tuner.EXECUTE_TOP_K]:
        try:
            best_result = tuner.engine.run(plan, tuner.model,
                                           seq_len=tuner.seq_len,
                                           flash=tuner.flash)
            best_plan = plan
            break
        except OOMError:
            oom += 1
    return best_plan, best_result, oom


def reference_uniform_execute(tuner, best_plan):
    best_result = None
    oom = 0
    if best_plan is not None:
        try:
            best_result = tuner.engine.run(best_plan, tuner.model,
                                           seq_len=tuner.seq_len,
                                           flash=tuner.flash)
        except OOMError:
            oom = 1
            best_plan = None
    return best_plan, best_result, oom


def reference_mist_execute(job, tuning):
    model = job.resolved_model()
    engine = ExecutionEngine(job.resolved_cluster(), system="mist")
    result = None
    best_plan = None
    for plan in tuning.top_plans or (
            [tuning.best_plan] if tuning.best_plan else []):
        try:
            candidate = engine.run(plan, model, seq_len=job.seq_len,
                                   flash=job.flash)
        except OOMError:
            continue
        if result is None or candidate.throughput > result.throughput:
            result = candidate
            best_plan = plan
    return (best_plan if best_plan is not None else tuning.best_plan,
            result)


def reference_aceso_ranked(tuner, global_batch: int):
    """``(ranked, tried)``: Aceso's predicted ranking before execution."""
    ranked = []
    tried = 0
    for num_stages, dp, tp, gacc, microbatch in pipeline_grids(
            tuner.model, tuner.cluster, global_batch):
        tried += 1
        max_layers = tuner.model.num_layers - num_stages + 1
        tables = []
        cache: dict[tuple, tuple] = {}
        for i in range(num_stages):
            inflight = min(gacc, num_stages - i)
            key = (inflight, i == 0, i == num_stages - 1)
            if key not in cache:
                cache[key] = tuner._stage_table(
                    dp=dp, tp=tp, b=microbatch, gacc=gacc,
                    inflight=inflight, has_pre=key[1], has_post=key[2],
                    max_layers=max_layers,
                )
            tables.append(cache[key])
        outcome = tuner._alleviate(tables, num_stages, gacc)
        if outcome is None:
            continue
        objective, layers, ckpt = outcome
        try:
            plan = TrainingPlan(
                global_batch=global_batch, gacc=gacc,
                stages=tuple(
                    StageConfig(layers=layers[i], microbatch=microbatch,
                                dp=dp, tp=tp, ckpt=ckpt[i])
                    for i in range(num_stages)
                ),
                source="aceso",
            )
            plan.validate(tuner.model, tuner.cluster)
        except PlanValidationError:
            continue
        ranked.append((objective, plan))
    ranked.sort(key=lambda item: item[0])
    return ranked, tried


# -- the comparison ----------------------------------------------------------

JOBS = {
    "1.3b-L4x2-B16": TuningJob(model="gpt3-1.3b", num_gpus=2,
                               global_batch=16),
    # Aceso's predicted best runs out of memory here
    "6.7b-L4x8-B128": TuningJob(model="gpt3-6.7b", num_gpus=8,
                                global_batch=128),
    "2.7b-A100x4-B64-s4096": TuningJob(model="gpt3-2.7b", num_gpus=4,
                                       global_batch=64, gpu="A100-40GB",
                                       seq_len=4096),
    "mixed-a100-l4": TuningJob.for_cluster(
        {"groups": [
            {"name": "a100", "gpu": "A100-40GB", "gpus_per_node": 2},
            {"name": "l4", "gpu": "L4", "gpus_per_node": 2}]},
        model="gpt3-1.3b", global_batch=16, scale="smoke"),
}
SOLVERS = ("mist", "megatron", "deepspeed", "aceso", "uniform")


@pytest.fixture
def run_log(monkeypatch):
    """Every :meth:`ExecutionEngine.run`, in order: the plan's hash and
    its measured iteration time's bits, or ``"oom"``."""
    log: list[tuple[str | None, str]] = []
    original = ExecutionEngine.run

    def run(self, plan, model, **kwargs):
        try:
            result = original(self, plan, model, **kwargs)
        except OOMError:
            log.append((plan_hash(plan), "oom"))
            raise
        log.append((plan_hash(plan), result.iteration_time.hex()))
        return result

    monkeypatch.setattr(ExecutionEngine, "run", run)
    return log


def reference_report(job: TuningJob, solver: str):
    """``(plan, result, candidates_tried, candidates_oom)`` by the
    replaced code; the counts are ``None`` for ``mist``."""
    backend = get_solver(solver)
    tuner = backend.make_tuner(job)
    if solver == "mist":
        tuning = tuner.search(job.global_batch, keep_top=job.keep_top)
        return (*reference_mist_execute(job, tuning), None, None)
    if solver in ("megatron", "deepspeed"):
        grid = {"megatron": reference_megatron_plans,
                "deepspeed": reference_deepspeed_plans}[solver]
        want = list(grid(tuner, job.global_batch))
        # the one grid's candidate order
        assert [plan_hash(p) for p in
                tuner.candidate_plans(job.global_batch)] == \
            [plan_hash(p) for p in want]
        return reference_grid_execute(tuner, want)
    if solver == "aceso":
        ranked, tried = reference_aceso_ranked(tuner, job.global_batch)
        plan, result, oom = reference_aceso_execute(tuner, ranked)
        return plan, result, tried, oom
    # the uniform heuristic's one plan is its predicted winner (checked
    # against the per-row loop by test_uniform_reference.py), read off
    # an engine that records what it is handed and runs nothing
    engine, tuner.engine = tuner.engine, _Recorder()
    tuner.tune(job.global_batch)
    handed, tuner.engine = tuner.engine.plans, engine
    assert len(handed) <= 1
    tried = sum(1 for _ in tuner.pipeline_grid(job.global_batch))
    plan, result, oom = reference_uniform_execute(
        tuner, handed[0] if handed else None)
    return plan, result, tried, oom


class _Recorder:
    def execute(self, plans, model, **kwargs):
        self.plans = list(plans)
        return iter(())


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", sorted(JOBS))
def test_execute_matches_the_replaced_loops(name, solver, run_log):
    job = JOBS[name]
    with warnings.catch_warnings():
        # baselines tune a mixed fleet as its worst-GPU homogeneous view
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve(job, solver)
        ran = list(run_log)
        run_log.clear()
        plan, result, tried, oom = reference_report(job, solver)
    # the same plans ran in the same order with the same outcome bits
    assert ran == run_log
    assert plan_hash(report.plan) == plan_hash(plan)
    assert report.measured.get("iteration_time", np.nan).hex() == \
        (result.iteration_time if result else np.nan).hex()
    if tried is not None:
        assert report.extra["candidates_tried"] == tried
        assert report.extra["candidates_oom"] == oom
        assert report.configurations_evaluated == tried
        assert oom == sum(outcome == "oom" for _, outcome in ran)


def test_oom_candidates_are_covered():
    """The comparison above includes OOM runs on both sides: the grids
    on every job, and an Aceso fallback past its predicted best."""
    job = JOBS["6.7b-L4x8-B128"]
    assert solve(job, "aceso").extra["candidates_oom"] > 0
    for name, job in JOBS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert solve(job, "megatron").extra["candidates_oom"] > 0, name
