"""Elastic re-tuning: warm-started replanning after a cluster change.

The entry point for "the fleet just changed — get me a new plan,
fast". :func:`delta_job` applies a
:class:`~repro.hardware.ClusterDelta` to a job's cluster and returns
the post-change job (same model, batch, space, scale — only the
topology moves, so the new job's fingerprint is the natural cache key
for the re-tuned plan). :func:`replan` then solves that job
warm-started from the incumbent plan: the branch-and-bound seeds its
best-first order with the incumbent's (S, G) cell and prunes against
the first solved objective from step zero, while the per-group-scoped
menu memo keeps serving device groups the delta did not touch.

The contract (held by ``tests/core/test_replan.py`` and gated in CI by
``repro bench --min-warm-speedup``): the warm plan is **bit-identical**
to what a cold :func:`repro.api.solve` of the same post-delta job
would choose — warm-starting changes how much work the search does,
never its answer. The incumbent's *old* objective is never reused as a
bound; the delta changed the cost landscape, so only the incumbent's
shape (stage count, gradient-accumulation factor, device-group
sequence) carries over.

::

    from repro.api import TuningJob, replan
    from repro.hardware import ClusterDelta

    job = TuningJob(model="gpt3-2.7b", gpu="L4", num_gpus=8,
                    global_batch=64)
    report = solve(job, cache=cache)             # day 0: cold tune
    delta = ClusterDelta.remove_nodes(1)         # day 7: a node dies
    new = replan(job, delta, cache=cache)        # warm re-tune
    new.extra["replan"]["warm"]                  # -> True
"""

from __future__ import annotations

from typing import Callable

from repro.core.plan import TrainingPlan
from repro.hardware import ClusterDelta

from .cache import PlanCache
from .job import TuningJob
from .registry import get_solver
from .report import SolveReport
from .solvers import solve

__all__ = ["delta_job", "replan"]


def delta_job(job: TuningJob, delta: "ClusterDelta | dict") -> TuningJob:
    """The job ``job`` becomes once ``delta`` hits its cluster.

    Everything except the topology is preserved — model, batch, search
    space, scale preset, interference policy, budgets, options. The
    returned job always carries an explicit ``cluster`` dict (even when
    the original relied on the implied ``gpu``/``num_gpus`` shape), so
    warm and cold solves of the same delta share one fingerprint.
    """
    if isinstance(delta, dict):
        delta = ClusterDelta.from_dict(delta)
    new_cluster = delta.apply(job.resolved_cluster())
    return TuningJob.for_cluster(
        new_cluster, model=job.model, global_batch=job.global_batch,
        seq_len=job.seq_len, flash=job.flash,
        space=job.space, scale=job.scale,
        interference=job.interference, parallelism=job.parallelism,
        keep_top=job.keep_top,
        options=dict(job.options),
    )


def replan(job: TuningJob, delta: "ClusterDelta | dict",
           solver: str = "mist", *,
           cache: PlanCache | None = None,
           incumbent: "TrainingPlan | SolveReport | None" = None,
           progress: "Callable[[int, int], None] | None" = None,
           should_stop: "Callable[[], bool] | None" = None) -> SolveReport:
    """Re-tune ``job`` for its cluster after ``delta``, warm-started.

    The incumbent plan is taken from the ``incumbent`` argument (a
    plan or a prior :class:`SolveReport`) or, failing that, looked up
    in the ``cache`` under the *pre-delta* job. With an incumbent and
    the ``mist`` solver, the search warm-starts (and ``keep_top`` is
    pinned to 1 — a replan wants the winner fast); without one, or for
    baseline solvers, it falls back to a cold :func:`solve` of the
    post-delta job — correct either way, just slower.

    ``report.extra["replan"]`` records the provenance: the delta, the
    pre-delta fingerprint, whether the warm path ran, and where the
    incumbent came from. The result is cached under the post-delta
    job's fingerprint, so a repeated replan (or a cold solve of the
    same changed cluster) is a cache hit.
    """
    if isinstance(delta, dict):
        delta = ClusterDelta.from_dict(delta)
    new_job = delta_job(job, delta)
    provenance: dict = {
        "delta": delta.to_dict(),
        "describe": delta.describe(),
        "base_fingerprint": job.fingerprint(),
    }
    if cache is not None:
        hit = cache.load(new_job, solver)
        if hit is not None:
            hit.extra = {**hit.extra, "replan": {
                **provenance, "warm": False, "incumbent": "cache-hit"}}
            return hit

    plan: TrainingPlan | None = None
    source = "none"
    if isinstance(incumbent, SolveReport):
        plan, source = incumbent.plan, "report"
    elif isinstance(incumbent, TrainingPlan):
        plan, source = incumbent, "explicit"
    elif cache is not None:
        base_hit = cache.load(job, solver)
        if base_hit is not None and base_hit.plan is not None:
            plan, source = base_hit.plan, "cache"

    # capability check, not a class check: any registered solver that
    # exposes replan() gets the warm path (today that is mist)
    backend = get_solver(solver)
    if plan is not None and callable(getattr(backend, "replan", None)):
        report = backend.replan(new_job, plan, progress=progress,
                                should_stop=should_stop)
        warm = True
    else:
        report = solve(new_job, solver, cache=None,
                       progress=progress, should_stop=should_stop)
        warm = False
    report.extra = {**report.extra, "replan": {
        **provenance, "warm": warm, "incumbent": source}}
    if cache is not None:
        cache.store(report)
    return report
