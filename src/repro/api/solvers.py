"""Built-in solvers: Mist plus the paper's comparison systems.

Every backend the paper evaluates (Figs. 11–16) is a registry entry
here, all speaking the same ``solve(job) -> SolveReport`` protocol:

* ``mist``      — the hierarchical memory-parallelism co-optimizing
  tuner (predict, then execute the top plans to de-bias the winner's
  curse);
* ``megatron`` / ``deepspeed`` — execute-and-measure grid searches over
  each manual system's configuration space (Section 6.1), two rows of
  one grid (:class:`~repro.baselines.GridSearchTuner`);
* ``aceso``     — iterative bottleneck alleviation with an
  overlap-unaware predictor;
* ``uniform``   — the uniform-strategy heuristic (Yuan et al., §3.3).

All of them measure through one execute step,
:meth:`~repro.execution.ExecutionEngine.execute` (an OOM is reported,
not raised), and all but Aceso keep the first best measured plan with
:func:`~repro.execution.fastest`; Aceso keeps the first of its ranked
plans that fits.

Heterogeneous clusters (``job.cluster``): ``mist`` tunes them natively
— per-device-group analyzers, group-aware stage partitioning, and
execution on the mixed fleet. The baselines predate heterogeneity, so
they fall back to the conservative worst-GPU homogeneous view
(:meth:`~repro.hardware.HeterogeneousCluster.fallback_homogeneous`)
with a :class:`RuntimeWarning` — mirroring how one would actually run
Megatron-LM/DeepSpeed on a mixed fleet.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import warnings
from typing import Any, Callable, ClassVar

from repro.baselines import (
    AcesoTuner,
    BaselineResult,
    DeepSpeedTuner,
    MegatronTuner,
    UniformHeuristicTuner,
)
from repro.core import MistTuner
from repro.core.plan import TrainingPlan
from repro.core.tuner import SearchCancelled
from repro.costmodel import calibrated_interference
from repro.execution import ExecutionEngine, IterationResult, fastest
from repro.hardware import ClusterSpec, HeterogeneousCluster

from .cache import PlanCache
from .job import TuningJob
from .registry import get_solver, register_solver
from .report import SolveReport

__all__ = [
    "MistSolver",
    "MegatronSolver",
    "DeepSpeedSolver",
    "AcesoSolver",
    "UniformSolver",
    "SyntheticSolver",
    "solve",
]


def _measured(result: IterationResult | None) -> dict:
    if result is None:
        return {}
    return {
        "iteration_time": float(result.iteration_time),
        "throughput": float(result.throughput),
        "peak_memory": float(result.peak_memory),
    }


def _job_interference(job: TuningJob) -> Any:
    """Interference models for the job's fabrics: a mapping from
    device-group name to calibrated model (the shape
    :class:`~repro.core.MistTuner` accepts; a plain cluster's one group
    is ``""``)."""
    if job.interference == "none":
        return None
    return {name: calibrated_interference(not sub.gpu.has_nvlink)
            for name, sub in job.resolved_cluster().sub_clusters}


def _baseline_cluster(
        job: TuningJob,
        solver_name: str) -> "ClusterSpec | HeterogeneousCluster":
    """Baselines see mixed fleets as worst-GPU homogeneous (warned)."""
    cluster = job.resolved_cluster()
    if len(cluster.sub_clusters) > 1:
        fallback = cluster.fallback_homogeneous()
        warnings.warn(
            f"solver {solver_name!r} does not support heterogeneous "
            f"clusters; tuning {cluster.name} as the worst-GPU homogeneous "
            f"cluster {fallback.name}",
            RuntimeWarning, stacklevel=3,
        )
        return fallback
    return cluster


@register_solver("mist")
class MistSolver:
    """Mist: hierarchical memory-parallelism co-optimization (§5).

    Accepts the optional service hooks: ``progress(done, total)`` is
    relayed from the (S, G) search, and ``should_stop()`` cancels it
    cooperatively (raising :class:`~repro.core.tuner.SearchCancelled`).
    """

    def make_tuner(self, job: TuningJob) -> MistTuner:
        """The configured :class:`MistTuner` for one job (shared by
        :meth:`solve` and :meth:`replan`)."""
        scale = job.resolved_scale()
        return MistTuner(
            job.resolved_model(), job.resolved_cluster(),
            seq_len=job.seq_len, flash=job.flash,
            space=scale.apply(job.resolved_space()),
            interference=_job_interference(job),
            max_gacc_candidates=scale.max_gacc_candidates,
        )

    def solve(self, job: TuningJob, *,
              progress: "Callable[[int, int], None] | None" = None,
              should_stop: "Callable[[], bool] | None" = None
              ) -> SolveReport:
        tuner = self.make_tuner(job)
        tuning = tuner.search(job.global_batch, keep_top=job.keep_top,
                              progress=progress, should_stop=should_stop)
        return self._report(job, tuning)

    def replan(self, job: TuningJob, incumbent: "TrainingPlan", *,
               progress: "Callable[[int, int], None] | None" = None,
               should_stop: "Callable[[], bool] | None" = None
               ) -> SolveReport:
        """Warm-started solve of ``job`` from an ``incumbent`` plan.

        ``job`` already describes the *changed* cluster (see
        :func:`repro.api.replan.delta_job`); ``incumbent`` is the plan
        that was running before the change. The predicted winner is
        bit-identical to :meth:`solve` on the same job, reached with
        fewer configuration evaluations; ``keep_top`` is forced to 1 —
        a replan wants *the* plan fast, so only the winner is executed
        (set up a cold :meth:`solve` for a full top-k comparison).
        """
        tuner = self.make_tuner(job)
        tuning = tuner.replan(job.global_batch, incumbent=incumbent,
                              progress=progress, should_stop=should_stop)
        return self._report(job, tuning)

    def _report(self, job: TuningJob, tuning: Any) -> SolveReport:
        # Execute the top predicted plans and keep the best measured one
        # (the artifact's benchmark-one-case step, which absorbs the
        # winner's-curse bias of the argmin over noisy predictions).
        scale = job.resolved_scale()
        space = scale.apply(job.resolved_space())
        model = job.resolved_model()
        engine = ExecutionEngine(job.resolved_cluster(), system="mist")
        best = fastest(engine.execute(tuning.top_plans, model,
                                      seq_len=job.seq_len, flash=job.flash))
        predicted = {}
        if tuning.found:
            predicted = {
                "iteration_time": float(tuning.predicted_iteration_time),
                "throughput": float(tuning.predicted_throughput),
            }
        return SolveReport(
            solver=self.solver_name,
            job=job,
            plan=best.plan if best.plan is not None else tuning.best_plan,
            predicted=predicted,
            measured=_measured(best.result),
            tuning_time_seconds=tuning.tuning_time_seconds,
            configurations_evaluated=tuning.configurations_evaluated,
            search_log=tuning.search_log,
            search_stats=(tuning.stats.to_dict() if tuning.stats else {}),
            top_plans=list(tuning.top_plans),
            extra={"space": space.name, "scale": scale.name},
            result=best.result,
        )


class _BaselineSolver:
    """Shared adapter: wrap a baseline tuner class into the protocol."""

    #: set by the decorator in :func:`register_solver`
    solver_name: ClassVar[str]
    tuner_cls: "ClassVar[type | None]" = None

    def make_tuner(self, job: TuningJob) -> Any:
        cluster = _baseline_cluster(job, self.solver_name)
        return self.tuner_cls(job.resolved_model(), cluster,
                              seq_len=job.seq_len, flash=job.flash)

    def solve(self, job: TuningJob) -> SolveReport:
        tuner = self.make_tuner(job)
        outcome: BaselineResult = tuner.tune(job.global_batch)
        extra = {
            "candidates_tried": outcome.candidates_tried,
            "candidates_oom": outcome.candidates_oom,
        }
        if len(job.resolved_cluster().sub_clusters) > 1:
            extra["heterogeneous_fallback"] = tuner.cluster.name
        return SolveReport(
            solver=self.solver_name,
            job=job,
            plan=outcome.best_plan,
            measured=_measured(outcome.best_result),
            tuning_time_seconds=outcome.tuning_time_seconds,
            configurations_evaluated=outcome.candidates_tried,
            extra=extra,
            result=outcome.best_result,
        )


@register_solver("megatron")
class MegatronSolver(_BaselineSolver):
    """Megatron-LM: measured grid search over 3D parallelism."""

    tuner_cls = MegatronTuner


@register_solver("deepspeed")
class DeepSpeedSolver(_BaselineSolver):
    """DeepSpeed: measured grid search with ZeRO + coarse offloading."""

    tuner_cls = DeepSpeedTuner


@register_solver("aceso")
class AcesoSolver(_BaselineSolver):
    """Aceso: iterative bottleneck alleviation, overlap-unaware."""

    tuner_cls = AcesoTuner


@register_solver("uniform")
class UniformSolver(_BaselineSolver):
    """Uniform-strategy heuristic: one shared config for all stages."""

    tuner_cls = UniformHeuristicTuner

    def make_tuner(self, job: TuningJob) -> Any:
        scale = job.resolved_scale()
        cluster = _baseline_cluster(job, self.solver_name)
        interference = None
        if job.interference != "none":
            # single-model tuner: the fallback fabric's model
            interference = calibrated_interference(not cluster.gpu.has_nvlink)
        return self.tuner_cls(
            job.resolved_model(), cluster, seq_len=job.seq_len,
            flash=job.flash, space=scale.apply(job.resolved_space()),
            interference=interference,
            max_gacc_candidates=scale.max_gacc_candidates,
        )


@register_solver("synthetic")
class SyntheticSolver:
    """Deterministic CPU-burning stand-in workload (no real search).

    Not one of the paper's systems: ``synthetic`` exists for the
    service load/chaos harness (``repro load``, ``tests/service/``),
    where tests need a solver whose *service time* is controllable and
    whose answer is reproducible. Knobs ride
    ``job.options["synthetic"]``:

    * ``seconds`` (float, default ``0.05``) — how long to busy-spin.
      The spin is pure Python bytecode, so thread-based worker tiers
      serialize on the GIL while process tiers scale with cores —
      exactly the contrast the load generator measures;
    * ``throughput`` (float, default ``100.0``) — the reported
      "measured" throughput;
    * ``die_file`` (path) — chaos hook: if the named file exists when
      the solve starts in a process started by :mod:`multiprocessing`
      (a process worker tier, the ``process-pool`` campaign executor),
      that process hard-exits (``os._exit``), which looks exactly like
      a ``kill -9`` to its tier. Anywhere else — a daemon's thread
      workers, an inline solve — the hook is ignored, so one request
      cannot kill the process serving it. The flag lives *outside*
      the job (the fingerprint is unchanged), so deleting the file and
      resubmitting — or resuming a campaign — the very same job
      succeeds.

    Knob *defaults* may also be injected through the
    ``REPRO_SYNTHETIC_DEFAULTS`` environment variable (a JSON object,
    overridden by per-job options). Campaign cells carry no free-form
    options, so this is how the chaos tests arm ``die_file`` for jobs
    born from a :class:`~repro.campaigns.spec.CampaignSpec`; worker
    processes inherit the daemon's environment.

    ``progress`` is reported as 0/1 -> 1/1 and ``should_stop`` is
    polled every few thousand spins (raising
    :class:`~repro.core.tuner.SearchCancelled`), so cancellation
    behaves like the real tuner's cell-boundary checks. The report is
    deterministic for a given job: the nominal (not measured) spin
    duration is recorded as the tuning time.
    """

    #: set by :func:`repro.api.registry.register_solver`
    solver_name: ClassVar[str]

    def solve(self, job: TuningJob, *,
              progress: "Callable[[int, int], None] | None" = None,
              should_stop: "Callable[[], bool] | None" = None
              ) -> SolveReport:
        knobs = job.options.get("synthetic", {})
        if not isinstance(knobs, dict):
            knobs = {}
        env = os.environ.get("REPRO_SYNTHETIC_DEFAULTS")
        if env:
            try:
                defaults = json.loads(env)
            except json.JSONDecodeError:
                defaults = None
            if isinstance(defaults, dict):
                knobs = {**defaults, **knobs}
        seconds = float(knobs.get("seconds", 0.05))
        throughput = float(knobs.get("throughput", 100.0))
        die_file = knobs.get("die_file")
        if die_file is not None:
            from multiprocessing import parent_process

            if parent_process() is not None \
                    and os.path.exists(str(die_file)):
                os._exit(3)
        if progress is not None:
            progress(0, 1)
        deadline = time.perf_counter() + seconds
        spins = 0
        while time.perf_counter() < deadline:
            spins += 1
            if spins % 4096 == 0 and should_stop is not None \
                    and should_stop():
                raise SearchCancelled("synthetic solve cancelled")
        if progress is not None:
            progress(1, 1)
        return SolveReport(
            solver=self.solver_name,
            job=job,
            plan=None,
            measured={"throughput": throughput,
                      "iteration_time": 1.0 / throughput},
            tuning_time_seconds=seconds,
            configurations_evaluated=1,
            extra={"synthetic": True},
        )


def solve(job: TuningJob, solver: str = "mist", *,
          cache: PlanCache | None = None,
          progress: "Callable[[int, int], None] | None" = None,
          should_stop: "Callable[[], bool] | None" = None) -> SolveReport:
    """Solve ``job`` with the named registered solver.

    With a ``cache``, a previously solved equivalent job is returned
    straight from disk (``report.from_cache`` is set) and fresh results
    are stored for the next caller.

    ``progress`` / ``should_stop`` are forwarded to solvers whose
    ``solve()`` accepts them (currently ``mist``); other backends run
    uninstrumented — submission-time cancellation still applies in the
    service, mid-search cancellation does not.
    """
    if cache is not None:
        hit = cache.load(job, solver)
        if hit is not None:
            return hit
    backend = get_solver(solver)
    hooks = {}
    if progress is not None or should_stop is not None:
        accepted = inspect.signature(backend.solve).parameters
        if "progress" in accepted:
            hooks["progress"] = progress
        if "should_stop" in accepted:
            hooks["should_stop"] = should_stop
    report = backend.solve(job, **hooks)
    if cache is not None:
        cache.store(report)
    return report


def solve_in_worker(solver: str, job_dict: dict[str, Any],
                    cache_dir: str | None
                    ) -> tuple[int, dict[str, Any], bool]:
    """Worker-process body: :func:`solve` one serialized job.

    Module-level so process pools can pickle it by reference. The
    worker opens the *same on-disk* :class:`PlanCache` directory as
    its parent, so its stores are immediately visible there (atomic
    tmp-file writes make this safe concurrently). Returns the worker's
    pid, the report as a dict, and whether it came from the cache.
    """
    cache = PlanCache(cache_dir) if cache_dir is not None else None
    report = solve(TuningJob.from_dict(job_dict), solver, cache=cache)
    return os.getpid(), report.to_dict(), bool(report.from_cache)
