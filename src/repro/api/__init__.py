"""Unified solver API: declarative jobs, a solver registry, plan caching.

The stable surface every tuning backend plugs into::

    from repro.api import TuningJob, solve

    job = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2,
                    global_batch=32, scale="quick")
    report = solve(job, solver="mist")
    print(report.plan.describe())
    report_json = report.to_json()          # round-trippable

    for name in ("megatron", "deepspeed", "aceso"):
        print(name, solve(job, solver=name).throughput)

See :mod:`repro.api.job` (inputs), :mod:`repro.api.report` (outputs),
:mod:`repro.api.registry` (the ``@register_solver`` protocol),
:mod:`repro.api.solvers` (built-in backends),
:mod:`repro.api.cache` (fingerprint-keyed on-disk plan cache), and
:mod:`repro.api.replan` (elastic re-tuning after a cluster change).
"""

from .cache import PlanCache, default_cache_dir
from .job import JobValidationError, TuningJob
from .registry import (
    Solver,
    SolverNotFoundError,
    get_solver,
    register_solver,
    solver_names,
    solver_registry,
)
from .replan import delta_job, replan
from .report import SolveReport
from .solvers import (
    AcesoSolver,
    DeepSpeedSolver,
    MegatronSolver,
    MistSolver,
    UniformSolver,
    solve,
)

__all__ = [
    "AcesoSolver",
    "DeepSpeedSolver",
    "JobValidationError",
    "MegatronSolver",
    "MistSolver",
    "PlanCache",
    "Solver",
    "SolveReport",
    "SolverNotFoundError",
    "TuningJob",
    "UniformSolver",
    "default_cache_dir",
    "delta_job",
    "get_solver",
    "register_solver",
    "replan",
    "solve",
    "solver_names",
    "solver_registry",
]
