"""Unified solver output — the result half of the solver API.

Every registered solver returns a :class:`SolveReport`: the winning
:class:`~repro.core.plan.TrainingPlan`, the solver's *predicted* metrics
(when it has a performance model), the *measured* metrics from executing
the plan on the simulated cluster, and the search log. Reports are JSON
round-trippable — ``SolveReport.from_json(r.to_json()).to_json()`` is
byte-identical to ``r.to_json()`` — so sweep results and cached plans
survive on disk across processes.

The live :class:`~repro.execution.engine.IterationResult` (pipeline
timeline, per-stage memory traces) is kept on the runtime-only
``result`` attribute and is *not* serialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.plan import TrainingPlan
from repro.core.schema import (NULL, OBJECT, Field, Int, List, Num, OneOf, Str,
                               Table, decode, loads)

from .job import TuningJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution import IterationResult

__all__ = ["SolveReport"]


@dataclass
class SolveReport:
    """One solver's outcome on one :class:`~repro.api.job.TuningJob`."""

    solver: str
    job: TuningJob
    plan: TrainingPlan | None = None
    #: model-predicted metrics (empty for measure-only grid searches):
    #: ``iteration_time`` (s), ``throughput`` (samples/s)
    predicted: dict = field(default_factory=dict)
    #: metrics measured by executing ``plan`` on the simulated cluster:
    #: ``iteration_time``, ``throughput``, ``peak_memory`` (bytes)
    measured: dict = field(default_factory=dict)
    tuning_time_seconds: float = 0.0
    configurations_evaluated: int = 0
    #: per-candidate diagnostics, solver-specific entries
    search_log: list = field(default_factory=list)
    #: explored/pruned/memo-hit counters from the prune-and-memoize
    #: search engine (``SearchStats.to_dict()``; empty for solvers
    #: without one) — aggregated into the service ``/metrics``
    search_stats: dict = field(default_factory=dict)
    #: runner-executed candidate plans, best predicted first
    top_plans: list = field(default_factory=list)
    #: free-form solver extras (must stay JSON-serializable)
    extra: dict = field(default_factory=dict)
    #: live execution result — runtime-only, never serialized
    result: "IterationResult | None" = field(
        default=None, compare=False, repr=False)
    #: True when this report was loaded from a plan cache — runtime-only
    from_cache: bool = field(default=False, compare=False, repr=False)

    @property
    def found(self) -> bool:
        return self.plan is not None

    @property
    def throughput(self) -> float:
        """Measured samples/second (0.0 when nothing executed)."""
        return float(self.measured.get("throughput", 0.0))

    def describe(self) -> str:
        lines = [f"[{self.solver}] job {self.job.fingerprint()}"]
        if self.plan is None:
            lines.append("  no feasible plan found")
            return "\n".join(lines)
        lines.append("  " + self.plan.describe().replace("\n", "\n  "))
        if self.predicted:
            lines.append(
                f"  predicted: {self.predicted.get('iteration_time', 0.0) * 1e3:.1f} ms"
                f" / {self.predicted.get('throughput', 0.0):.2f} samples/s"
            )
        if self.measured:
            lines.append(
                f"  measured:  {self.measured.get('iteration_time', 0.0) * 1e3:.1f} ms"
                f" / {self.measured.get('throughput', 0.0):.2f} samples/s"
            )
        lines.append(
            f"  evaluated {self.configurations_evaluated} configurations "
            f"in {self.tuning_time_seconds:.1f}s"
        )
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in REPORT.fields}
        return dict(out, job=self.job.to_dict(),
                    plan=self.plan.to_dict() if self.plan else None,
                    top_plans=[plan.to_dict() for plan in self.top_plans])

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        fields = decode(REPORT, data, "report")
        plan = fields["plan"]
        return cls(**dict(
            fields, job=TuningJob.from_dict(fields["job"]),
            plan=(None if plan is None
                  else TrainingPlan.from_dict(plan, "report.plan")),
            top_plans=[TrainingPlan.from_dict(p, f"report.top_plans[{i}]")
                       for i, p in enumerate(fields["top_plans"])],
            tuning_time_seconds=float(fields["tuning_time_seconds"])))

    def to_json(self, *, indent: int | None = 2) -> str:
        # allow_nan=False: reports must parse under *strict* JSON (jq,
        # JSON.parse), so a stray inf/nan is a bug here, not output
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        return cls.from_dict(loads(text, "report"))


#: a solve report (``SolveReport.to_dict``); the job and the plans are
#: decoded by their own tables
REPORT = Table("solve report", (
    Field("solver", Str()),
    Field("job", OBJECT),
    Field("plan", OneOf(NULL, OBJECT), None),
    Field("predicted", OBJECT, {}),
    Field("measured", OBJECT, {}),
    Field("tuning_time_seconds", Num(ge=0), 0.0),
    Field("configurations_evaluated", Int(ge=0), 0),
    Field("search_log", List(OBJECT), []),
    Field("search_stats", OBJECT, {}),
    Field("top_plans", List(OBJECT), []),
    Field("extra", OBJECT, {}),
))
