"""On-disk plan cache keyed by job fingerprint.

Tuning is deterministic for a given :class:`~repro.api.job.TuningJob`,
so a solved report can be reused by any later process that submits an
equivalent job. Entries are one JSON file per
``(solver, job.fingerprint())`` pair, tagged with
:data:`SOLVER_SEMANTICS`, under a root directory taken from, in order:
the constructor argument, ``$REPRO_PLAN_CACHE``, or
``~/.cache/repro/plans``.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.core.schema import DecodeError

from .job import TuningJob
from .report import SolveReport

__all__ = ["PlanCache", "SOLVER_SEMANTICS", "default_cache_dir"]

#: Version of what the solvers return for an unchanged job fingerprint.
#: It is part of every entry's file name, so bumping it turns every
#: entry written before into a miss that is never served. Bump it when
#: a change can alter a report (plan, predicted winner, ``top_plans``,
#: search log) without altering :meth:`TuningJob.fingerprint`.
#: Version 1: the whole Pareto frontier reaches the inter-stage solve
#: (entries without a version predate it).
SOLVER_SEMANTICS = 1
#: Solvers whose reports moved again since, each with its own version.
#: ``uniform`` 2: the heuristic draws its gacc steps from Mist's capped
#: candidate set. ``uniform`` 3: it takes checkpoint counts from Mist's
#: own grid, which honours ``ckpt_policy="full"``, so such jobs' plans
#: moved. ``mist`` 2: no heuristic seed cell, so cells run in bound
#: order and search counters and ``search_stats`` moved. ``mist`` 3:
#: per-position cell bounds, so search-log bounds and statuses moved.
_SOLVER_VERSIONS = {"uniform": 3, "mist": 3}


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_PLAN_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "plans"


class PlanCache:
    """Filesystem-backed store of solved reports.

    Safe under concurrent readers and writers in one or many processes:
    writes go to a per-writer temp file and land with an atomic rename,
    so a reader only ever sees a complete entry (or none). The ``repro
    serve`` daemon shares a single instance across its worker pool.
    """

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, job: TuningJob, solver: str) -> Path:
        return self.path_for_fingerprint(job.fingerprint(), solver)

    def path_for_fingerprint(self, fingerprint: str, solver: str) -> Path:
        version = _SOLVER_VERSIONS.get(solver, SOLVER_SEMANTICS)
        return self.root / f"{solver}-{fingerprint}-v{version}.json"

    def load(self, job: TuningJob, solver: str) -> SolveReport | None:
        """The cached report, or ``None`` on miss/corruption."""
        return self.load_fingerprint(job.fingerprint(), solver)

    def load_fingerprint(self, fingerprint: str,
                         solver: str) -> SolveReport | None:
        """Look up by raw fingerprint (the ``GET /plans/<fp>`` path)."""
        path = self.path_for_fingerprint(fingerprint, solver)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            report = SolveReport.from_json(text)
        except DecodeError:
            return None
        report.from_cache = True
        return report

    def store(self, report: SolveReport) -> Path:
        path = self.path_for(report.job, report.solver)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique per writer: concurrent stores of the same key must not
        # truncate each other's in-progress temp file
        tmp = path.with_name(
            f".{path.stem}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            tmp.write_text(report.to_json())
            tmp.replace(path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
