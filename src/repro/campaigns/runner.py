"""Campaign orchestration: expand, short-circuit, execute, aggregate.

:func:`run_campaign` is the one entry point every surface shares — the
``repro campaign`` CLI, ``repro sweep``, and the Figure 11/12
benchmarks all call it and read the returned
:class:`~repro.campaigns.report.CampaignReport`. The flow:

1. expand the :class:`CampaignSpec` matrix into fingerprinted cells;
2. with ``resume=True``, serve every cell whose manifest record says
   *done* **and** whose report is still in the plan cache (source
   ``"manifest"`` — no search, no executor dispatch);
3. hand the remaining cells to the chosen executor (``inline`` /
   ``process-pool`` / ``service``), streaming one manifest record +
   event per completed cell (source ``"solved"`` or ``"cache"``);
4. aggregate everything into a serializable
   :class:`~repro.campaigns.report.CampaignReport`, also written to
   ``<directory>/report.json`` when a campaign directory is used.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from repro.api import PlanCache

from .executors import get_executor
from .manifest import (
    CampaignError,
    CampaignManifest,
    finished_cell_record,
    pending_cell_record,
)
from .report import CampaignReport, aggregate
from .spec import CampaignCell, CampaignSpec

__all__ = ["run_campaign"]

#: per-cell callback: (manifest-style record, SolveReport | None)
OnEvent = Callable[[dict, object], None]


class _MemoryManifest:
    """Record sink for directory-less runs (no resume, no events file)."""

    def cell(self, cell_id):  # pragma: no cover - trivial
        return None

    def record_cell(self, cell, *, status, source, report=None, error=None):
        return finished_cell_record(cell, status=status, source=source,
                                    report=report, error=error)

    def event(self, payload):
        pass


def run_campaign(spec: CampaignSpec, *,
                 executor: str = "inline",
                 executor_options: dict | None = None,
                 directory: "str | Path | None" = None,
                 cache: PlanCache | None = None,
                 resume: bool = False,
                 on_event: OnEvent | None = None,
                 should_stop: Callable[[], bool] | None = None,
                 ) -> CampaignReport:
    """Run (or resume) one campaign and return its aggregated report.

    ``directory`` makes the run durable: a resumable manifest, a
    streaming ``events.jsonl``, a ``plans/`` plan cache (unless an
    explicit ``cache`` is given), and the final ``report.json`` all
    live there. Without it the campaign runs in memory only and
    ``resume`` is unavailable.
    """
    if resume and directory is None:
        raise CampaignError("resume requires a campaign directory")
    cells = spec.expand()
    executor_obj = get_executor(executor, **(executor_options or {}))
    manifest: "CampaignManifest | _MemoryManifest"
    if directory is not None:
        directory = Path(directory)
        manifest = CampaignManifest(directory)
        manifest.begin(spec, resume=resume)
        if cache is None:
            cache = PlanCache(directory / "plans")
    else:
        manifest = _MemoryManifest()

    start = time.perf_counter()
    records: dict[str, dict] = {}

    def finish(cell: CampaignCell, *, status: str, source: str,
               report=None, error: str | None = None) -> None:
        record = manifest.record_cell(cell, status=status, source=source,
                                      report=report, error=error)
        records[cell.cell_id] = record
        if on_event is not None:
            on_event(record, report)

    # resume short-circuit: manifest says done AND the cache still has
    # the solved report -> no search, no executor dispatch
    pending: list[CampaignCell] = []
    for cell in cells:
        prior = manifest.cell(cell.cell_id) if resume else None
        if prior is not None and prior.get("status") == "done" \
                and cache is not None:
            hit = cache.load(cell.job, cell.solver)
            if hit is not None:
                finish(cell, status="done", source="manifest", report=hit)
                continue
        pending.append(cell)

    def on_result(cell: CampaignCell, report, error: str | None) -> None:
        if error is not None:
            finish(cell, status="failed", source="error", error=error)
        else:
            source = "cache" if report.from_cache else "solved"
            finish(cell, status="done", source=source, report=report)

    if pending:
        executor_obj.run(pending, cache=cache, on_result=on_result,
                         should_stop=should_stop, label=spec.name)

    ordered = [records.get(cell.cell_id) or pending_cell_record(cell)
               for cell in cells]
    report = aggregate(spec, ordered, executor=executor,
                       elapsed_seconds=time.perf_counter() - start)
    manifest.event({"event": "campaign-finished",
                    "counters": dict(report.counters)})
    if directory is not None:
        (directory / "report.json").write_text(report.to_json() + "\n")
    return report
