"""Campaign aggregation: per-cell records -> speedup tables + report.

:func:`aggregate` folds a campaign's per-cell records into a
serializable :class:`CampaignReport`: run counters (solved / plan-cache
hits / manifest hits / failures), a ``results`` matrix
(``workload -> solver -> samples/s``), per-workload ``speedups``
against a reference solver, and Figure 11/12-style normalized
throughput tables. It is the grid-level counterpart of the per-job
:class:`~repro.api.SolveReport`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.schema import (NULL, OBJECT, Field, List, Num, OneOf, Str,
                               Table, decode, loads)

from .manifest import CELL_RECORD
from .spec import CAMPAIGN, CampaignSpec

__all__ = ["CampaignReport", "aggregate", "format_table",
           "format_throughput_rows"]

#: per-cell ``source`` values -> report counter names
_SOURCE_COUNTERS = {
    "solved": "solved",
    "cache": "cache_hits",
    "manifest": "manifest_hits",
}


@dataclass(kw_only=True)
class CampaignReport:
    """One campaign's aggregated, JSON-round-trippable outcome."""

    name: str
    spec: CampaignSpec | None
    cells: list[dict]
    counters: dict
    executor: str = "inline"
    elapsed_seconds: float = 0.0

    # -- aggregation views -------------------------------------------------

    @property
    def complete(self) -> bool:
        return (self.counters.get("pending", 0) == 0
                and self.counters.get("failed", 0) == 0)

    def reference(self) -> str:
        if self.spec is not None and self.spec.reference:
            return self.spec.reference
        if self.spec is not None and self.spec.solvers:
            return self.spec.solvers[0]
        solvers = sorted({rec["solver"] for rec in self.cells})
        return solvers[0] if solvers else ""

    def results(self) -> dict:
        """``workload -> solver -> measured samples/s`` (failures = 0)."""
        out: dict[str, dict[str, float]] = {}
        for rec in self.cells:
            row = out.setdefault(rec["workload"], {})
            row[rec["solver"]] = (float(rec.get("throughput", 0.0))
                                  if rec.get("status") == "done" else 0.0)
        return out

    def speedups(self, reference: str | None = None) -> dict:
        """``workload -> solver -> throughput / reference throughput``."""
        reference = reference or self.reference()
        out: dict[str, dict[str, float]] = {}
        for workload, row in self.results().items():
            if reference not in row:
                raise ValueError(
                    f"reference solver {reference!r} has no cell on "
                    f"{workload!r}; available: {sorted(row)}")
            ref = row[reference]
            out[workload] = {
                solver: ((value / ref) if ref > 0
                         else (float("inf") if value > 0 else 0.0))
                for solver, value in row.items()
            }
        return out

    def table(self, title: str | None = None) -> str:
        """Figure 11/12-style normalized-throughput table."""
        title = title or f"campaign {self.name}"
        return format_throughput_rows(title, self.results(),
                                      self.reference())

    def describe(self) -> str:
        c = self.counters
        lines = [
            f"campaign {self.name}: {c.get('done', 0)}/{c.get('cells', 0)} "
            f"cells done via {self.executor} in "
            f"{self.elapsed_seconds:.1f}s "
            f"(solved {c.get('solved', 0)}, cache {c.get('cache_hits', 0)}, "
            f"manifest {c.get('manifest_hits', 0)}, "
            f"failed {c.get('failed', 0)}, pending {c.get('pending', 0)})",
        ]
        if any(rec.get("status") == "done" for rec in self.cells):
            lines.append(self.table())
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in CAMPAIGN_REPORT.fields}
        return dict(out, spec=self.spec.to_dict() if self.spec else None,
                    counters=dict(self.counters),
                    cells=[dict(rec) for rec in self.cells])

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        fields = decode(CAMPAIGN_REPORT, data, "campaign report")
        spec = fields["spec"]
        return cls(**dict(
            fields, spec=CampaignSpec.from_dict(spec) if spec else None,
            cells=[dict(rec) for rec in fields["cells"]],
            counters=dict(fields["counters"]),
            elapsed_seconds=float(fields["elapsed_seconds"])))

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        return cls.from_dict(loads(text, "campaign report"))


#: a campaign report (``CampaignReport.to_dict``)
CAMPAIGN_REPORT = Table("campaign report", (
    Field("name", Str()), Field("spec", OneOf(NULL, CAMPAIGN), None),
    Field("executor", Str(), "inline"),
    Field("elapsed_seconds", Num(ge=0), 0.0),
    Field("counters", OBJECT, {}), Field("cells", List(CELL_RECORD), []),
))


def aggregate(spec: CampaignSpec | None, cells: list[dict], *,
              executor: str = "inline",
              elapsed_seconds: float = 0.0) -> CampaignReport:
    """Fold per-cell records into a :class:`CampaignReport`."""
    counters = {
        "cells": len(cells),
        "done": 0,
        "failed": 0,
        "pending": 0,
        "solved": 0,
        "cache_hits": 0,
        "manifest_hits": 0,
    }
    for rec in cells:
        status = rec.get("status", "pending")
        if status == "done":
            counters["done"] += 1
        elif status == "failed":
            counters["failed"] += 1
        else:
            counters["pending"] += 1
        source = _SOURCE_COUNTERS.get(rec.get("source") or "")
        if source is not None and status == "done":
            counters[source] += 1
    return CampaignReport(
        name=spec.name if spec is not None else "campaign",
        spec=spec,
        cells=cells,
        counters=counters,
        executor=executor,
        elapsed_seconds=elapsed_seconds,
    )


# -- plain-text tables ----------------------------------------------------


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Minimal fixed-width table renderer (no external deps)."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "+".join("-" * (w + 2) for w in widths)
    line = f"+{line}+"

    def fmt(cells):
        inner = " | ".join(c.ljust(w) for c, w in zip(cells, widths))
        return f"| {inner} |"

    out = [line, fmt(headers), line]
    out.extend(fmt(row) for row in rows)
    out.append(line)
    return "\n".join(out)


def format_throughput_rows(title: str,
                           results: Mapping[str, Mapping[str, float]],
                           reference: str) -> str:
    """Figure 11/12-style rows: absolute + normalized throughput.

    ``results[workload][system] = samples/sec``.
    """
    systems = sorted({s for row in results.values() for s in row})
    systems.sort(key=lambda s: (s != reference, s))
    headers = ["Workload"] + [
        f"{s} (samp/s | x)" for s in systems
    ]
    rows = []
    for workload, row in results.items():
        ref = row.get(reference, 0.0)
        cells = [workload]
        for system in systems:
            value = row.get(system, 0.0)
            if value <= 0:
                cells.append("OOM/none")
            elif ref > 0:
                cells.append(f"{value:7.2f} | {value / ref:4.2f}x")
            else:
                cells.append(f"{value:7.2f} |   - ")
        rows.append(cells)
    return f"{title}\n" + format_table(headers, rows)
