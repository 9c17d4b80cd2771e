"""Resumable on-disk campaign state: one record per cell fingerprint.

A :class:`CampaignManifest` owns a directory with two files:

* ``manifest.json`` — the campaign spec, its fingerprint, and one
  record per finished cell (status, source, throughput, the winning
  plan). Rewritten atomically after every cell, so a killed campaign
  leaves a valid manifest behind.
* ``events.jsonl``  — an append-only stream of per-cell progress
  events (``campaign-started`` / ``cell`` / ``campaign-finished``),
  one JSON object per line, for tailing long grids.

The manifest records *that* a cell finished and what it measured; the
authoritative solved artifact stays in the
:class:`~repro.api.cache.PlanCache`. A ``--resume`` run therefore only
short-circuits a cell when both agree — the manifest marks it done
*and* the cache still holds its report — and re-runs anything missing
or failed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.core.schema import (NULL, Field, Int, List, Num, OneOf, Str,
                               Table, decode, loads)

from .spec import CAMPAIGN, CampaignCell, CampaignSpec

__all__ = ["CELL_RECORD", "CampaignError", "CampaignManifest",
           "finished_cell_record", "pending_cell_record"]


class CampaignError(ValueError):
    """A campaign cannot start from this input: resume without a
    directory or manifest, or a spec that changed since the manifest."""


def pending_cell_record(cell: CampaignCell) -> dict:
    """Record shape for a cell no run has finished (aborted/killed).

    The one definition of the per-cell record schema — finished cells
    are built on top of it by :func:`finished_cell_record`, and
    ``repro campaign status/report`` pads a partial manifest back out
    to the full matrix with it.
    """
    return {
        "cell_id": cell.cell_id,
        "solver": cell.solver,
        "fingerprint": cell.job.fingerprint(),
        "workload": cell.workload,
        "model": cell.model,
        "cluster": cell.cluster,
        "scale": cell.scale,
        "seq_len": cell.job.seq_len,
        "global_batch": cell.job.global_batch,
        "job": cell.job.to_dict(),
        "status": "pending",
        "source": None,
        "error": None,
        "throughput": 0.0,
        "tuning_time_seconds": 0.0,
        "measured": {},
        "plan": None,
        "finished_at": None,
    }


_TEXT = OneOf(NULL, Str())

#: one cell's record (:func:`pending_cell_record`), as the manifest
#: and the report read it; ``ignore`` holds the parts they do not read
CELL_RECORD = Table("cell record", (
    Field("cell_id", Str()), Field("solver", Str()), Field("workload", Str()),
    Field("status", Str(choices=("pending", "done", "failed")), "pending"),
    Field("source", _TEXT, None), Field("throughput", Num(ge=0), 0.0),
), ignore=frozenset({"cluster", "error", "finished_at", "fingerprint",
                     "global_batch", "job", "measured", "model", "plan",
                     "scale", "seq_len", "tuning_time_seconds"}))

#: ``manifest.json`` (:meth:`CampaignManifest.to_dict`)
MANIFEST = Table("campaign manifest", (
    Field("version", Int(), 1), Field("name", _TEXT),
    Field("fingerprint", _TEXT), Field("spec", OneOf(NULL, CAMPAIGN)),
    Field("cells", List(CELL_RECORD)),
))


def finished_cell_record(cell: CampaignCell, *, status: str, source: str,
                         report=None, error: str | None = None) -> dict:
    """One finished cell's record (manifest-backed or in-memory alike)."""
    record = pending_cell_record(cell)
    record.update(
        status=status,
        source=source,
        error=error,
        throughput=float(report.throughput) if report else 0.0,
        tuning_time_seconds=(float(report.tuning_time_seconds)
                             if report else 0.0),
        measured=dict(report.measured) if report else {},
        plan=(report.plan.to_dict()
              if report is not None and report.plan is not None
              else None),
        finished_at=time.time(),  # repro: allow[determinism] display timestamp, excluded from resume keys
    )
    return record


class CampaignManifest:
    """Filesystem-backed record of one campaign's per-cell outcomes."""

    MANIFEST = "manifest.json"
    EVENTS = "events.jsonl"

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.name: str | None = None
        self.spec_dict: dict | None = None
        self.fingerprint: str | None = None
        self._cells: dict[str, dict] = {}

    @property
    def path(self) -> Path:
        return self.root / self.MANIFEST

    @property
    def events_path(self) -> Path:
        return self.root / self.EVENTS

    # -- lifecycle ---------------------------------------------------------

    def load(self) -> bool:
        """Read ``manifest.json``; ``False`` when there is none to read,
        :class:`~repro.core.schema.DecodeError` when it does not decode."""
        try:
            text = self.path.read_text()
        except OSError:
            return False
        fields = decode(MANIFEST, loads(text, "manifest"), "manifest")
        self.name, self.spec_dict = fields["name"], fields["spec"]
        self.fingerprint = fields["fingerprint"]
        self._cells = {rec["cell_id"]: rec for rec in fields["cells"]}
        return True

    def begin(self, spec: CampaignSpec, *, resume: bool = False) -> None:
        """Bind the manifest to ``spec`` (fresh) or verify it (resume)."""
        fingerprint = spec.fingerprint()
        if resume:
            if not self.load():
                raise CampaignError(
                    f"nothing to resume: no readable manifest at "
                    f"{self.path}")
            if self.fingerprint != fingerprint:
                raise CampaignError(
                    f"campaign spec changed since the manifest was written "
                    f"(manifest {self.fingerprint}, spec {fingerprint}); "
                    f"run without --resume to start over")
        else:
            self._cells = {}
            self.events_path.unlink(missing_ok=True)
        self.name = spec.name
        self.spec_dict = spec.to_dict()
        self.fingerprint = fingerprint
        self.root.mkdir(parents=True, exist_ok=True)
        self._save()
        self.event({
            "event": "campaign-resumed" if resume else "campaign-started",
            "name": spec.name,
            "fingerprint": fingerprint,
        })

    # -- cells -------------------------------------------------------------

    def cell(self, cell_id: str) -> dict | None:
        return self._cells.get(cell_id)

    def cells(self) -> list[dict]:
        return list(self._cells.values())

    def record_cell(self, cell: CampaignCell, *, status: str, source: str,
                    report=None, error: str | None = None) -> dict:
        """Persist one finished cell and stream the matching event."""
        record = finished_cell_record(cell, status=status, source=source,
                                      report=report, error=error)
        self._cells[cell.cell_id] = record
        self._save()
        self.event({
            "event": "cell",
            "cell_id": record["cell_id"],
            "workload": record["workload"],
            "solver": record["solver"],
            "status": status,
            "source": source,
            "throughput": record["throughput"],
            "error": error,
        })
        return record

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "spec": self.spec_dict,
            "cells": list(self._cells.values()),
        }

    def _save(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # unique per writer + atomic rename, mirroring PlanCache.store
        tmp = self.path.with_name(
            f".{self.path.stem}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            tmp.write_text(json.dumps(self.to_dict(), sort_keys=True,
                                      indent=2))
            tmp.replace(self.path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def event(self, payload: dict) -> None:
        """Append one JSON line to the streaming event log."""
        line = json.dumps({"ts": time.time(), **payload}, sort_keys=True)  # repro: allow[determinism] event-log display timestamp, not a fingerprint input
        with self.events_path.open("a") as fh:
            fh.write(line + "\n")

    def events(self) -> list[dict]:
        """Parse the event stream (skipping torn/corrupt lines)."""
        try:
            lines = self.events_path.read_text().splitlines()
        except OSError:
            return []
        out = []
        for line in lines:
            try:
                out.append(json.loads(line))
            except ValueError:
                continue
        return out
