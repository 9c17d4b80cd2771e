"""Campaign executors: where a campaign's cells solve.

An *executor* consumes a list of pending :class:`CampaignCell`\\ s and
reports each cell's outcome through an ``on_result`` callback — it
decides *where* cells solve, never *what* they mean. Three backends
ship, selected by name through :func:`get_executor`:

* ``inline``       — solve every cell serially in this process;
* ``process-pool`` — fan cells out to the daemon's process worker
  tier: crash-isolated worker processes sharing the on-disk plan
  cache (:class:`ProcessPoolExecutor`);
* ``service``      — delegate the whole batch to a live ``repro
  serve`` daemon via ``POST /campaigns``, so cells ride the daemon's
  worker pool, request coalescing, and shared plan cache.

Executors never raise for a failing cell: failures are delivered as
``on_result(cell, None, error)`` so one infeasible corner of a grid
cannot abort the campaign. ``should_stop()`` is polled between cells
and aborts the remainder (the resumable manifest picks them up on the
next ``--resume`` run).
"""

from __future__ import annotations

import time
from concurrent import futures as _futures
from typing import Callable, Optional

from repro.api import SolveReport, solve

from .spec import CampaignCell

__all__ = [
    "ExecutorNotFoundError",
    "InlineExecutor",
    "ProcessPoolExecutor",
    "ServiceExecutor",
    "get_executor",
]

#: callback signature: (cell, report or None, error message or None)
OnResult = Callable[[CampaignCell, Optional[SolveReport], Optional[str]],
                    None]


class ExecutorNotFoundError(KeyError):
    """No executor ships under the requested name."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown executor {name!r}; available: {sorted(_EXECUTORS)}"
        )
        self.name = name


def get_executor(name: str, **options
                 ) -> "InlineExecutor | ProcessPoolExecutor | ServiceExecutor":
    """Instantiate the executor named ``name``.

    ``options`` are passed to the constructor (e.g. ``workers=4`` for
    ``process-pool``, ``url=...`` for ``service``).
    """
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ExecutorNotFoundError(name) from None
    try:
        return cls(**options)
    except TypeError as exc:
        raise ValueError(
            f"invalid options for executor {name!r}: {exc}") from None


class InlineExecutor:
    """Solve every cell serially in this process (the default)."""

    def run(self, cells, *, cache=None, on_result, should_stop=None,
            label=None):
        for cell in cells:
            if should_stop is not None and should_stop():
                return
            try:
                report = solve(cell.job, cell.solver, cache=cache)
            except Exception as exc:  # noqa: BLE001 — per-cell isolation
                on_result(cell, None, f"{type(exc).__name__}: {exc}")
            else:
                on_result(cell, report, None)


class ProcessPoolExecutor:
    """Fan cells out to ``workers`` crash-isolated worker processes.

    Cells run on the daemon's
    :class:`~repro.service.workers.ProcessWorkerTier`, each on whichever
    slot is free. A worker that dies is respawned and its cell retried
    once; only that cell can fail (``WorkerDiedError: ...``). Spawned
    workers re-import the caller's ``__main__``, so a script using this
    executor needs an ``if __name__ == "__main__":`` guard.

    Workers re-enter :func:`repro.api.solve` against the shared
    on-disk plan cache, so concurrent identical cells race safely (the
    cache's atomic writes) and a later ``--resume`` run sees every
    plan any worker finished — even cells whose results arrived after
    ``should_stop`` fired.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def run(self, cells, *, cache=None, on_result, should_stop=None,
            label=None):
        if not cells:
            return
        # imported here so that ``import repro.campaigns`` does not
        # load the service package
        from repro.service.workers import ProcessWorkerTier

        tier = ProcessWorkerTier(min(self.workers, len(cells)))
        dispatch = _futures.ThreadPoolExecutor(max_workers=tier.workers)
        try:
            pending = {dispatch.submit(tier.run, cell.job, cell.solver,
                                       cache=cache): cell
                       for cell in cells}
            for future in _futures.as_completed(pending):
                if should_stop is not None and should_stop():
                    break
                cell = pending[future]
                try:
                    report = future.result()
                except Exception as exc:  # noqa: BLE001 — per-cell
                    on_result(cell, None, f"{type(exc).__name__}: {exc}")
                else:
                    on_result(cell, report, None)
        finally:
            # cancel queued cells; wait for in-flight solves so their
            # cache writes land before the campaign returns
            dispatch.shutdown(wait=True, cancel_futures=True)
            tier.shutdown(wait=True)


class ServiceExecutor:
    """Delegate cells to a live ``repro serve`` daemon.

    The whole batch goes up in one ``POST /campaigns``; the daemon's
    bounded worker pool, request coalescing, and shared plan cache do
    the heavy lifting. Progress is watched through one
    ``GET /campaigns/<id>`` per poll (the per-cell report is fetched
    only when a cell turns terminal), and completed cells are mirrored
    into the local ``cache`` (when given) so a later ``--resume`` run
    can answer from disk without the daemon.

    ``timeout`` bounds *stall*, not total runtime: the clock resets
    every time a cell finishes, so an hour-long grid that keeps making
    progress never times out, while a wedged daemon fails the
    remaining cells after ``timeout`` silent seconds.
    """

    #: job-record states that end a cell
    _TERMINAL = ("done", "failed", "cancelled")

    def __init__(self, url: str = "", *, timeout: float = 600.0,
                 poll_interval: float = 0.1):
        if not url:
            raise ValueError(
                "service executor needs url=... (the daemon's base URL)")
        self.url = url
        self.timeout = timeout
        self.poll_interval = poll_interval

    def run(self, cells, *, cache=None, on_result, should_stop=None,
            label=None):
        if not cells:
            return
        from repro.service import Client, ServiceError

        client = Client(self.url, timeout=min(self.timeout, 30.0))
        try:
            campaign = client.submit_campaign(
                [{"solver": cell.solver, "job": cell.job.to_dict()}
                 for cell in cells],
                name=label or "campaign",
            )
        except ServiceError as exc:
            for cell in cells:
                on_result(cell, None, f"service: {exc}")
            return
        campaign_id = campaign["id"]
        pending = {record["id"]: cell
                   for record, cell in zip(campaign["cells"], cells)}

        def cancel_pending() -> None:
            # best-effort: don't leave the daemon's bounded worker
            # pool solving a grid nobody is waiting for
            for job_id in pending:
                try:
                    client.cancel(job_id)
                except ServiceError:
                    continue

        deadline = time.monotonic() + self.timeout
        while pending:
            if should_stop is not None and should_stop():
                cancel_pending()
                return
            if time.monotonic() > deadline:
                cancel_pending()
                for cell in pending.values():
                    on_result(cell, None,
                              f"service: no progress for "
                              f"{self.timeout:.0f}s")
                return
            try:
                status = client.campaign(campaign_id)
            except ServiceError as exc:
                for cell in pending.values():
                    on_result(cell, None, f"service: {exc}")
                return
            progressed = False
            for record in status["cells"]:
                cell = pending.get(record["id"])
                if cell is None or record["status"] not in self._TERMINAL:
                    continue
                pending.pop(record["id"])
                progressed = True
                if record["status"] != "done":
                    on_result(cell, None,
                              record.get("error") or record["status"])
                    continue
                try:
                    # campaign summaries omit reports; fetch this cell's
                    full = client.job(record["id"])
                except ServiceError as exc:
                    on_result(cell, None, f"service: {exc}")
                    continue
                report = SolveReport.from_dict(full["report"])
                report.from_cache = bool(full["from_cache"])
                if cache is not None:
                    cache.store(report)
                on_result(cell, report, None)
            if progressed:
                deadline = time.monotonic() + self.timeout
            elif pending:
                time.sleep(self.poll_interval)


_EXECUTORS: dict[str, type] = {
    "inline": InlineExecutor,
    "process-pool": ProcessPoolExecutor,
    "service": ServiceExecutor,
}
