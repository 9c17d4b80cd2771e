"""Open-loop load against one ``repro serve`` daemon.

One process, two threads, at most two connections: the calling thread
sends each request when it is due (``POST /jobs``), a second thread
polls the requests that were not answered from the plan cache
(``GET /jobs/<id>``). Every request is timed from its due time, so a
stall also charges the requests queued behind it. ``repro load --mode
open`` is not reused because it starts a thread per request.

The daemon runs under ``serve_launcher.py`` with its stdout sent to a
file, so no reader thread is needed to keep a pipe drained.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_URL_RE = re.compile(r"http://[\d.]+:\d+")
_TERMINAL = ("done", "failed", "cancelled")
#: a request unresolved this long after its due time counts as failed
REQUEST_TIMEOUT_S = 60.0
#: the sender times the reference kernel at most this often, and only
#: when the next request is due at least KERNEL_GAP_S later
KERNEL_EVERY_S = 0.3
KERNEL_GAP_S = 0.15
#: how often the poller sweeps the unanswered requests; latencies come
#: from the daemon's completion stamps, so a slow sweep costs no
#: precision and keeps polls from competing with the solver thread
POLL_INTERVAL_S = 0.05


class Daemon:
    """A ``repro serve`` subprocess started through the bench launcher."""

    def __init__(self, root: Path, workdir: Path, *, trace: bool):
        from repro.service import Client

        self.report_path = workdir / "daemon.json"
        self.log_path = workdir / "daemon.log"
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name(
                    "serve_launcher.py")),
                 "--report", str(self.report_path), "--trace", str(int(trace)),
                 "--host", "127.0.0.1", "--port", "0", "--workers", "1",
                 "--cache-dir", str(workdir / "cache")],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root)
        try:
            self.url = self._await_banner()
            self.client = Client(self.url, timeout=REQUEST_TIMEOUT_S)
            while self.client.health().get("status") != "ok":
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _await_banner(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _URL_RE.search(self.log_path.read_text())
            if match:
                return match.group(0)
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("daemon did not start: "
                           + self.log_path.read_text()[-2000:])

    def solve(self, job: Any) -> dict[str, Any]:
        """Submit ``job`` and poll until it finishes; the final record."""
        record = self.client.submit(job)
        if record["status"] in _TERMINAL:
            return record
        return self.client.wait(record["id"], timeout=REQUEST_TIMEOUT_S,
                                poll_interval=POLL_INTERVAL_S)

    def next_phase(self) -> None:
        """Tell a traced daemon to start its next span phase."""
        os.kill(self.process.pid, signal.SIGUSR1)

    def stop(self) -> dict[str, Any]:
        """SIGTERM, wait, and return the launcher's exit report."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        try:
            return json.loads(self.report_path.read_text())
        except (OSError, ValueError):
            return {}


@dataclass
class Request:
    """One scheduled request and what became of it."""

    due: float  # perf_counter time the request was due
    job: int
    sent: float = 0.0
    http_s: float = 0.0
    #: "hit" (answered from the plan cache at submission), "cold" (ran a
    #: search) or "coalesced" (rode a search already in flight)
    kind: str = ""
    latency: float | None = None
    #: latency scaled to the reference kernel (set by the caller)
    scaled: float = 0.0
    record: dict[str, Any] | None = None
    error: str | None = None


def drive(url: str, jobs: list[Any], schedule: list[tuple[float, int]],
          kernel: Callable[[], float],
          midpoint: Callable[[], None] | None = None,
          ) -> tuple[list[Request], list[tuple[float, float]]]:
    """Send ``schedule`` (``(due offset, job index)``) open-loop.

    Host speed drifts within seconds, so the sender also times
    ``kernel`` (at most every ``KERNEL_EVERY_S``, only when the next
    request is at least ``KERNEL_GAP_S`` away, so it never delays one);
    returns the requests and ``(perf_counter time, kernel seconds)``.
    """
    from repro.service import Client, ServiceError

    sender = Client(url, timeout=REQUEST_TIMEOUT_S)
    start, wall_start = time.perf_counter(), time.time()
    requests = [Request(start + due, job) for due, job in schedule]
    pending: queue.Queue[tuple[Request, str]] = queue.Queue()
    sending = threading.Event()
    sending.set()
    poller = threading.Thread(
        target=_poll, args=(Client(url, timeout=REQUEST_TIMEOUT_S), pending,
                            sending, start, wall_start))
    poller.start()
    kernels = [(time.perf_counter(), kernel())]
    try:
        for index, request in enumerate(requests):
            if midpoint is not None and index == len(requests) // 2:
                midpoint()
            now = time.perf_counter()
            if request.due - now > KERNEL_GAP_S \
                    and now - kernels[-1][0] > KERNEL_EVERY_S:
                kernels.append((now, kernel()))
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request.sent = time.perf_counter()
            try:
                record = sender.submit(jobs[request.job])
            except (ServiceError, OSError) as exc:
                request.error = f"{type(exc).__name__}: {exc}"
                continue
            now = time.perf_counter()
            request.http_s = now - request.sent
            if record["from_cache"]:
                request.kind, request.record = "hit", record
                request.latency = now - request.due
            else:
                request.kind = "cold"
                pending.put((request, record["id"]))
    finally:
        sending.clear()
        poller.join()
    kernels.append((time.perf_counter(), kernel()))
    return requests, kernels


def _poll(client: Any, pending: queue.Queue, sending: threading.Event,
          start: float, wall_start: float) -> None:
    """Second thread: resolve requests that started a search."""
    from repro.service import ServiceError

    unresolved: list[tuple[Request, str]] = []
    while True:
        while True:
            try:
                unresolved.append(pending.get_nowait())
            except queue.Empty:
                break
        if not unresolved and not sending.is_set() and pending.empty():
            return
        for item in list(unresolved):
            request, job_id = item
            try:
                record = client.job(job_id)
            except (ServiceError, OSError) as exc:
                request.error = f"{type(exc).__name__}: {exc}"
                unresolved.remove(item)
                continue
            if record["status"] in _TERMINAL:
                unresolved.remove(item)
                if record["status"] != "done":
                    request.error = f"job {record['status']}: {record['error']}"
                    continue
                request.record = record
                request.kind = "coalesced" if record["coalesced"] else "cold"
                # the daemon's completion stamp, on this host's clock
                request.latency = (record["finished_at"] - wall_start) \
                    - (request.due - start)
            elif time.perf_counter() > request.due + REQUEST_TIMEOUT_S:
                request.error = "timeout"
                unresolved.remove(item)
        time.sleep(POLL_INTERVAL_S)
