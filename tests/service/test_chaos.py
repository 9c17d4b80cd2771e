"""Chaos: kill solver worker processes and prove nothing wedges.

Two failure-injection levers:

* a real ``SIGKILL`` on a worker pid (tier-level tests — the
  honest "someone OOM-killed my worker" scenario);
* the synthetic solver's ``die_file`` hook (service/campaign tests —
  the worker hard-exits via ``os._exit`` *iff* a flag file exists, so
  death is deterministic and, because the flag is outside the job
  fingerprint, the identical resubmitted job can succeed).

Every test ends by proving the survivor property: the tier/daemon
answers the *next* request, with ``restarts`` ticked in stats.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading
import time

import pytest

from repro.api import PlanCache, TuningJob
from repro.campaigns import CampaignSpec, run_campaign
from repro.service import running_service
from repro.service.workers import ProcessWorkerTier, WorkerDiedError

LONG_JOB = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2,
                     global_batch=16, scale="smoke", interference="none",
                     options={"synthetic": {"seconds": 30.0}})


def _kill_only_worker(tier: ProcessWorkerTier, after: float = 0.5) -> None:
    """SIGKILL a one-slot tier's worker, once it is mid-search."""
    time.sleep(after)
    [pid] = tier.worker_pids()
    assert pid is not None, "worker was never spawned"
    os.kill(pid, signal.SIGKILL)


class TestTierChaos:
    def test_kill_mid_search_fails_cleanly_without_retry(self):
        tier = ProcessWorkerTier(1, retries=0)
        try:
            tier.warm(timeout=120)
            killer = threading.Thread(target=_kill_only_worker, args=(tier,))
            killer.start()
            with pytest.raises(WorkerDiedError, match="died mid-search"):
                tier.run(LONG_JOB, "synthetic")
            killer.join()
            assert tier.stats()["restarts"] == 1
            # the queue is not wedged: the next search (same slot or
            # not) respawns lazily and completes
            short = dataclasses.replace(
                LONG_JOB, options={"synthetic": {"seconds": 0.05}})
            report = tier.run(short, "synthetic")
            assert report.measured["throughput"] == 100.0
        finally:
            tier.shutdown()

    def test_kill_mid_search_retries_once_and_succeeds(self):
        job = dataclasses.replace(
            LONG_JOB, options={"synthetic": {"seconds": 2.0}})
        tier = ProcessWorkerTier(1, retries=1)
        try:
            tier.warm(timeout=120)
            killer = threading.Thread(target=_kill_only_worker, args=(tier,))
            killer.start()
            report = tier.run(job, "synthetic")
            killer.join()
            assert report.measured["throughput"] == 100.0
            assert tier.stats()["restarts"] == 1
        finally:
            tier.shutdown()


class TestServiceChaos:
    def test_worker_death_fails_job_not_daemon(self, tmp_path):
        flag = tmp_path / "die-now"
        flag.touch()
        doomed = dataclasses.replace(
            LONG_JOB,
            options={"synthetic": {"seconds": 0.2,
                                   "die_file": str(flag)}})
        with running_service(workers=2, worker_mode="process",
                             worker_retries=0,
                             cache=PlanCache(tmp_path / "plans"),
                             client_timeout=120.0) as (_, client):
            record = client.submit(doomed, solver="synthetic")
            final = client.wait(record["id"], timeout=120)
            assert final["status"] == "failed"
            assert "WorkerDiedError" in final["error"]

            # daemon is alive, ticked the restart counter, and the
            # *same* job succeeds once the flag is gone
            assert client.health()["status"] == "ok"
            metrics = client.metrics()
            assert metrics["jobs"]["failed"] == 1
            assert metrics["worker_tier"]["restarts"] >= 1
            flag.unlink()
            retry = client.submit(doomed, solver="synthetic")
            assert client.wait(retry["id"],
                               timeout=120)["status"] == "done"

    def test_die_file_ignored_on_thread_workers(self, tmp_path):
        # the chaos hook hard-exits only a multiprocessing child: on a
        # daemon whose workers are threads it would kill the daemon
        from repro.service import Client
        from repro.service.launch import spawn_daemon

        armed = dataclasses.replace(
            LONG_JOB, options={"synthetic": {"seconds": 0.1,
                                             "die_file": "/"}})
        with spawn_daemon(worker_mode="thread",
                          cache_dir=str(tmp_path / "plans")) as daemon:
            client = Client(daemon.url, timeout=30.0)
            record = client.submit(armed, solver="synthetic")
            final = client.wait(record["id"], timeout=120)
            assert final["status"] == "done"
            assert client.health()["status"] == "ok"
            assert daemon.process.poll() is None

    def test_sigterm_stops_a_process_daemon_cleanly(self, tmp_path):
        # the daemon shuts its worker processes down before it exits:
        # an orphaned worker would keep the daemon's stdout pipe open
        from repro.service.launch import spawn_daemon

        with spawn_daemon(workers=2, worker_mode="process",
                          cache_dir=str(tmp_path / "plans")) as daemon:
            daemon.process.send_signal(signal.SIGTERM)
            assert daemon.process.wait(timeout=10) == 0
        # spawn_daemon closes the pipe only once its reader saw EOF
        assert daemon.process.stdout.closed
        assert not any("Traceback" in line for line in daemon.output)

    def test_campaign_worker_death_leaves_manifest_resumable(
            self, tmp_path, monkeypatch):
        flag = tmp_path / "chaos-flag"
        flag.touch()
        # campaign cells carry no free-form options; arm the chaos hook
        # through the synthetic solver's environment defaults instead
        # (worker processes inherit the daemon's environment)
        monkeypatch.setenv(
            "REPRO_SYNTHETIC_DEFAULTS",
            json.dumps({"seconds": 0.1, "die_file": str(flag)}))
        spec = CampaignSpec(name="chaos-campaign", solvers=("synthetic",),
                            models=("gpt3-1.3b",), scales=("smoke",),
                            clusters=({"gpu": "L4", "num_gpus": 2},),
                            global_batches=(8, 16))
        directory = tmp_path / "campaign"
        with running_service(workers=2, worker_mode="process",
                             worker_retries=0,
                             cache=PlanCache(tmp_path / "plans"),
                             client_timeout=120.0) as (service, client):
            url = f"http://{service.host}:{service.port}"
            first = run_campaign(
                spec, executor="service",
                executor_options={"url": url, "timeout": 120.0},
                directory=directory)
            # both cells died with their workers — recorded as failed,
            # the campaign itself finished (nothing wedged)
            assert first.counters["failed"] == 2
            assert first.counters["done"] == 0
            assert client.health()["status"] == "ok"

            flag.unlink()
            resumed = run_campaign(
                spec, executor="service",
                executor_options={"url": url, "timeout": 120.0},
                directory=directory, resume=True)
            assert resumed.counters["failed"] == 0
            assert resumed.counters["done"] == 2

            # third run: pure manifest short-circuit, no daemon work
            again = run_campaign(
                spec, executor="service",
                executor_options={"url": url, "timeout": 120.0},
                directory=directory, resume=True)
            assert again.counters["done"] == 2
            assert again.counters["manifest_hits"] == 2
