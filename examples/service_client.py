"""Tuning-as-a-service demo: coalescing and plan-cache reuse.

Self-contained: starts a `TuningService` on an ephemeral port inside
this process (the same daemon `repro serve` runs), then exercises it
with the blocking `repro.service.Client`:

1. two threads submit the *same* job concurrently -> the daemon runs
   one search and both submissions share it (coalescing);
2. the same job is submitted again -> answered from the shared plan
   cache without any search;
3. `/metrics` counters prove both.

Run:  PYTHONPATH=src python examples/service_client.py
Against a real daemon, drop the in-process startup and point `Client`
at it, e.g. `Client("http://127.0.0.1:8321")` after `repro serve`.
"""

import tempfile
import threading

from repro.api import PlanCache, TuningJob
from repro.service import Client, TuningService

JOB = TuningJob(
    model="gpt3-1.3b", gpu="L4", num_gpus=2, global_batch=16,
    scale="smoke",          # tiny grid: the demo finishes in seconds
    interference="none",    # uncalibrated default factors
)


def main() -> None:
    service = TuningService(workers=2, cache=PlanCache(tempfile.mkdtemp()))
    handle = service.run_in_thread()
    client = Client(handle.url)
    print(f"daemon up at {handle.url} "
          f"(solvers: {', '.join(client.health()['solvers'])})")

    # -- 1. concurrent identical submissions coalesce ---------------------
    records = []

    def submit() -> None:
        records.append(client.submit(JOB, solver="mist"))

    threads = [threading.Thread(target=submit) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for record in records:
        tag = "coalesced onto in-flight search" if record["coalesced"] \
            else "started the search"
        print(f"  submitted {record['id']}: {tag}")

    done = [client.wait(r["id"], timeout=300) for r in records]
    throughput = done[0]["report"]["measured"].get("throughput", 0.0)
    print(f"  both jobs done: {throughput:.2f} samples/s")

    # -- 2. a repeat submission is a pure cache hit -----------------------
    repeat = client.submit(JOB, solver="mist")
    print(f"  repeat submission: status={repeat['status']} "
          f"from_cache={repeat['from_cache']}")

    # -- 3. the metrics counters tell the story ---------------------------
    metrics = client.metrics()
    print("metrics:"
          f" solver invocations={metrics['solver']['invocations']}"
          f" coalesced={metrics['jobs']['coalesced']}"
          f" cache hits={metrics['cache']['hits']}"
          f" misses={metrics['cache']['misses']}")
    assert metrics["solver"]["invocations"] == 1
    assert metrics["jobs"]["coalesced"] == 1
    assert metrics["cache"]["hits"] == 1

    # the fingerprint-keyed plan endpoint serves the cached report too
    report = client.plan(JOB.fingerprint(), solver="mist")
    print(f"GET /plans/{JOB.fingerprint()} -> "
          f"{report.throughput:.2f} samples/s (cached)")

    handle.stop()
    print("daemon stopped")


if __name__ == "__main__":
    main()
