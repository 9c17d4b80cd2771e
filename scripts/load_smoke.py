#!/usr/bin/env python3
"""CI load smoke for `repro load`: gates, plan identity, tier scaling.

Four proofs against real `repro serve` subprocesses:

1. the smoke trace, driven through the actual CLI entry point
   (`repro load --scale smoke --url ...`): every request must succeed
   with zero 5xx, and p99 latency is gated against the committed
   baseline in benchmarks/baselines/LOAD_smoke.json;
2. plan identity: the daemon's answer for trace cell 0 is bit-identical
   (by plan hash) to an inline in-process solve() of the same job —
   multi-process serving changes *where* a search runs, never what it
   answers;
3. the same trace as an open loop (`repro load --mode open --spawn`)
   on a freshly spawned daemon, so every cell is cold again: validity
   gates only, no baseline;
4. worker-tier scaling: the synthetic (CPU-bound busy-spin) trace is
   replayed against a 1-thread-worker daemon and a 4-process-worker
   daemon. The >=2x throughput gate is asserted only on multi-core
   runners (os.cpu_count() >= 4); single-core boxes print the ratio
   and move on.

Exit code 0 on success.

Usage: python scripts/load_smoke.py  (from the repo root)
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import PlanCache, solve  # noqa: E402
from repro.benchmarking import plan_hash  # noqa: E402
from repro.benchmarking.artifacts import (  # noqa: E402
    LOAD_ARTIFACT,
    LOAD_BASELINE,
)
from repro.cli import main as cli_main  # noqa: E402
from repro.loadgen import (  # noqa: E402
    TRACE_SCALES,
    run_load,
    synthesize_trace,
    validate_load,
)
from repro.service import Client, spawn_daemon  # noqa: E402

# canonical names shared with the CLI defaults and the CI upload step
BASELINE = ROOT / LOAD_BASELINE


def _gated_cli_run(url: str, out: Path) -> int:
    argv = ["load", "--scale", "smoke", "--url", url, "--out", str(out)]
    if BASELINE.exists():
        # generous headroom for shared-runner variance: the gate also
        # ignores sub-0.25s absolute drift (see check_against_baseline)
        argv += ["--baseline", str(BASELINE), "--max-regression", "1.0"]
    else:
        print(f"note: no committed baseline at {BASELINE}; "
              "running validity gates only")
    return cli_main(argv)


def _open_cli_run() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-load-open-") as tmp:
        return cli_main(["load", "--scale", "smoke", "--mode", "open",
                         "--spawn", "--out", str(Path(tmp) / "open.json")])


def _synthetic_rps(workers: int, worker_mode: str) -> float:
    spec = TRACE_SCALES["synthetic"]
    trace = synthesize_trace(spec)
    with tempfile.TemporaryDirectory(prefix="repro-load-tier-") as cache:
        with spawn_daemon(workers=workers, worker_mode=worker_mode,
                          cache_dir=cache) as daemon:
            result = run_load(daemon.url, spec, trace, mode="closed",
                              concurrency=8, timeout=300.0)
    problems = validate_load(result)
    assert not problems, problems
    return float(result["throughput_rps"])


def main() -> int:
    out = Path(LOAD_ARTIFACT)
    with tempfile.TemporaryDirectory(prefix="repro-load-") as cache_dir:
        with spawn_daemon(workers=2, cache_dir=cache_dir) as daemon:
            print(f"daemon at {daemon.url} (2 thread workers)")
            code = _gated_cli_run(daemon.url, out)
            if code != 0:
                return code

            # the load run already solved cell 0; asking again returns
            # the cached plan, which must hash-match an inline solve
            spec = TRACE_SCALES["smoke"]
            job = spec.job_for_cell(0)
            client = Client(daemon.url, timeout=60)
            served = client.solve(job, solver=spec.solver, timeout=300)
            with tempfile.TemporaryDirectory(
                    prefix="repro-load-inline-") as inline_dir:
                inline = solve(job, spec.solver,
                               cache=PlanCache(inline_dir))
            assert served.plan is not None and inline.plan is not None
            assert plan_hash(served.plan) == plan_hash(inline.plan), \
                "daemon plan diverged from inline solve()"
            print("plan identity: daemon answer hash-matches inline "
                  "solve()")

    code = _open_cli_run()
    if code != 0:
        return code

    cores = os.cpu_count() or 1
    thread_rps = _synthetic_rps(1, "thread")
    process_rps = _synthetic_rps(4, "process")
    ratio = process_rps / thread_rps if thread_rps else float("inf")
    line = (f"worker-tier scaling: thread x1 {thread_rps:.2f} rps -> "
            f"process x4 {process_rps:.2f} rps ({ratio:.2f}x, "
            f"{cores} cores)")
    if cores >= 4:
        assert ratio >= 2.0, line
        print(f"{line} — >=2x gate OK")
    else:
        print(f"{line} — >=2x gate skipped on <4 cores")
    print("load smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
