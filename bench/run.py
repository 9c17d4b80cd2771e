"""Repository benchmark: one seeded workload through the public API.

    python3 bench/run.py --workload table4-quick --seed 1 --seconds 20 \\
        --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
repository root. The run sets up (fresh interpreters), measures for
``--seconds``, checks every result, prints each metric as ``name value
unit`` and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``). ``--smoke`` swaps in tiny jobs for the self-test.

Exit codes: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import service_driver
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED_PLANS = BENCH / "expected_plans.json"

#: every time is scaled by REF_KERNEL_S / (median reference kernel near
#: it), which cancels much of the host's speed drift between runs
REF_KERNEL_S = 0.0125
#: set-ups per run, each in a fresh interpreter (1 with --smoke)
SETUPS = 3
#: the open loop fails if its generator ran later than this at p95
MAX_LAG_P95_S = 0.05
#: service-open counts a request done within this of its due time
SLO_S = 1.0


class RefKernel:
    """How fast the host is right now, from work outside ``repro``.

    A solve mixes interpreter work with numpy, and host slowdowns hit
    the two differently, so the kernel times one of each: 10 rounds of
    in-place sqrt and multiply over 1M doubles, and a dict-and-list loop
    in plain Python. It returns the geometric mean of the two times.
    Nothing from ``repro`` runs in it, so no change to the program can
    move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._a = np.linspace(1.0, 2.0, 1_000_000)
        self._b = np.empty_like(self._a)

    def __call__(self) -> float:
        np, a, b = self._np, self._a, self._b
        start = time.perf_counter()
        for _ in range(10):
            np.sqrt(a, out=b)
            np.multiply(b, a, out=b)
        mid = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(15_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
            sorted([i, i + 1, i + 2], reverse=True)
        end = time.perf_counter()
        return math.sqrt((mid - start) * (end - mid))

    def median(self, rounds: int = 3) -> float:
        return statistics.median(self() for _ in range(rounds))


@dataclass
class Sample:
    """One timed operation and its outcome."""

    kind: str
    job: Any
    seconds: float
    traced: bool
    report: Any = None
    error: str | None = None
    #: seconds scaled to the reference kernel
    scaled: float = 0.0


# -- statistics -------------------------------------------------------------


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) \
        if values else 0.0


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def scale_by_kernels(samples: list[Sample], kernels: list[float]) -> None:
    """Scale sample ``i`` by the median of kernels ``i-2 .. i+2``;
    ``kernels[i]`` ran just before sample ``i``."""
    for i, sample in enumerate(samples):
        near = kernels[max(0, i - 2):i + 3]
        sample.scaled = sample.seconds * REF_KERNEL_S / statistics.median(near)


def kind_latency(samples: list[Sample]) -> tuple[float, float]:
    """(geomean, sum) over kinds of each kind's median scaled time."""
    by_kind: dict[str, list[float]] = {}
    for sample in samples:
        by_kind.setdefault(sample.kind, []).append(sample.scaled)
    medians = [statistics.median(v) for v in by_kind.values()]
    return geomean(medians), sum(medians)


def overhead(traced: list[Sample], plain: list[Sample]) -> float:
    """Traced over untraced latency, minus 1, on the kinds both ran."""
    kinds = {s.kind for s in traced} & {s.kind for s in plain}
    on = kind_latency([s for s in traced if s.kind in kinds])[0]
    off = kind_latency([s for s in plain if s.kind in kinds])[0]
    return on / off - 1 if on and off else 0.0


def plan_quality(reports: dict[str, Any]) -> tuple[float, float]:
    """(geomean measured throughput, mean iteration-time prediction
    error) over one report per distinct operation."""
    tput = [r.measured["throughput"] for r in reports.values()]
    err = [abs(r.predicted["iteration_time"] - r.measured["iteration_time"])
           / r.measured["iteration_time"] for r in reports.values()]
    return geomean(tput), statistics.fmean(err) if err else 0.0


# -- checks -----------------------------------------------------------------


def check_report(report: Any, job: Any) -> str:
    """The report's plan hash, after the per-result checks; raises when
    one fails."""
    from repro.api import SolveReport
    from repro.benchmarking import plan_hash

    if report.plan is None:
        raise ValueError("no plan")
    report.plan.validate(job.workload.model, job.workload.cluster)
    text = report.to_json()
    if SolveReport.from_json(text).to_json() != text:
        raise ValueError("SolveReport JSON does not round-trip")
    return plan_hash(report.plan)


def check_samples(samples: list[Sample]) -> dict[str, str]:
    """Per-result checks plus "the same plan on every pass"; marks each
    failing sample and returns each kind's plan hash."""
    hashes: dict[str, str] = {}
    for sample in samples:
        if sample.error:
            continue
        try:
            digest = check_report(sample.report, sample.job)
        except Exception as exc:  # noqa: BLE001 - any failure is counted
            sample.error = f"{type(exc).__name__}: {exc}"
            continue
        if hashes.setdefault(sample.kind, digest) != digest:
            sample.error = "plan differs from this job's first pass"
    return hashes


def plans_changed(workload: str, hashes: dict[str, str]) -> int:
    """Write this run's plan hashes; count drifts from the recorded ones."""
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}.plans.json").write_text(
        json.dumps(hashes, indent=1, sort_keys=True))
    expected = json.loads(EXPECTED_PLANS.read_text()).get(workload, {})
    return sum(1 for kind, digest in hashes.items()
               if expected.get(kind) != digest)


# -- per-layer metrics --------------------------------------------------------

#: per-layer metric -> the span whose self time per operation it reports
SELF_TIMES = {
    "tracing.trace_s": "tracing.trace",
    "analyzer.compile_s": "analyzer.compile",
    "analyzer.predict_s": "analyzer.predict",
    "analyzer.predict_memory_s": "analyzer.predict_memory",
    "analyzer.compute_channel_s": "analyzer.compute_channel",
    "intra.tune_self_s": "intra.tune",
    "inter.exact_s": "inter.exact",
    "inter.milp_s": "inter.milp",
    "tuner.search_self_s": "tuner.search",
    "execution.run_s": "execution.run",
    "cache.load_s": "cache.load",
    "cache.store_s": "cache.store",
}
#: per-layer metric -> the span whose calls per operation it counts
CALLS = {
    "tracing.trace_calls": "tracing.trace",
    "analyzer.predict_calls": "analyzer.predict",
    "intra.tune_calls": "intra.tune",
    "inter.exact_calls": "inter.exact",
    "inter.milp_calls": "inter.milp",
    "execution.run_calls": "execution.run",
}


def layer_metrics(measured: list[spans.Span], setup: list[spans.Span],
                  ops: int, stats: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts, per operation; set-up per set-up.

    ``stats`` holds the ``search_stats`` of every traced search.
    """
    lay, boot = spans.layers(measured), spans.layers(setup)

    def per(value: float) -> float:
        return ratio(value, ops)

    def total(key: str) -> int:
        return sum(int(s.get(key, 0)) for s in stats)

    calibrate = boot.self_s.get("costmodel.calibrate", 0.0)
    hits = lay.outcomes.get(("memo.lookup", "hit"), 0)
    misses = lay.outcomes.get(("memo.lookup", "miss"), 0)
    out = {
        "costmodel.calibrate_s": calibrate,
        "costmodel.calibrate_calls": boot.calls.get("costmodel.calibrate", 0),
        "setup.first_tuner_s": sum(
            boot.self_s.get(name, 0.0) for name in
            ("api.make_tuner", "tracing.trace", "analyzer.compile")),
        "memo.hits": per(hits),
        "memo.misses": per(misses),
        "memo.hit_ratio": ratio(hits, hits + misses),
        "execution.oom_ratio": ratio(
            lay.outcomes.get(("execution.run", "OOMError"), 0),
            lay.calls.get("execution.run", 0)),
        "api.solve_self_s": per(sum(
            lay.self_s.get(name, 0.0) for name in
            ("api.solve", "api.replan", "api.make_tuner"))),
        "analyzer.predict_rows": per(lay.rows.get("analyzer.predict", 0)),
        "tuner.prune_ratio": ratio(total("cells_pruned"),
                                   total("cells_total")),
        "tuner.prefilter_ratio": ratio(total("configs_prefiltered"),
                                       total("configs_evaluated")),
        "trace.coverage": ratio(lay.below_root_s, lay.root_s),
    }
    out.update({metric: per(lay.self_s.get(span, 0.0))
                for metric, span in SELF_TIMES.items()})
    out.update({metric: per(lay.calls.get(span, 0))
                for metric, span in CALLS.items()})
    for key in ("cells_total", "cells_explored", "cells_pruned",
                "configs_evaluated", "configs_prefiltered"):
        out[f"tuner.{key}"] = per(total(key))
    return out


# -- closed loops -------------------------------------------------------------


def closed_setup(workload: str, smoke: bool,
                 recorder: spans.Recorder | None) -> tuple[Any, dict, dict]:
    """Import ``repro``, calibrate the workload's fabrics and build its
    first tuner (``make_tuner`` calibrates on first use)."""
    start = time.perf_counter()
    import repro.api as api
    import_s = time.perf_counter() - start
    if recorder is not None:
        spans.install(recorder)
    jobs = workloads.CLOSED[workload].jobs(api, smoke)
    start = time.perf_counter()
    api.get_solver("mist").make_tuner(next(iter(jobs.values())))
    return api, jobs, {"import_s": import_s,
                       "setup_s": import_s + time.perf_counter() - start}


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """(set-up seconds, kernel seconds) from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["kernel_s"]


def measure_closed(api: Any, workload: str, jobs: dict, seconds: float,
                   rng: random.Random, kernel: RefKernel,
                   recorder: spans.Recorder | None,
                   ) -> tuple[list[Sample], list[float]]:
    """Run episodes until ``seconds`` pass; traced runs trace every other
    episode so the untraced ones measure the tracing overhead."""
    episode_fn = workloads.CLOSED[workload].episode
    samples: list[Sample] = []
    kernels: list[float] = []
    start = time.perf_counter()
    episodes = 0
    while time.perf_counter() - start < seconds:
        traced = recorder is not None and episodes % 2 == 1
        episode = episode_fn(api, jobs, rng)
        report = None
        while time.perf_counter() - start < seconds:
            try:
                op = episode.send(report)
            except StopIteration:
                break
            if op.before is not None:
                op.before()
            kernels.append(kernel())
            call = recorder.wrap(op.entry, op.call) if traced else op.call
            if recorder is not None:
                recorder.enabled = traced
            began = time.perf_counter()
            try:
                report, error = call(), None
            except Exception as exc:  # noqa: BLE001 - counted as failed
                report, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - began
            if recorder is not None:
                recorder.enabled = False
            samples.append(Sample(op.kind, op.job, elapsed, traced,
                                  report, error))
        episodes += 1
    kernels.append(kernel())
    scale_by_kernels(samples, kernels)
    return samples, kernels


def check_replans(api: Any, jobs: dict, samples: list[Sample],
                  hashes: dict[str, str]) -> tuple[float, float]:
    """Each warm replan must equal a cold solve of the changed cluster
    (its predicted winner); run untimed, after the measurement.

    Returns (geomean cold/warm configurations evaluated, share of
    replans whose incumbent cell still existed).
    """
    from repro.benchmarking import plan_hash

    work, matched = [], []
    for kind in sorted(k for k in hashes if k.startswith("replan:")):
        cold = api.solve(jobs[kind])
        good = cold.top_plans and plan_hash(cold.top_plans[0]) == hashes[kind]
        for sample in samples:
            if sample.kind != kind or sample.error:
                continue
            if not good:
                sample.error = "warm replan differs from a cold solve"
                continue
            stats = sample.report.search_stats
            work.append(ratio(cold.search_stats["configs_evaluated"],
                              stats["configs_evaluated"]))
            matched.append(bool((stats.get("warm_seed") or {}).get("matched")))
    return geomean([w for w in work if w > 0]), ratio(sum(matched),
                                                       len(matched))


def run_closed(args: argparse.Namespace) -> tuple[dict, list, dict]:
    recorder = spans.Recorder() if args.trace else None
    api, jobs, setup = closed_setup(args.workload, args.smoke, recorder)
    kernel = RefKernel()
    setups = [(setup["setup_s"], kernel.median())]
    setups += [probe_setup(args) for _ in range(setup_probes(args))]
    if recorder is not None:
        recorder.next_phase(enabled=False)
    samples, kernels = measure_closed(
        api, args.workload, jobs, args.seconds, random.Random(args.seed),
        kernel, recorder)
    hashes = check_samples(samples)
    work_ratio, seed_matched = check_replans(api, jobs, samples, hashes)

    firsts = {}
    for sample in samples:
        if not sample.error:
            firsts.setdefault(sample.kind, sample.report)
    plain = [s for s in samples if not s.error and not s.traced]
    latency, tail = kind_latency(plain)
    tput, err = plan_quality(firsts)
    end_to_end = {
        "setup_s": statistics.median(
            total * REF_KERNEL_S / k for total, k in setups),
        "latency_s": latency,
        "tail_s": tail,
        "plan_tput": tput,
        "pred_err": err,
        "rss_peak_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_layer: dict[str, float] = {}
    if recorder is not None:
        traced = [s for s in samples if s.traced and not s.error]
        per_layer = layer_metrics(
            [s for s in recorder.spans if s.phase > 0],
            [s for s in recorder.spans if s.phase == 0], len(traced),
            [s.report.search_stats for s in traced])
        per_layer.update({
            "setup.import_s": setup["import_s"],
            "replan.work_ratio": work_ratio,
            "replan.seed_matched_ratio": seed_matched,
            "trace_overhead": overhead(traced, plain),
        })
        dump_spans(args.workload, recorder.spans)
    per_layer.update({
        "plans_changed": plans_changed(expected_key(args), hashes),
        "bench.ref_kernel_s": statistics.median(kernels),
    })
    return end_to_end, samples, per_layer


# -- service-open -------------------------------------------------------------


def start_daemon(api: Any, workdir: Path, trace: bool,
                 ) -> tuple[service_driver.Daemon, float]:
    """Spawn a daemon, wait for /healthz, solve the warm-up job (the
    first solve calibrates); returns the daemon and the seconds from
    spawn to the daemon's completion stamp of the warm-up."""
    start = time.time()
    daemon = service_driver.Daemon(ROOT, workdir, trace=trace)
    try:
        record = daemon.solve(workloads.warmup_job(api))
        if record["status"] != "done":
            raise RuntimeError(f"warm-up solve {record['status']}: "
                               f"{record['error']}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, record["finished_at"] - start


def scale_requests(requests: list[service_driver.Request],
                   kernels: list[tuple[float, float]]) -> None:
    """Scale each latency by the median kernel timed within a second of
    the request's due time (the three nearest when fewer ran)."""
    for request in requests:
        if request.latency is None:
            continue
        near = [k for t, k in kernels if abs(t - request.due) <= 1.0]
        if len(near) < 3:
            near = [k for _, k in sorted(
                kernels, key=lambda tk: abs(tk[0] - request.due))[:3]]
        request.scaled = request.latency * REF_KERNEL_S \
            / statistics.median(near)


def service_latency(requests: list[service_driver.Request],
                    ) -> tuple[float, float]:
    """(geomean of the hit and cold-solve medians, p95 of all), scaled."""
    done = [r for r in requests if r.latency is not None and not r.error]
    medians = [statistics.median(lat) for lat in (
        [r.scaled for r in done if r.kind == kind] for kind in
        ("hit", "cold")) if lat]
    return geomean(medians), nearest_rank([r.scaled for r in done], 95)


def run_service(args: argparse.Namespace) -> tuple[dict, list, dict]:
    import repro.api as api

    jobs = workloads.service_jobs(api, args.smoke)
    kinds = list(jobs)
    kernel = RefKernel()
    workdir = OUT / f"service-{os.getpid()}"
    setups = []
    try:
        for index in range(setup_probes(args)):
            daemon, seconds = start_daemon(api, workdir / f"probe{index}",
                                           trace=False)
            daemon.stop()
            setups.append((seconds, kernel.median()))
        daemon, seconds = start_daemon(api, workdir / "daemon",
                                       trace=bool(args.trace))
        try:
            setups.append((seconds, kernel.median()))
            schedule = workloads.service_schedule(
                len(kinds), round(workloads.SERVICE_RATE * args.seconds),
                random.Random(args.seed))
            if args.trace:
                daemon.next_phase()  # the first half runs untraced
            counters = []

            def midpoint() -> None:
                daemon.next_phase()
                counters.append(daemon.client.metrics())

            requests, kernels = service_driver.drive(
                daemon.url, [jobs[k] for k in kinds], schedule, kernel,
                midpoint=midpoint if args.trace else None)
            counters.append(daemon.client.metrics())
        finally:
            exit_report = daemon.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # per-request checks, then every served plan against an inline solve
    hashes: dict[str, str] = {}
    served: dict[str, Any] = {}
    for request in requests:
        kind = kinds[request.job]
        if request.error:
            continue
        if request.record is None:
            request.error = "unresolved at the end of the run"
            continue
        try:
            report = api.SolveReport.from_dict(request.record["report"])
            digest = check_report(report, jobs[kind])
        except Exception as exc:  # noqa: BLE001 - counted as failed
            request.error = f"{type(exc).__name__}: {exc}"
            continue
        served.setdefault(kind, report)
        if hashes.setdefault(kind, digest) != digest:
            request.error = "served plan differs from the job's first"
    from repro.benchmarking import plan_hash

    inline_ok = {kind: plan_hash(api.solve(jobs[kind]).plan) == digest
                 for kind, digest in hashes.items()}
    lags = [r.sent - r.due for r in requests if r.sent]
    lag_p95 = nearest_rank(lags, 95)
    for request in requests:
        if not request.error and not inline_ok[kinds[request.job]]:
            request.error = "served plan differs from an inline solve"
        elif not request.error and lag_p95 > MAX_LAG_P95_S:
            request.error = f"generator lag p95 {lag_p95:.3f}s"

    scale_requests(requests, kernels)
    half = len(requests) // 2
    latency, tail = service_latency(requests[half:] if args.trace
                                    else requests)
    tput, err = plan_quality(served)
    end_to_end = {
        "setup_s": statistics.median(
            total * REF_KERNEL_S / k for total, k in setups),
        "latency_s": latency,
        "tail_s": tail,
        "plan_tput": tput,
        "pred_err": err,
        "rss_peak_mb": exit_report.get("rss_peak_mb", 0.0),
    }
    per_layer = {
        "plans_changed": plans_changed(expected_key(args), hashes),
        "bench.ref_kernel_s": statistics.median(k for _, k in kernels),
        "gen.lag_p95_s": lag_p95,
    }
    if args.trace:
        traced = requests[half:]
        per_layer.update(service_layers(
            traced, [spans.Span(*s) for s in exit_report.get("spans", [])],
            *counters))
        per_layer.update({
            "setup.import_s": exit_report.get("import_s", 0.0),
            "trace_overhead": ratio(latency, service_latency(
                requests[:half])[0]) - 1,
        })
        dump_spans(args.workload, exit_report.get("spans", []))
    return end_to_end, requests, per_layer


def service_layers(requests: list[service_driver.Request],
                   recorded: list[spans.Span], before: dict,
                   after: dict) -> dict[str, float]:
    """Daemon spans and counters over the traced half, per request."""
    n = len(requests)
    done = [r for r in requests if r.record is not None and not r.error]
    searched = [r.record for r in done if r.kind == "cold"]
    stats = [r["report"].get("search_stats", {}) for r in searched]
    out = layer_metrics([s for s in recorded if s.phase == 2],
                        [s for s in recorded if s.phase == 0], n, stats)

    def delta(*path: str) -> float:
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return ratio(b - a, n)

    window = max(r.due for r in requests) - min(r.due for r in requests)
    durations = [r["duration_seconds"] for r in searched]
    out.update({
        "cache.hit_ratio": ratio(sum(r.kind == "hit" for r in done), n),
        "svc.http_p50_s": median_or_zero([r.http_s for r in requests
                                          if r.http_s]),
        "svc.queue_wait_p95_s": nearest_rank(
            [r["wait_seconds"] for r in searched], 95),
        "svc.solve_p50_s": median_or_zero(durations),
        "svc.hit_p50_s": median_or_zero(
            [r.latency for r in done if r.kind == "hit"]),
        "svc.cold_p50_s": median_or_zero(
            [r.latency for r in done if r.kind == "cold"]),
        "svc.busy_ratio": ratio(sum(durations), window),
        "svc.coalesced_ratio": delta("jobs", "coalesced"),
        "svc.rejected": delta("admission", "rejected_queue")
        + delta("admission", "rejected_quota"),
        "svc.solver_invocations": delta("solver", "invocations"),
        "svc.slo_ratio": ratio(sum(1 for r in done if r.latency <= SLO_S), n),
    })
    return out


# -- entry point -------------------------------------------------------------


def setup_probes(args: argparse.Namespace) -> int:
    """Set-ups beyond the one the measuring process itself performs."""
    return 0 if args.smoke else SETUPS - 1


def expected_key(args: argparse.Namespace) -> str:
    return args.workload + ("-smoke" if args.smoke else "")


def dump_spans(workload: str, recorded: list) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}.spans.json").write_text(
        json.dumps([list(span) for span in recorded]))


def declared_metrics(trace: bool) -> list[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see BENCHMARK.json).")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.CLOSED, "service-open"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny jobs and one set-up (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.setup_only:
        _, _, setup = closed_setup(args.workload, args.smoke, None)
        print(json.dumps({"setup_s": setup["setup_s"],
                          "kernel_s": RefKernel().median()}))
        return 0

    run = run_service if args.workload == "service-open" else run_closed
    end_to_end, results, per_layer = run(args)
    values = per_layer if args.trace else end_to_end
    metrics = {}
    for metric in declared_metrics(bool(args.trace)):
        name, unit = metric["name"], metric["unit"]
        value = values.get(name, 0.0) if args.trace else values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value!r} {unit}")
    failed = [r for r in results if r.error]
    for result in failed[:5]:
        print(f"failed: {result.error}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
