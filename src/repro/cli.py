"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands:

* ``tune``     — solve one workload through the solver registry, print
  the plan and measured throughput; ``--compare`` runs any other
  registered solvers on the same job; ``--cluster file.json`` tunes an
  explicit (possibly heterogeneous, mixed-GPU) cluster.
* ``replan``   — elastic re-tuning: apply a ``ClusterDelta`` JSON
  (nodes added/removed, a device group resized or retyped, a link
  degraded) to a job's cluster and re-tune warm-started from the
  incumbent plan — bit-identical to a cold search of the changed
  cluster, at a fraction of the configurations evaluated.
* ``sweep``    — run several solvers across a grid of model sizes and
  print the normalized-throughput table (Figs. 11/12 style); a thin
  wrapper over the campaign engine (``--executor process-pool``
  parallelizes the grid).
* ``campaign`` — the full evaluation-campaign surface: ``run`` a
  declarative JSON campaign spec through a chosen executor (``inline``,
  ``process-pool``, ``service``) with a resumable on-disk manifest
  (``--dir`` + ``--resume``), ``status`` a manifest, and re-``report``
  its aggregated speedup table (see ``docs/API.md``).
* ``cluster``  — inspect/validate a cluster description file: device
  groups, per-GPU memory budgets, link bandwidths.
* ``serve``    — start the tuning-as-a-service HTTP daemon (job
  submission, request coalescing, shared plan cache, thread- or
  process-backed solver workers, admission control; see
  ``docs/SERVICE.md``).
* ``load``     — replay a synthetic campaign-cell trace against a
  daemon (closed- or open-loop), write the schema'd ``repro-load/1``
  report, and gate error rates + p99 latency against a committed
  baseline (see ``docs/SERVICE.md``).
* ``bench``    — run the perf-benchmark suite at a chosen scale, write
  the schema'd ``BENCH_4.json`` snapshot, and gate the pruned search
  against the exhaustive reference (plan bit-identity), warm replans
  against cold searches, and (optionally) a committed baseline (see
  ``docs/BENCHMARKS.md``).
* ``solvers``  — list the registered solver backends.
* ``models``   — list available model configurations.
* ``analyze``  — predict time/memory for an explicit configuration.
* ``check``    — run the AST-based invariant checker (determinism,
  lock order, exception flow, async-safety, lock discipline) over the
  tree; see ``docs/CHECKS.md``.

Examples::

    python -m repro tune --model gpt3-6.7b --gpu L4 --gpus 8 \
        --global-batch 128 --seq-len 2048 --compare megatron deepspeed
    python -m repro tune --model gpt3-2.7b --global-batch 64 \
        --cluster examples/mixed_a100_l4.json --solver mist
    python -m repro cluster examples/mixed_a100_l4.json
    python -m repro sweep --gpu L4 --sizes 1.3b 2.7b --solvers mist megatron
    python -m repro campaign run grid.json --dir runs/grid \
        --executor process-pool --workers 4
    python -m repro campaign run grid.json --dir runs/grid --resume
    python -m repro analyze --model gpt3-2.7b --gpu L4 --gpus 4 \
        --global-batch 8 --seq-len 4096 --stages 2 --dp 2 --ckpt full

Exit codes: 0 ok; 1 a result failure (no feasible plan, OOM, a failed
gate, check findings); 2 bad input, reported by :func:`main` as one
``repro <command>: error: ...`` line on stderr.

Full documentation lives in ``docs/`` (ARCHITECTURE.md, API.md,
PAPER_MAPPING.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api import (
    JobValidationError,
    PlanCache,
    SolveReport,
    SolverNotFoundError,
    TuningJob,
    get_solver,
    solve,
    solver_registry,
)
from repro.api import replan as api_replan
from repro.benchmarking.artifacts import (
    BENCH_ARTIFACT,
    BENCH_BASELINE,
    LOAD_ARTIFACT,
)
from repro.core.plan import PlanValidationError, uniform_plan
from repro.core.spaces import NAMED_SPACES, SCALES
from repro.execution import ExecutionEngine, OOMError, render_timeline
from repro.hardware import ClusterDelta, cluster_to_dict, load_cluster
from repro.models import get_model, list_models
from repro.core.schema import DecodeError, Table, decode, loads

__all__ = ["main"]

def _add_workload_args(parser: argparse.ArgumentParser, *,
                       gpus_required: bool = True) -> None:
    parser.add_argument("--model", required=True,
                        help="model spec, e.g. gpt3-2.7b (see 'models')")
    parser.add_argument("--gpu", default=None,
                        help="GPU type: L4 (default), A100-40GB, "
                             "A100-80GB, H100-80GB")
    parser.add_argument("--gpus", type=int, required=gpus_required,
                        default=None, help="total GPU count")
    parser.add_argument("--global-batch", type=int, required=True)
    parser.add_argument("--seq-len", type=int, default=2048)
    parser.add_argument("--no-flash", action="store_true",
                        help="disable FlashAttention")


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick",
                        help="search-grid resolution preset")
    parser.add_argument("--space", choices=sorted(NAMED_SPACES),
                        default="mist", help="search space for auto-tuners")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="reuse/store solved plans in this directory")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the solve report(s) as JSON")


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--executor", default="inline",
                        choices=("inline", "process-pool", "service"),
                        help="campaign executor (see 'docs/API.md')")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for --executor process-pool")
    parser.add_argument("--service-url", metavar="URL", default=None,
                        help="live 'repro serve' daemon for "
                             "--executor service")
    parser.add_argument("--service-timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="fail remaining cells after this long with "
                             "no cell completing (--executor service)")


def _parse(what: str, source, build):
    """Build one user-named input document with ``build()``; a read or
    parse failure becomes a ``ValueError`` naming ``source``."""
    try:
        return build()
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except DecodeError as exc:
        reason = str(exc)
    raise ValueError(f"invalid {what} {source}: {reason}")


def _job(args) -> TuningJob:
    """The job the workload flags describe; any flaw in them, or in
    the ``--cluster`` file, is one ``invalid job`` error."""
    common = dict(model=args.model, global_batch=args.global_batch,
                  seq_len=args.seq_len, flash=not args.no_flash)
    if "scale" in args:  # analyze runs one explicit plan: no search flags
        common.update(space=args.space, scale=args.scale)
    cluster_file = getattr(args, "cluster", None)
    try:
        if cluster_file:
            if args.gpu is not None:
                raise ValueError("--gpu conflicts with --cluster "
                                 "(GPU types come from the cluster file)")
            cluster = _parse("cluster file", cluster_file,
                             lambda: load_cluster(cluster_file))
            if args.gpus is not None and args.gpus != cluster.total_gpus:
                raise ValueError(
                    f"--gpus {args.gpus} contradicts --cluster "
                    f"({cluster.total_gpus} GPUs in {cluster_file})")
            return TuningJob.for_cluster(cluster, **common)
        if args.gpus is None:
            raise ValueError("--gpus is required without --cluster")
        return TuningJob(gpu=args.gpu or "L4", num_gpus=args.gpus, **common)
    except ValueError as exc:
        raise JobValidationError(f"invalid job: {exc}") from None


def _cache(args) -> PlanCache | None:
    return PlanCache(args.cache_dir) if args.cache_dir else None


def _write_json(path: str, reports: list) -> None:
    payload = [report.to_dict() for report in reports]
    with open(path, "w") as fh:
        json.dump(payload[0] if len(payload) == 1 else payload, fh,
                  sort_keys=True, indent=2)
    print(f"wrote {path}")


def _read_baseline(path: str | None, table: Table) -> dict | None:
    """The ``--baseline`` at ``path``, checked by its gate's ``table``."""
    def read() -> dict:
        data = loads(Path(path).read_text(), "baseline")
        decode(table, data, "baseline")  # the gates read the raw data
        return data

    return None if path is None else _parse("baseline", path, read)


def _cmd_models(_args) -> int:
    for spec in list_models():
        model = get_model(spec)
        print(f"{spec:14s} {model.total_params / 1e9:6.1f}B params  "
              f"{model.num_layers} layers x {model.hidden_size} hidden")
    return 0


def _cmd_solvers(_args) -> int:
    for name, cls in sorted(solver_registry().items()):
        doc = (cls.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:12s} {summary}")
    return 0


def _cmd_tune(args) -> int:
    job = _job(args)
    for name in (args.solver, *(args.compare or ())):
        get_solver(name)  # an unknown name fails before any solve
    cache = _cache(args)
    cluster = job.resolved_cluster()
    where = (cluster.name if len(cluster.sub_clusters) > 1
             else f"{job.gpu} x {job.num_gpus}")
    print(f"tuning {job.model} on {where}, "
          f"B={job.global_batch}, seq={job.seq_len}, scale={args.scale}, "
          f"solver={args.solver}")
    report = solve(job, args.solver, cache=cache)
    # infeasible/OOM reports serialize fine — always honor --json once
    # the primary solve has produced a report
    reports = [report]

    def _finish(code: int) -> int:
        if args.json:
            _write_json(args.json, reports)
        return code

    if report.plan is None:
        print("no feasible plan found")
        return _finish(1)
    origin = " (cached)" if report.from_cache else ""
    print(f"\nevaluated {report.configurations_evaluated} configurations "
          f"in {report.tuning_time_seconds:.1f}s{origin}")
    print(report.plan.describe())
    if not report.measured:
        print("tuned plan OOMs at execution")
        return _finish(1)
    print(f"\nmeasured: {report.measured['iteration_time'] * 1e3:.1f} ms "
          f"/ {report.throughput:.2f} samples/s")
    if args.timeline:
        if report.result is not None:
            print()
            print(render_timeline(report.result.pipeline, width=100))
        else:
            print("(timeline unavailable for cached reports)")

    for system in args.compare or ():
        outcome = solve(job, system, cache=cache)
        reports.append(outcome)
        if outcome.found and outcome.throughput > 0:
            ratio = report.throughput / outcome.throughput
            print(f"\n{system}: {outcome.throughput:.2f} samples/s "
                  f"({args.solver} is {ratio:.2f}x)")
        else:
            print(f"\n{system}: no feasible configuration")
    return _finish(0)


def _cmd_replan(args) -> int:
    job = _job(args)
    get_solver(args.solver)  # an unknown name fails before any solve
    delta = _parse("delta file", args.delta, lambda: ClusterDelta.from_json(
        Path(args.delta).read_text()))
    incumbent = None
    if args.incumbent:
        incumbent = _parse(
            "incumbent report", args.incumbent,
            lambda: SolveReport.from_json(Path(args.incumbent).read_text()))
    cache = _cache(args)
    print(f"replanning {job.model} after {delta.describe()}, "
          f"scale={args.scale}, solver={args.solver}")
    # a delta that does not fit this cluster, or a post-delta job that
    # fails validation, raises DeltaError / JobValidationError
    report = api_replan(job, delta, args.solver, cache=cache,
                        incumbent=incumbent)
    reports = [report]

    def _finish(code: int) -> int:
        if args.json:
            _write_json(args.json, reports)
        return code

    prov = report.extra.get("replan", {})
    mode = "warm-started" if prov.get("warm") else "cold (no incumbent)"
    origin = " (cached)" if report.from_cache else ""
    print(f"{mode} replan, incumbent source: {prov.get('incumbent')}")
    print(f"evaluated {report.configurations_evaluated} configurations "
          f"in {report.tuning_time_seconds:.1f}s{origin}")
    if report.plan is None:
        print("no feasible plan found on the changed cluster")
        return _finish(1)
    print(report.plan.describe())
    if report.measured:
        print(f"\nmeasured: "
              f"{report.measured['iteration_time'] * 1e3:.1f} ms "
              f"/ {report.throughput:.2f} samples/s")
    return _finish(0)


#: per-cell report-source -> suffix on the progress line
_CELL_ORIGINS = {"cache": " (cached)", "manifest": " (manifest)"}


def _print_cell_event(record: dict):
    """Shared per-cell progress line for ``sweep`` / ``campaign run``."""
    if record["status"] != "done":
        print(f"{record['workload']} / {record['solver']}: "
              f"failed ({record.get('error') or 'no detail'})")
        return
    origin = _CELL_ORIGINS.get(record.get("source") or "", "")
    print(f"{record['workload']} / {record['solver']}: "
          f"{record['throughput']:.2f} samples/s "
          f"({record['tuning_time_seconds']:.1f}s tuning{origin})")


def _executor_options(args) -> dict:
    if args.executor == "process-pool":
        return {"workers": args.workers}
    if args.executor == "service":
        if not args.service_url:
            raise ValueError("--executor service requires --service-url")
        return {"url": args.service_url, "timeout": args.service_timeout}
    return {}


def _cmd_sweep(args) -> int:
    # the sweep is one paper-grid campaign; everything below is
    # presentation (see repro.campaigns for the machinery)
    from repro.campaigns import CampaignSpec, run_campaign

    reference = args.reference or args.solvers[0]
    if reference not in args.solvers:
        raise ValueError(f"--reference {reference!r} is not among the "
                         f"requested solvers {args.solvers}")
    executor_options = _executor_options(args)
    spec = CampaignSpec(
        name=f"sweep-{args.gpu}-{args.family}",
        solvers=tuple(args.solvers),
        family=args.family,
        sizes=tuple(args.sizes),
        clusters=({"gpu": args.gpu},),
        scales=(args.scale,),
        seq_lens=(args.seq_len,) if args.seq_len is not None else (),
        global_batches=((args.global_batch,)
                        if args.global_batch is not None else ()),
        flash=not args.no_flash,
        space=args.space,
        reference=reference,
    )
    reports_by_cell: dict[str, object] = {}

    def on_event(record, report):
        _print_cell_event(record)
        if report is not None:
            reports_by_cell[record["cell_id"]] = report

    outcome = run_campaign(
        spec, executor=args.executor, executor_options=executor_options,
        cache=_cache(args), on_event=on_event,
    )
    print()
    # table + JSON follow the deterministic expansion order of the
    # aggregated report, not executor completion order
    print(outcome.table(
        f"sweep on {args.gpu} ({args.family}, scale={args.scale})"))
    if args.json:
        reports = [reports_by_cell[rec["cell_id"]] for rec in outcome.cells
                   if rec["cell_id"] in reports_by_cell]
        _write_json(args.json, reports)
    return 0 if outcome.counters["failed"] == 0 else 1


def _cmd_campaign_run(args) -> int:
    from repro.campaigns import CampaignSpec, run_campaign

    spec = _parse("campaign spec", args.spec,
                  lambda: CampaignSpec.from_json(Path(args.spec).read_text()))
    if args.resume and not args.dir:
        raise ValueError("--resume requires --dir (the campaign directory)")
    executor_options = _executor_options(args)
    print(f"campaign {spec.name}: executor={args.executor}"
          + (f", dir={args.dir}" if args.dir else "")
          + (" (resume)" if args.resume else ""))
    report = run_campaign(
        spec, executor=args.executor, executor_options=executor_options,
        directory=args.dir, cache=_cache(args), resume=args.resume,
        on_event=lambda record, _report: _print_cell_event(record),
    )
    print()
    print(report.describe())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote {args.json}")
    return 0 if report.complete else 1


def _manifest_report(directory: str):
    """The on-disk manifest in ``directory`` and its aggregated report."""
    from repro.campaigns import (
        CampaignManifest,
        CampaignSpec,
        aggregate,
        pending_cell_record,
    )

    manifest = CampaignManifest(directory)
    if not _parse("campaign manifest", manifest.path, manifest.load):
        raise ValueError(f"no readable campaign manifest in {directory}")
    spec = (_parse("campaign manifest spec", manifest.path,
                   lambda: CampaignSpec.from_dict(manifest.spec_dict))
            if manifest.spec_dict else None)
    cells = manifest.cells()
    if spec is not None:
        # expansion gives the full matrix, so unfinished cells show as
        # pending; solvers may be unregistered in this process
        try:
            cells = [manifest.cell(cell.cell_id) or pending_cell_record(cell)
                     for cell in spec.expand(check_solvers=False)]
        except DecodeError:
            pass  # a spec this process cannot expand: recorded cells
    return manifest, aggregate(spec, cells, executor="manifest")


def _cmd_campaign_status(args) -> int:
    manifest, report = _manifest_report(args.dir)
    if args.json:
        print(json.dumps({"name": manifest.name,
                          "fingerprint": manifest.fingerprint,
                          "counters": report.counters},
                         sort_keys=True, indent=2))
        return 0
    c = report.counters
    print(f"campaign {manifest.name} ({manifest.fingerprint})")
    print(f"  cells: {c['done']}/{c['cells']} done, "
          f"{c['failed']} failed, {c['pending']} pending")
    print(f"  sources: {c['solved']} solved, {c['cache_hits']} cache, "
          f"{c['manifest_hits']} manifest")
    events = manifest.events()
    if events:
        last = events[-1]
        print(f"  last event: {last.get('event')} "
              f"({last.get('cell_id') or last.get('name') or ''})")
    return 0


def _cmd_campaign_report(args) -> int:
    _manifest, report = _manifest_report(args.dir)
    print(report.describe())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_cluster(args) -> int:
    cluster = _parse("cluster file", args.file,
                     lambda: load_cluster(args.file))
    if args.json:
        print(json.dumps(cluster_to_dict(cluster), sort_keys=True, indent=2))
        return 0
    # tuner-visible budget: what intra-stage tuning bounds peak memory by
    from repro.core.analyzer import memory_budget_bytes

    def budget(gpu) -> float:
        return memory_budget_bytes(gpu) / 2**30

    if len(cluster.sub_clusters) > 1:
        print(cluster.describe())
        for group in cluster.groups:
            print(f"  {group.name}: tuner memory budget "
                  f"{budget(group.gpu):.1f} GiB/GPU")
        fallback = cluster.fallback_homogeneous()
        print(f"  baseline fallback view: {fallback.name}")
    else:
        print(f"homogeneous cluster: {cluster.name} "
              f"({cluster.total_gpus} GPUs)")
        gpu = cluster.gpu
        fabric = (f"NVLink {gpu.nvlink_bandwidth / 1e9:.0f} GB/s"
                  if gpu.has_nvlink else "PCIe only")
        print(f"  {gpu.name}: mem {gpu.memory_gb:.0f} GB  {fabric}  "
              f"net {cluster.inter_node_bandwidth * 8 / 1e9:.0f} Gbps")
        print(f"  tuner memory budget {budget(gpu):.1f} GiB/GPU")
    return 0


def _cmd_bench(args) -> int:
    # imported here: the bench harness is only needed by this command
    from repro.benchmarking import format_bench, run_bench
    from repro.benchmarking.bench import BASELINE, main_check

    baseline = _read_baseline(args.baseline, BASELINE)
    print(f"running bench suite at scale {args.scale!r} ...")
    result = run_bench(args.scale)
    print(format_bench(result))
    with open(args.out, "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return main_check(result, baseline,
                      max_regression=args.max_regression,
                      min_warm_speedup=args.min_warm_speedup)


def _cmd_serve(args) -> int:
    # imported here: the service pulls in HTTP-server plumbing no other
    # subcommand needs
    from repro.service import TuningService

    # PlanCache(None) resolves to $REPRO_PLAN_CACHE / ~/.cache/repro/plans
    service = TuningService(host=args.host, port=args.port,
                            workers=args.workers,
                            worker_mode=args.worker_mode,
                            max_pending=args.max_pending,
                            quota=args.quota,
                            worker_retries=args.worker_retries,
                            cache=PlanCache(args.cache_dir))
    service.serve_forever()
    return 0


def _cmd_load(args) -> int:
    # imported here: the load harness is only needed by this command
    import dataclasses as _dc
    import tempfile

    from repro.loadgen import (TRACE_SCALES, format_load, run_load,
                               synthesize_trace)
    from repro.loadgen.report import BASELINE
    from repro.loadgen.report import main_check as load_check

    spec = TRACE_SCALES[args.scale]
    overrides = {}
    if args.requests is not None:
        overrides["requests"] = args.requests
    if args.unique_jobs is not None:
        overrides["unique_jobs"] = args.unique_jobs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        spec = _dc.replace(spec, **overrides)
    if not (args.url or args.spawn):
        raise ValueError("need --url URL or --spawn")
    baseline = _read_baseline(args.baseline, BASELINE)
    trace = synthesize_trace(spec)
    if args.url:
        result = run_load(args.url, spec, trace, mode=args.mode,
                          concurrency=args.concurrency,
                          timeout=args.timeout)
    else:
        from repro.service.launch import spawn_daemon

        extra = []
        if args.spawn_max_pending:
            extra += ["--max-pending", str(args.spawn_max_pending)]
        # throwaway cache: measured latencies must come from this run,
        # not a previously warmed user-level plan cache
        with tempfile.TemporaryDirectory(prefix="repro-load-") as cache_dir:
            with spawn_daemon(workers=args.spawn_workers,
                              worker_mode=args.spawn_worker_mode,
                              cache_dir=cache_dir,
                              extra_args=extra) as daemon:
                print(f"spawned daemon at {daemon.url} "
                      f"({args.spawn_workers} {args.spawn_worker_mode} "
                      f"workers)")
                result = run_load(daemon.url, spec, trace, mode=args.mode,
                                  concurrency=args.concurrency,
                                  timeout=args.timeout)
    print(format_load(result))
    with open(args.out, "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return load_check(result, baseline,
                      max_regression=args.max_regression)


def _cmd_analyze(args) -> int:
    job = _job(args)
    model = job.resolved_model()
    cluster = job.resolved_cluster()
    gacc = (args.gacc if args.gacc is not None
            else max(1, args.global_batch // (args.dp or 1)))
    ckpt_all = args.ckpt == "full"
    try:
        plan = uniform_plan(
            model, cluster, global_batch=args.global_batch, gacc=gacc,
            num_stages=args.stages, dp=args.dp, tp=args.tp,
            zero=args.zero, ckpt_all=ckpt_all,
            oo=args.oo, ao=args.ao,
        )
    except (ValueError, ZeroDivisionError) as exc:
        # uniform_plan raises PlanValidationError (a ValueError) on an
        # infeasible configuration; degenerate shapes divide by zero
        print(f"invalid configuration: {exc}")
        return 1
    engine = ExecutionEngine(cluster, system="mist")
    try:
        result = engine.run(plan, model, seq_len=args.seq_len,
                            flash=not args.no_flash)
    except PlanValidationError as exc:
        # the plan is well-formed but does not fit the cluster's shape
        print(f"invalid configuration: {exc}")
        return 1
    except OOMError as exc:
        print(f"OOM: {exc}")
        return 1
    print(plan.describe())
    print(result.describe())
    if args.timeline:
        print()
        print(render_timeline(result.pipeline, width=100))
    return 0


def _cmd_check(args) -> int:
    from repro.analysis import rule_registry, run_check

    registry = rule_registry()
    if args.list_rules:
        for name in sorted(registry):
            doc = (registry[name].__doc__ or "").strip().splitlines()
            print(f"{name:22s} {doc[0] if doc else ''}")
        return 0
    unknown = [name for name in args.rule or () if name not in registry]
    if unknown:
        raise ValueError(f"unknown rule(s) {unknown}; "
                         f"registered: {sorted(registry)}")
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        raise ValueError(f"no such path(s): {', '.join(missing)} — "
                         "refusing to silently check nothing")
    result = run_check(args.paths, rules=args.rule or None)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.analysis.sarif import to_sarif
        print(json.dumps(to_sarif(result), indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.format())
        print(f"repro check: {len(result.findings)} finding(s) in "
              f"{result.module_count} module(s) "
              f"[rules: {', '.join(result.rules)}]")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mist reproduction: distributed-training auto-tuning",
        epilog="Docs: docs/ARCHITECTURE.md (layer map), docs/API.md "
               "(solver API + cluster schema), docs/PAPER_MAPPING.md "
               "(paper section/figure -> code map).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_models = sub.add_parser("models", help="list model configurations")
    p_models.set_defaults(func=_cmd_models)

    p_solvers = sub.add_parser("solvers",
                               help="list registered solver backends")
    p_solvers.set_defaults(func=_cmd_solvers)

    p_tune = sub.add_parser("tune", help="auto-tune a training plan")
    _add_workload_args(p_tune, gpus_required=False)
    _add_solver_args(p_tune)
    p_tune.add_argument("--cluster", metavar="FILE", default=None,
                        help="cluster description JSON (heterogeneous or "
                             "homogeneous; see 'repro cluster' and "
                             "docs/API.md); replaces --gpu/--gpus")
    p_tune.add_argument("--solver", default="mist",
                        help="registered solver to tune with "
                             "(see 'solvers')")
    p_tune.add_argument("--compare", nargs="*", metavar="SYSTEM",
                        help="other registered solvers to run on the "
                             "same job")
    p_tune.add_argument("--timeline", action="store_true",
                        help="render the executed 1F1B timeline")
    p_tune.set_defaults(func=_cmd_tune)

    p_replan = sub.add_parser(
        "replan", help="re-tune a job after a cluster change "
                       "(warm-started from the incumbent plan)")
    _add_workload_args(p_replan, gpus_required=False)
    _add_solver_args(p_replan)
    p_replan.add_argument("--cluster", metavar="FILE", default=None,
                          help="pre-delta cluster description JSON; "
                               "replaces --gpu/--gpus")
    p_replan.add_argument("--delta", metavar="FILE", required=True,
                          help='ClusterDelta JSON ({"ops": [...]}; '
                               "see docs/API.md)")
    p_replan.add_argument("--solver", default="mist",
                          help="registered solver (warm-starting needs "
                               "'mist'; others re-tune cold)")
    p_replan.add_argument("--incumbent", metavar="FILE", default=None,
                          help="solve-report JSON carrying the incumbent "
                               "plan (e.g. from 'repro tune --json'); "
                               "default: the --cache-dir entry for the "
                               "pre-delta job")
    p_replan.set_defaults(func=_cmd_replan)

    p_cluster = sub.add_parser(
        "cluster", help="inspect/validate a cluster description file")
    p_cluster.add_argument("file", help="cluster JSON "
                                        "(e.g. examples/mixed_a100_l4.json)")
    p_cluster.add_argument("--json", action="store_true",
                           help="print the normalized cluster dict")
    p_cluster.set_defaults(func=_cmd_cluster)

    p_sweep = sub.add_parser(
        "sweep", help="run solvers across a grid of model sizes")
    p_sweep.add_argument("--gpu", default="L4")
    p_sweep.add_argument("--family", default="gpt3")
    p_sweep.add_argument("--sizes", nargs="+",
                         default=["1.3b", "2.7b", "6.7b", "13b", "22b"],
                         help="model sizes (GPU count/batch follow the "
                              "paper's Table 4 scaling rule)")
    p_sweep.add_argument("--solvers", nargs="+",
                         default=["megatron", "deepspeed", "mist"],
                         metavar="SOLVER")
    p_sweep.add_argument("--reference", default=None,
                         help="normalization baseline "
                              "(default: first solver)")
    p_sweep.add_argument("--seq-len", type=int, default=None,
                         help="override the per-GPU-type sequence length")
    p_sweep.add_argument("--global-batch", type=int, default=None,
                         help="override the per-size global batch")
    p_sweep.add_argument("--no-flash", action="store_true")
    _add_solver_args(p_sweep)
    _add_executor_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_camp = sub.add_parser(
        "campaign",
        help="run/inspect declarative evaluation campaigns")
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    p_run = camp_sub.add_parser(
        "run", help="run (or resume) a campaign spec JSON file")
    p_run.add_argument("spec", help="campaign spec JSON "
                                    "(CampaignSpec schema, see docs/API.md)")
    p_run.add_argument("--dir", metavar="DIR", default=None,
                       help="campaign directory: resumable manifest, "
                            "events.jsonl, plans/ cache, report.json")
    p_run.add_argument("--resume", action="store_true",
                       help="reuse finished cells from the manifest + "
                            "plan cache; only missing/failed cells run")
    p_run.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="explicit plan-cache directory "
                            "(default: <dir>/plans)")
    p_run.add_argument("--json", metavar="FILE", default=None,
                       help="write the aggregated CampaignReport as JSON")
    _add_executor_args(p_run)
    p_run.set_defaults(func=_cmd_campaign_run)

    p_status = camp_sub.add_parser(
        "status", help="summarize a campaign directory's manifest")
    p_status.add_argument("--dir", metavar="DIR", required=True)
    p_status.add_argument("--json", action="store_true",
                          help="print the counters as JSON")
    p_status.set_defaults(func=_cmd_campaign_status)

    p_report = camp_sub.add_parser(
        "report", help="re-aggregate a campaign directory into a report")
    p_report.add_argument("--dir", metavar="DIR", required=True)
    p_report.add_argument("--json", metavar="FILE", default=None,
                          help="write the CampaignReport as JSON")
    p_report.set_defaults(func=_cmd_campaign_report)

    p_bench = sub.add_parser(
        "bench", help="run the perf benchmark suite, emit BENCH_4.json")
    p_bench.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                         help="benchmark scale preset (default: smoke)")
    p_bench.add_argument("--out", metavar="FILE", default=BENCH_ARTIFACT,
                         help=f"snapshot output path "
                              f"(default: {BENCH_ARTIFACT})")
    p_bench.add_argument("--baseline", metavar="FILE", default=None,
                         help="committed baseline snapshot to gate "
                              f"wall-time against (CI uses "
                              f"{BENCH_BASELINE})")
    p_bench.add_argument("--max-regression", type=float, default=0.25,
                         help="tolerated fractional wall-time regression "
                              "vs the baseline (default: 0.25)")
    p_bench.add_argument("--min-warm-speedup", type=float, default=2.0,
                         metavar="FACTOR",
                         help="fail unless warm replans beat cold "
                              "searches by this factor (geometric mean "
                              "of per-scenario configurations-evaluated "
                              "ratios; default: 2.0; 0 disables)")
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="start the tuning-as-a-service HTTP daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (0 = ephemeral; the chosen "
                              "port is printed on startup)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="solver workers (threads or processes, "
                              "per --worker-mode)")
    p_serve.add_argument("--worker-mode", choices=("thread", "process"),
                         default="thread",
                         help="run searches on pool threads (GIL-bound) "
                              "or on whichever worker process is idle "
                              "(default: thread)")
    p_serve.add_argument("--max-pending", type=int, default=0,
                         help="admission control: max concurrently "
                              "pending searches before new submissions "
                              "get 429 (default: 0 = unbounded)")
    p_serve.add_argument("--quota", type=int, default=0,
                         help="admission control: max unresolved jobs "
                              "per client (X-Repro-Client header; "
                              "default: 0 = unlimited)")
    p_serve.add_argument("--worker-retries", type=int, default=1,
                         help="process mode: retries after a worker "
                              "process dies mid-search (default: 1)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="shared plan-cache directory "
                              "(default: $REPRO_PLAN_CACHE or "
                              "~/.cache/repro/plans)")
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "load", help="trace-driven load generator against a daemon, "
                     "emits a repro-load/1 report")
    p_load.add_argument("--scale", default="smoke",
                        choices=("smoke", "quick", "synthetic", "soak"),
                        help="trace preset (default: smoke)")
    p_load.add_argument("--url", default=None,
                        help="target a running daemon at this base URL")
    p_load.add_argument("--spawn", action="store_true",
                        help="spawn a throwaway `repro serve` subprocess "
                             "(ephemeral port, temp plan cache) and "
                             "target it")
    p_load.add_argument("--spawn-workers", type=int, default=2,
                        help="workers for the spawned daemon "
                             "(default: 2)")
    p_load.add_argument("--spawn-worker-mode",
                        choices=("thread", "process"), default="thread",
                        help="worker mode for the spawned daemon "
                             "(default: thread)")
    p_load.add_argument("--spawn-max-pending", type=int, default=0,
                        help="admission bound for the spawned daemon "
                             "(default: 0 = unbounded)")
    p_load.add_argument("--mode", choices=("closed", "open"),
                        default="closed",
                        help="closed loop (throughput) or open loop "
                             "(latency at the trace's arrival rate)")
    p_load.add_argument("--concurrency", type=int, default=4,
                        help="closed-loop virtual clients (default: 4)")
    p_load.add_argument("--requests", type=int, default=None,
                        help="override the preset's request count")
    p_load.add_argument("--unique-jobs", type=int, default=None,
                        help="override the preset's distinct-cell count")
    p_load.add_argument("--seed", type=int, default=None,
                        help="override the preset's trace seed")
    p_load.add_argument("--timeout", type=float, default=120.0,
                        help="per-request completion timeout in seconds "
                             "(default: 120)")
    p_load.add_argument("--out", metavar="FILE", default=LOAD_ARTIFACT,
                        help=f"report output path "
                             f"(default: {LOAD_ARTIFACT})")
    p_load.add_argument("--baseline", metavar="FILE", default=None,
                        help="committed baseline report to gate p99 "
                             "latency against")
    p_load.add_argument("--max-regression", type=float, default=0.5,
                        help="tolerated fractional p99 regression vs "
                             "the baseline (default: 0.5)")
    p_load.set_defaults(func=_cmd_load)

    p_an = sub.add_parser("analyze",
                          help="execute one explicit configuration")
    _add_workload_args(p_an)
    p_an.add_argument("--stages", type=int, default=1)
    p_an.add_argument("--dp", type=int, default=1)
    p_an.add_argument("--tp", type=int, default=1)
    p_an.add_argument("--gacc", type=int, default=None)
    p_an.add_argument("--zero", type=int, default=0, choices=(0, 1, 2, 3))
    p_an.add_argument("--ckpt", choices=("none", "full"), default="none")
    p_an.add_argument("--oo", type=float, default=0.0)
    p_an.add_argument("--ao", type=float, default=0.0)
    p_an.add_argument("--timeline", action="store_true")
    p_an.set_defaults(func=_cmd_analyze)

    p_check = sub.add_parser(
        "check", help="run the AST-based invariant checker "
                      "(see docs/CHECKS.md)")
    p_check.add_argument("paths", nargs="*", default=["src"],
                         help="files or directories to analyze "
                              "(default: src)")
    p_check.add_argument("--rule", action="append", metavar="RULE-ID",
                         help="run only this rule (repeatable; "
                              "default: all registered)")
    p_check.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text",
                         help="finding output format (default: text); "
                              "sarif emits a SARIF 2.1.0 log for "
                              "GitHub code scanning")
    p_check.add_argument("--list-rules", action="store_true",
                         help="list registered rules and exit")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. Bad input — a flag, file or document the
    command rejects — exits 2 with one ``repro <command>: error:``
    line on stderr, as argparse does for usage errors; every other
    exception propagates."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverNotFoundError as exc:
        reason = exc.args[0]  # a KeyError: str() would quote it
    except (OSError, ValueError) as exc:
        reason = str(exc)
    command = " ".join(filter(None, (args.command,
                                     getattr(args, "campaign_command", None))))
    print(f"repro {command}: error: {reason}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
