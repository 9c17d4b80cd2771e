"""Reproducible performance benchmarking: the ``repro bench`` harness.

This package is the single source of truth for the repo's recorded
perf trajectory:

* :mod:`repro.benchmarking.fig16` measures the paper's Figure 16
  tuning-time experiment (shared with
  ``benchmarks/test_fig16_tuning_time.py`` so the pytest benchmark and
  the CLI harness can never drift apart);
* :mod:`repro.benchmarking.fig_replan` measures the elastic
  warm-vs-cold replan suite (cluster deltas; warm plans must
  hash-equal cold plans, at a gated configuration-count speedup);
* :mod:`repro.benchmarking.bench` runs the suite at a chosen scale,
  emits the schema'd snapshot, validates the pruned search against the
  exhaustive reference (plan hashes must match bit for bit) and warm
  replans against cold searches, and compares wall time against a
  committed baseline — the artifact and the gates the CI ``perf`` job
  is built on;
* :mod:`repro.benchmarking.suite` holds what the ``benchmarks/`` pytest
  suite shares: the ``REPRO_BENCH_SCALE`` preset and the series table
  (not imported here, so the CLI does not load :mod:`repro.campaigns`).

The artifact filenames (re-exported from
:mod:`repro.benchmarking.artifacts`, a dependency-free leaf module) are
the single place CI steps, smoke scripts, and CLI defaults agree on —
renaming an artifact here is the only way to rename it anywhere, so an
upload step can never silently stop matching what the harness wrote.
"""

from .artifacts import (
    BENCH_ARTIFACT,
    BENCH_BASELINE,
    LOAD_ARTIFACT,
    LOAD_BASELINE,
)
from .bench import (
    BENCH_SCHEMA,
    check_against_baseline,
    check_warm_speedup,
    format_bench,
    plan_hash,
    run_bench,
    validate_bench,
)
from .fig16 import fig16_job, measure_fig16
from .fig_replan import measure_replan, replan_scenarios

__all__ = [
    "BENCH_ARTIFACT",
    "BENCH_BASELINE",
    "BENCH_SCHEMA",
    "LOAD_ARTIFACT",
    "LOAD_BASELINE",
    "check_against_baseline",
    "check_warm_speedup",
    "fig16_job",
    "format_bench",
    "measure_fig16",
    "measure_replan",
    "plan_hash",
    "replan_scenarios",
    "run_bench",
    "validate_bench",
]
