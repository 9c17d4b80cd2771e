"""Shared fixtures and helpers for the benchmark harness.

Each benchmark module regenerates one table or figure from the paper's
evaluation. Benchmarks print the same rows/series the paper reports;
absolute numbers come from the simulated cluster, so the *shape*
(ranking, approximate factors, crossovers) is the reproduction target.

Scale control: set ``REPRO_BENCH_SCALE`` to ``smoke`` / ``quick`` /
``full`` (default ``quick``) to trade sweep resolution for runtime.
"""

from __future__ import annotations

import pytest

from repro.benchmarking.suite import current_scale


@pytest.fixture(scope="session")
def scale():
    return current_scale()


@pytest.fixture(scope="session")
def report(request):
    """Collect and print figure output at the end of the session."""
    sections: list[str] = []

    def add(text: str) -> None:
        sections.append(text)
        print("\n" + text)

    yield add


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
