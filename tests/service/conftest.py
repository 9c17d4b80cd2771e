"""Shared fixtures for the tuning-service tests.

Tests drive the real daemon (threaded HTTP server + worker pool) over
real sockets, but through *stub solvers* registered in the process-wide
registry — a solve takes microseconds unless a test deliberately blocks
it, so the whole suite stays fast.

Fixtures: ``service`` (a started daemon on an ephemeral port),
``client`` (blocking client bound to it), ``job`` (a small canonical
job), and ``stub`` / ``slow`` (state handles for the ``svc-stub`` /
``svc-slow`` registry entries; ``slow`` blocks until released and polls
the cancellation hook).
"""

from __future__ import annotations

import threading

import pytest

from repro.api import PlanCache, SolveReport, TuningJob, register_solver
from repro.core.tuner import SearchCancelled
from repro.service import running_service

_JOB = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2, global_batch=16,
                 scale="smoke", interference="none")


class StubState:
    """Controllable behavior + counters for one registered stub solver."""

    def __init__(self):
        self.lock = threading.Lock()
        self.invocations = 0
        #: set by the solver when it starts running
        self.started = threading.Event()
        #: solver blocks until this is set (when block=True)
        self.release = threading.Event()
        self.block = False
        self.fail_with: Exception | None = None

    def reset(self, *, block: bool = False):
        self.__init__()
        self.block = block


def _make_stub(name: str, state: StubState) -> StubState:
    @register_solver(name, overwrite=True)
    class _Stub:  # noqa: F841 — registered for its side effect
        def solve(self, job, *, progress=None, should_stop=None):
            with state.lock:
                state.invocations += 1
            state.started.set()
            if progress is not None:
                progress(1, 2)
            if state.block:
                while not state.release.wait(timeout=0.02):
                    if should_stop is not None and should_stop():
                        raise SearchCancelled("stub cancelled")
            if state.fail_with is not None:
                raise state.fail_with
            if progress is not None:
                progress(2, 2)
            return SolveReport(
                solver=name, job=job,
                measured={"throughput": 7.5, "iteration_time": 0.2},
                tuning_time_seconds=0.01, configurations_evaluated=4,
                search_stats={"cells_total": 4, "cells_explored": 2,
                              "cells_pruned": 2, "configs_evaluated": 4,
                              "configs_prefiltered": 6, "memo_hits": 1,
                              "memo_misses": 3},
            )

    return state


_STUB = _make_stub("svc-stub", StubState())
_SLOW = _make_stub("svc-slow", StubState())


@pytest.fixture()
def job() -> TuningJob:
    return _JOB


@pytest.fixture()
def stub() -> StubState:
    _STUB.reset()
    yield _STUB


@pytest.fixture()
def slow() -> StubState:
    _SLOW.reset(block=True)
    yield _SLOW
    # never leave a blocked solver holding a worker thread
    _SLOW.release.set()


@pytest.fixture()
def _running(tmp_path):
    with running_service(workers=2,
                         cache=PlanCache(tmp_path / "plans")) as pair:
        yield pair


@pytest.fixture()
def service(_running):
    return _running[0]


@pytest.fixture()
def client(_running):
    return _running[1]
