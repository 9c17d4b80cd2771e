"""PlanCache under concurrent readers and writers.

The `repro serve` daemon shares one cache across its worker pool (and
potentially across daemon processes pointed at the same directory), so
stores must be atomic: a reader may see a miss or a complete entry,
never a torn/partial file, and concurrent writers of the same key must
not clobber each other's in-progress temp files. Its worker threads
also share the process-wide menu memo and trace/kernel cache, so
concurrent solves must serve the serial reports.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import PlanCache, SolveReport, TuningJob, solve
from repro.core.memo import GLOBAL_MENU_MEMO

JOB = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2, global_batch=16,
                scale="smoke")


def _report(job: TuningJob, throughput: float) -> SolveReport:
    return SolveReport(solver="mist", job=job,
                       measured={"throughput": throughput})


@pytest.fixture()
def cache(tmp_path):
    return PlanCache(tmp_path / "plans")


def _run_threads(workers):
    errors = []

    def guard(fn):
        def run():
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guard(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestConcurrentAccess:
    def test_same_key_many_writers_many_readers(self, cache):
        versions = [float(i + 1) for i in range(8)]
        seen = []

        def writer(value):
            return lambda: [cache.store(_report(JOB, value))
                            for _ in range(20)]

        def reader():
            for _ in range(60):
                report = cache.load(JOB, "mist")
                if report is not None:
                    seen.append(report.throughput)

        _run_threads([writer(v) for v in versions] + [reader] * 4)

        # every observed value is a complete write, never a torn one
        assert set(seen) <= set(versions)
        # the surviving entry is one complete, parseable report
        final = cache.load(JOB, "mist")
        assert final is not None
        assert final.throughput in versions
        assert final.from_cache is True

    def test_distinct_keys_do_not_interfere(self, cache):
        jobs = [JOB.with_(global_batch=16 * (i + 1)) for i in range(6)]

        def writer(job, value):
            return lambda: [cache.store(_report(job, value))
                            for _ in range(10)]

        _run_threads([writer(job, float(i)) for i, job in enumerate(jobs)])

        for i, job in enumerate(jobs):
            report = cache.load(job, "mist")
            assert report is not None
            assert report.throughput == float(i)

    def test_no_temp_droppings_after_store(self, cache):
        _run_threads([lambda: cache.store(_report(JOB, 1.0))
                      for _ in range(8)])
        leftovers = [p for p in cache.root.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []

    def test_reader_during_writes_never_crashes_on_corruption(self, cache):
        # an unrelated writer dropping garbage alongside real entries
        # must degrade to a miss, not an exception
        path = cache.path_for(JOB, "mist")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{torn json")
        assert cache.load(JOB, "mist") is None
        cache.store(_report(JOB, 2.0))
        assert cache.load(JOB, "mist").throughput == 2.0
        json.loads(path.read_text())  # and the file on disk is valid JSON


SOLVE_JOBS = (
    JOB.with_(interference="none"),
    JOB.with_(interference="none", flash=False),
    TuningJob(model="gpt3-2.7b", gpu="L4", num_gpus=4, global_batch=32,
              scale="smoke", interference="none"),
)


def _served(report: SolveReport) -> dict:
    data = report.to_dict()
    return {name: data[name]
            for name in ("plan", "predicted", "measured", "search_log")}


class TestConcurrentSolves:
    def test_thread_solves_from_a_cold_process_cache_match_serial(self):
        """Worker threads share the process-wide menu memo and the
        trace/kernel cache; solving at once from cold must serve the
        serial reports."""
        GLOBAL_MENU_MEMO.clear()
        expected = [_served(solve(job)) for job in SOLVE_JOBS]
        GLOBAL_MENU_MEMO.clear()
        got: list[tuple[int, dict]] = []

        def solver(i):
            return lambda: got.append((i, _served(solve(SOLVE_JOBS[i]))))

        _run_threads([solver(i) for i in range(len(SOLVE_JOBS))] * 2)

        assert sorted(i for i, _ in got) == [0, 0, 1, 1, 2, 2]
        for i, report in got:
            assert report == expected[i]
