"""The process-wide trace/kernel cache beside the menu memo.

Tuner, analyzer and execution engine read traces and compiled kernels
from :data:`repro.core.memo.GLOBAL_KERNEL_CACHE`, so each model is
traced and compiled once per process. A warm solve must still serve the
report a cold one does, and ``GLOBAL_MENU_MEMO.clear()`` must make the
next solve cold again.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.core.tuner as tuner_module
from repro.api import TuningJob, solve
from repro.core.memo import GLOBAL_KERNEL_CACHE, GLOBAL_MENU_MEMO, KernelCache
from repro.core.tuner import traced_model
from repro.hardware import get_gpu
from repro.models import get_model

L4 = get_gpu("L4")
MODEL = get_model("gpt3-1.3b")

#: what bit-identity covers; timings and memo telemetry may differ
SERVED = ("plan", "predicted", "measured", "search_log")


def served(report) -> dict:
    data = report.to_dict()
    return {name: data[name] for name in SERVED}


class TestKernelCache:
    def test_bound_evicts_least_recently_used(self):
        cache = KernelCache(maxsize=3)
        for key in ("a", "b", "c"):
            cache.get((key,), lambda key=key: key)
        cache.get(("a",), lambda: pytest.fail("a is cached"))
        cache.get(("d",), lambda: "d")
        assert len(cache) == 3
        for key in ("a", "c", "d"):
            assert cache.get((key,), lambda: pytest.fail("evicted")) == key
        assert cache.get(("b",), lambda: "rebuilt") == "rebuilt"

    def test_rejects_empty_bound(self):
        with pytest.raises(ValueError):
            KernelCache(maxsize=0)

    def test_concurrent_misses_share_the_first_stored_value(self):
        cache = KernelCache(maxsize=2)
        barrier = threading.Barrier(8, timeout=10)
        seen = []

        def build():
            barrier.wait()  # every thread misses before any stores
            return object()

        threads = [threading.Thread(
            target=lambda: seen.append(cache.get(("k",), build)))
            for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(value is seen[0] for value in seen)
        assert len(cache) == 1

    def test_global_bound_is_fixed(self):
        assert GLOBAL_KERNEL_CACHE.maxsize == KernelCache().maxsize


class TestSharedTraces:
    def test_trace_once_then_hit(self, monkeypatch):
        GLOBAL_MENU_MEMO.clear()
        calls = []
        real = tuner_module.trace

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # misses go through the tuner module's ``trace`` name
        monkeypatch.setattr(tuner_module, "trace", counting)
        first = traced_model(MODEL, L4, flash=True)
        assert traced_model(MODEL, L4, flash=True) is first
        assert traced_model(MODEL, L4, flash=False) is not first
        assert len(calls) == 2

    def test_menu_memo_clear_empties_the_cache(self):
        traced_model(MODEL, L4)
        assert len(GLOBAL_KERNEL_CACHE) > 0
        GLOBAL_MENU_MEMO.clear()
        assert len(GLOBAL_KERNEL_CACHE) == 0

    def test_same_name_different_shape_gets_its_own_trace(self):
        narrow = get_model("gpt3-1.3b",
                           ffn_hidden_size=2 * MODEL.hidden_size)
        assert narrow.name == MODEL.name
        assert traced_model(narrow, L4).config == narrow
        assert traced_model(MODEL, L4).config == MODEL


JOB = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16,
                scale="smoke", interference="none")
OTHERS = (JOB.with_(global_batch=32), JOB.with_(flash=False),
          TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=32,
                    scale="smoke", interference="none"))


class TestWarmSolves:
    def test_warm_solve_serves_the_cold_report(self):
        GLOBAL_MENU_MEMO.clear()
        cold = served(solve(JOB))
        for other in OTHERS:
            solve(other)
        assert served(solve(JOB)) == cold
