"""Outside-in span recorder for the benchmark's traced runs.

The benchmark never edits the program to trace it. Instead
:func:`install` replaces the public functions of each layer with
wrappers, on the name the caller looks up (a module attribute or a
class attribute), for the rest of the process.

A span is ``(id, parent, name, start, end, phase, outcome)``. Times
come from ``time.perf_counter``; the parent comes from a per-thread
stack, so a span's children always ran on its own thread. A layer's
self time is its span minus the part of that interval its children
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    #: recorder phase when the span started (see Recorder.next_phase)
    phase: int
    #: "hit"/"miss", a row count, or the exception class that escaped
    outcome: Any


class Recorder:
    """Collects spans in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.enabled = True
        self.phase = 0
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def next_phase(self, *, enabled: bool) -> None:
        """Start a new phase; spans are recorded only while enabled."""
        self.phase += 1
        self.enabled = enabled

    def wrap(self, name: str, fn: Callable[..., Any],
             observe: Callable[[tuple, Any], Any] | None = None,
             ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``observe(args, result)``
        gives the span's outcome."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            phase = recorder.phase
            stack.append(span_id)
            outcome = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    outcome = observe(args, result)
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(span_id, parent, name, start, end, phase, outcome))

        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              observe: Callable[[tuple, Any], Any] | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))


def _hit(_args: tuple, result: Any) -> str:
    return "miss" if result is None else "hit"


def _rows(args: tuple, _result: Any) -> int:
    return int(args[1]["b"].size)


def install(recorder: Recorder) -> None:
    """Wrap every traced layer of an already imported ``repro``."""
    import repro.api.cache as cache
    import repro.api.solvers as solvers
    import repro.core.analyzer as analyzer
    import repro.core.inter_stage as inter_stage
    import repro.core.intra_stage as intra_stage
    import repro.core.memo as memo
    import repro.core.tuner as tuner
    import repro.evaluation.runner as runner
    import repro.execution.engine as engine

    patch = recorder.patch
    # calibrated_interference() sits behind an lru_cache, so the wrapper
    # goes on the fit it calls, not on the cached function
    patch(runner, "fit_interference_model", "costmodel.calibrate")
    patch(solvers.MistSolver, "make_tuner", "api.make_tuner")
    patch(tuner, "trace", "tracing.trace")
    spa = analyzer.SymbolicPerformanceAnalyzer
    patch(spa, "__init__", "analyzer.compile")
    patch(spa, "predict", "analyzer.predict", _rows)
    patch(spa, "predict_memory", "analyzer.predict_memory")
    patch(spa, "compute_channel", "analyzer.compute_channel")
    patch(intra_stage.IntraStageTuner, "tune", "intra.tune")
    # inter_stage.solve() dispatches through these module globals
    patch(inter_stage, "solve_exact", "inter.exact")
    patch(inter_stage, "solve_milp", "inter.milp")
    patch(tuner.MistTuner, "search", "tuner.search")
    patch(tuner.MistTuner, "replan", "tuner.search")
    patch(memo.MenuMemo, "lookup", "memo.lookup", _hit)
    patch(engine.ExecutionEngine, "run", "execution.run")
    patch(cache.PlanCache, "load", "cache.load", _hit)
    patch(cache.PlanCache, "store", "cache.store")


def install_service(recorder: Recorder) -> None:
    """:func:`install` plus the daemon's entry points (before it starts)."""
    import repro.service.server as server
    import repro.service.workers as workers

    install(recorder)
    # the thread tier binds this name when the daemon builds it
    recorder.patch(workers, "solve", "api.solve")
    recorder.patch(server.TuningService, "submit", "svc.submit")


# -- arithmetic -----------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


class Layers(NamedTuple):
    """Per-name totals over a set of spans."""

    self_s: dict[str, float]
    calls: dict[str, int]
    outcomes: dict[tuple[str, Any], int]
    rows: dict[str, int]
    #: summed duration of root spans, and self time of all other spans
    root_s: float
    below_root_s: float


def layers(spans: list[Span]) -> Layers:
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    outcomes: dict[tuple[str, Any], int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    root_s = below = 0.0
    for span in spans:
        self_s[span.name] += selfs[span.id]
        calls[span.name] += 1
        if isinstance(span.outcome, int):
            rows[span.name] += span.outcome
        elif span.outcome is not None:
            outcomes[(span.name, span.outcome)] += 1
        if span.parent == 0:
            root_s += span.end - span.start
        else:
            below += selfs[span.id]
    return Layers(self_s, calls, outcomes, rows, root_s, below)
