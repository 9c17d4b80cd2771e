"""Flow half of the determinism rule: no nondeterminism may *reach* a key.

The pattern half (:mod:`.determinism`) flags nondeterministic
**references** inside fingerprint paths; this scan closes the
laundering gap a per-line matcher cannot see: a ``time.time()``
stashed in a local, threaded through arithmetic, an f-string, a dict,
or a helper function's return value, and only then handed to a
fingerprint/serialization sink. Powered by the dataflow engine
(:mod:`repro.analysis.dataflow`) with one level of call-graph
propagation (:mod:`repro.analysis.callgraph`).

**Sources** (kind): wall clock incl. monotonic/perf counters
(``wall-clock``); ``random.*`` / ``os.urandom`` / ``uuid.uuid1/4`` /
``secrets.*`` (``entropy``); ``os.environ`` / ``os.getenv`` (``env``);
materializing or iterating an unordered ``set`` (``hash-order``).

**Sinks**: any ``fingerprint(...)``/``*.fingerprint(...)`` argument,
``json.dump(s)`` payloads, ``hashlib.*`` digests, and memo-key calls
(``*.lookup``/``*.store`` on a ``*memo*`` receiver, ``*_key(...)``
helpers).

**Sanitizers** are kind-aware: ``sorted(...)`` launders ``hash-order``
(a sorted set is deterministic) but *not* a wall-clock or entropy
value flowing through it; ``len``/``min``/``max``/``sum`` launder
``hash-order`` too (order-insensitive folds).

Scope: the modules the determinism rule covers
(:attr:`~repro.analysis.config.CheckConfig.determinism_paths`). Locals
only — attribute/global flows stay the pattern half's domain.
"""

from __future__ import annotations

import ast

from ..callgraph import CallGraph, FunctionInfo
from ..cfg import build_cfg, iter_functions
from ..config import path_matches
from ..dataflow import TaintAnalysis, TaintSpec
from ..findings import Finding
from ..project import Project, dotted_name

__all__ = ["TAINT_SPEC", "taint_findings"]

_WALL_CLOCK = {
    name: ("wall-clock", name) for name in (
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "date.today", "datetime.date.today",
    )
}

_ENTROPY = {
    name: ("entropy", name) for name in (
        "os.urandom", "uuid.uuid1", "uuid.uuid4",
        "secrets.token_hex", "secrets.token_bytes", "secrets.token_urlsafe",
    )
}

_ENV = {
    "os.getenv": ("env", "os.getenv"),
    "os.environ.get": ("env", "os.environ.get"),
}

#: the one seeded, reproducible entry point in the random module
_RANDOM_ALLOWED = frozenset({"random.Random", "random.seed"})

TAINT_SPEC = TaintSpec(
    call_sources={**_WALL_CLOCK, **_ENTROPY, **_ENV},
    ref_sources={**_WALL_CLOCK, **_ENTROPY,
                 "os.environ": ("env", "os.environ")},
    prefix_sources={"random.": ("entropy", "unseeded random.*")},
    sanitizers={
        "sorted": frozenset({"hash-order"}),
        "len": frozenset({"hash-order"}),
        "min": frozenset({"hash-order"}),
        "max": frozenset({"hash-order"}),
        "sum": frozenset({"hash-order"}),
    },
)

#: call-name suffixes that key a cache / fingerprint something
_SINK_SUFFIXES = ("fingerprint", "_key")
_SINK_EXACT = frozenset({"json.dumps", "json.dump"})
_SINK_PREFIXES = ("hashlib.",)
#: ``memo.lookup(key)`` / ``memo.store(key, ...)``: the key argument
_MEMO_METHODS = frozenset({"lookup", "store"})


def _sink_description(node: ast.Call) -> "str | None":
    """Sink label for a call node, or ``None`` if it is not a sink."""
    name = dotted_name(node.func)
    if name is not None:
        if name in _SINK_EXACT:
            return name
        if any(name.startswith(prefix) for prefix in _SINK_PREFIXES):
            return name
        short = name.split(".")[-1]
        if any(short == suffix or short.endswith(suffix)
               for suffix in _SINK_SUFFIXES):
            return name
    if isinstance(node.func, ast.Attribute):
        receiver = dotted_name(node.func.value) or ""
        if (node.func.attr in _MEMO_METHODS
                and "memo" in receiver.lower()):
            return f"{receiver}.{node.func.attr}"
    return None


class _Summaries:
    """Lazy intraprocedural return-taint summaries, one per function.

    ``summary(qualname)`` answers: do this function's *own* sources
    reach its return value? Used at call sites for exactly one level
    of call-graph propagation (a summary never includes its callees'
    summaries, so laundering chains longer than one hop are out of
    scope by design — and documented as such).
    """

    def __init__(self, graph: CallGraph, spec: TaintSpec):
        self.graph = graph
        self.spec = spec
        self._cache: dict[str, frozenset] = {}

    def summary(self, qualname: str) -> frozenset:
        if qualname in self._cache:
            return self._cache[qualname]
        self._cache[qualname] = frozenset()  # cycle guard
        info = self.graph.functions.get(qualname)
        if info is None:
            return frozenset()
        cfg = build_cfg(info.node)
        analysis = TaintAnalysis(cfg, self.spec)
        self._cache[qualname] = analysis.return_taint
        return analysis.return_taint


class _FunctionChecker:
    def __init__(self, info: FunctionInfo, graph: CallGraph,
                 summaries: _Summaries, spec: TaintSpec):
        self.info = info
        self.graph = graph
        self.summaries = summaries
        self.spec = spec

    def _call_summary(self, node: ast.Call) -> frozenset:
        taints: frozenset = frozenset()
        for callee in self.graph.resolve_call(self.info, node):
            for source in self.summaries.summary(callee):
                _, _, dotted = callee.partition("::")
                taints |= frozenset({type(source)(
                    source.kind,
                    f"{source.description} via {dotted}()",
                    node.lineno)})
        return taints

    def findings(self) -> list:
        cfg = build_cfg(self.info.node)
        analysis = TaintAnalysis(cfg, self.spec,
                                 call_summary=self._call_summary)
        out = []
        seen: set = set()
        for _block, element, state in analysis.iter_states():
            for node in ast.walk(element):
                if not isinstance(node, ast.Call):
                    continue
                sink = _sink_description(node)
                if sink is None:
                    continue
                args = list(node.args) + [kw.value for kw in node.keywords
                                          if kw.arg != "sort_keys"]
                taints: frozenset = frozenset()
                for arg in args:
                    taints |= analysis.expr_taint(arg, state)
                taints = frozenset(
                    t for t in taints
                    if not t.description.startswith(tuple(_RANDOM_ALLOWED)))
                for taint in sorted(taints,
                                    key=lambda t: (t.kind, t.description)):
                    key = (node.lineno, sink, taint.kind, taint.description)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(Finding(
                        rule="determinism",
                        path=self.info.module.path,
                        line=node.lineno,
                        message=(f"{taint.kind} value from "
                                 f"{taint.description} (line {taint.line}) "
                                 f"flows into {sink}()"),
                        hint=("fingerprints/memo keys must be pure "
                              "functions of their inputs; drop the "
                              "nondeterministic input or sanitize the "
                              "flow (sorted() launders hash-order)"),
                    ))
        return out


def taint_findings(project: Project) -> list:
    """Run the taint scan over the determinism paths."""
    graph = CallGraph.build(project)
    summaries = _Summaries(graph, TAINT_SPEC)
    findings = []
    for module in project.modules:
        if not path_matches(module.path,
                            project.config.determinism_paths):
            continue
        for qual, node in iter_functions(module.tree):
            info = graph.functions.get(f"{module.path}::{qual}")
            if info is None:
                info = FunctionInfo(
                    qualname=f"{module.path}::{qual}",
                    module=module, node=node)
            checker = _FunctionChecker(info, graph, summaries, TAINT_SPEC)
            findings.extend(checker.findings())
    findings.sort(key=lambda f: f.sort_key())
    return findings

