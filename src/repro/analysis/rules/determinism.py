"""Determinism rule: fingerprint/memo/serialization paths must be pure.

``TuningJob.fingerprint()``, menu-memo keys, and every serialized
artifact are content addresses: two processes building the same value
must produce the same bytes, or the :class:`~repro.api.cache.PlanCache`
and campaign resume silently stop deduplicating (worse: serve stale
mismatches). Inside the configured path set
(:attr:`~repro.analysis.config.CheckConfig.determinism_paths`) this
rule flags:

* wall-clock reads (``time.time``, ``datetime.now``, ...) — including
  bare references such as ``field(default_factory=time.time)``;
* nondeterministic randomness (module-level ``random.*``,
  ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``);
* direct iteration over sets (hash-order-dependent), including
  ``list(set(...))`` / ``tuple(set(...))``;
* ``json.dump(s)`` without ``sort_keys=True`` (unsorted dict emission).

Wall-clock *display* timestamps are legitimate — suppress them with a
justification: ``# repro: allow[determinism] wall-clock display only``.

The rule also reports **flow** findings from the dataflow engine
(:mod:`.taint`): a source laundered through locals into a fingerprint,
``json.dump(s)``, ``hashlib`` or memo-key sink is a determinism
violation even though no single line pattern-matches. The rule reports
the union of both halves, so the flow scan only ever adds to the
pattern matches.

Justification: it pins the documented content-address contract that
equal jobs fingerprint to equal bytes (the PlanCache key and campaign
resume depend on it). Both halves flag the wall-clock event timestamp
that ``campaigns/manifest.py`` writes with ``json.dumps``; it is
display-only and suppressed with a justification.
"""

from __future__ import annotations

import ast

from ..config import path_matches
from ..findings import Finding
from ..project import ModuleSource, Project, dotted_name
from ..registry import register_rule
from .taint import taint_findings

__all__ = ["DeterminismRule"]

#: dotted references that read the wall clock or equivalent
_CLOCK_REFS = {
    "time.time": "use time.monotonic()/time.perf_counter() for "
                 "durations; wall-clock is display-only here",
    "time.time_ns": "use time.monotonic_ns() for durations",
    "datetime.now": "inject the timestamp from the caller instead",
    "datetime.utcnow": "inject the timestamp from the caller instead",
    "datetime.today": "inject the timestamp from the caller instead",
    "datetime.datetime.now": "inject the timestamp from the caller instead",
    "datetime.datetime.utcnow": "inject the timestamp from the caller "
                                "instead",
    "datetime.datetime.today": "inject the timestamp from the caller "
                               "instead",
    "date.today": "inject the date from the caller instead",
    "datetime.date.today": "inject the date from the caller instead",
}

#: dotted references to nondeterministic entropy sources
_ENTROPY_REFS = {
    "os.urandom": "derive bytes from the content being fingerprinted",
    "uuid.uuid1": "uuid1 mixes in host + wall clock",
    "uuid.uuid4": "uuid4 is fresh entropy every call; derive ids from "
                  "content, or suppress for runtime-only identifiers",
    "secrets.token_hex": "secrets is entropy by design",
    "secrets.token_bytes": "secrets is entropy by design",
    "secrets.token_urlsafe": "secrets is entropy by design",
}

#: module-level random is unseeded global state
_RANDOM_ALLOWED = {"random.Random"}

#: calls whose output order follows set hash order
_SET_CASTS = {"list", "tuple"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: ModuleSource):
        self.module = module
        self.findings: list[Finding] = []
        #: lines already flagged, to avoid Call + Attribute double hits
        self._seen: set = set()

    def _flag(self, node: ast.AST, message: str, hint: str) -> None:
        key = (node.lineno, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(
            rule="determinism", path=self.module.path, line=node.lineno,
            message=message, hint=hint,
        ))

    # -- wall clock / entropy: flag references, not just calls -------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if name in _CLOCK_REFS:
            self._flag(node, f"wall-clock reference {name!r} in a "
                             f"determinism-critical path",
                       _CLOCK_REFS[name])
        elif name in _ENTROPY_REFS:
            self._flag(node, f"nondeterministic entropy source {name!r}",
                       _ENTROPY_REFS[name])
        elif (name is not None and name.startswith("random.")
                and name not in _RANDOM_ALLOWED):
            self._flag(node, f"unseeded global RNG {name!r}",
                       "use an explicitly seeded random.Random(seed) "
                       "instance")
        self.generic_visit(node)

    # -- set-order dependence ----------------------------------------------

    def _check_iter(self, node: ast.AST, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._flag(node, "iteration over a set follows hash order",
                       "sort first: iterate sorted(...) for a "
                       "deterministic order")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- calls: set casts + unsorted JSON emission -------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if (name in _SET_CASTS and node.args
                and _is_set_expr(node.args[0])):
            self._flag(node, f"{name}(set(...)) materializes hash order",
                       "use sorted(...) for a deterministic order")
        if name in ("json.dumps", "json.dump"):
            sort_keys = next((kw for kw in node.keywords
                              if kw.arg == "sort_keys"), None)
            unsorted = sort_keys is None or (
                isinstance(sort_keys.value, ast.Constant)
                and sort_keys.value.value is not True)
            has_kwargs = any(kw.arg is None for kw in node.keywords)
            if unsorted and not (sort_keys is None and has_kwargs):
                self._flag(node, f"{name}() without sort_keys=True emits "
                                 f"dict-insertion order",
                           "pass sort_keys=True so emitted JSON is "
                           "canonical")
        self.generic_visit(node)


def _pattern_findings(project: Project) -> list[Finding]:
    """The per-line pattern matches over the determinism paths."""
    findings: list[Finding] = []
    for module in project.modules:
        if not path_matches(module.path,
                            project.config.determinism_paths):
            continue
        visitor = _Visitor(module)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings


@register_rule("determinism")
class DeterminismRule:
    """Ban wall-clock, entropy, and hash-order in fingerprint paths."""

    hint = ("fingerprints, memo keys, and serialized artifacts must be "
            "pure functions of their inputs")

    def check(self, project: Project) -> list[Finding]:
        findings = _pattern_findings(project)
        seen = {(f.path, f.line, f.message) for f in findings}
        for flow in taint_findings(project):
            key = (flow.path, flow.line, flow.message)
            if key not in seen:
                seen.add(key)
                findings.append(flow)
        return findings
