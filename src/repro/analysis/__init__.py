"""``repro check`` — dataflow-powered invariant checker for this repo.

Static analysis that enforces the contracts the test suite cannot see
per-commit. Five rules, each kept because it pins a documented
invariant or has caught a real defect (``docs/CHECKS.md`` names which):

* ``determinism`` — fingerprint/memo/serialization paths are pure, both
  per line and through dataflow into fingerprint sinks;
* ``lock-discipline`` and ``lock-order`` — guarded state is touched
  under its lock, and the global lock graph has no inversion cycles;
* ``exception-flow`` — no broad handler on a solver path swallows a
  control-flow exception (cancellation, worker death, admission);
* ``async-safety`` — the service event loop never blocks.

The checker is built on a small intraprocedural dataflow engine: a
shared CFG builder (:mod:`~repro.analysis.cfg`), kind-aware taint
tracking (:mod:`~repro.analysis.dataflow`), and a project-wide call
graph (:mod:`~repro.analysis.callgraph`).

Rules are plain classes registered with
:func:`~repro.analysis.registry.register_rule` — the same decorator
pattern as ``@register_solver`` — and run by
:func:`~repro.analysis.runner.run_check`. Findings are silenced inline
with ``# repro: allow[rule-id] <justification>``; stale allows are
themselves reported. Output formats: text, JSON, and SARIF 2.1.0
(:mod:`~repro.analysis.sarif`) for GitHub code scanning. See
``docs/CHECKS.md`` for the rule catalog.
"""

from __future__ import annotations

from .callgraph import CallGraph, FunctionInfo
from .cfg import CFG, Block, build_cfg, iter_functions
from .config import DEFAULT_CONFIG, CheckConfig, path_matches
from .dataflow import Definition, TaintAnalysis, TaintSource, TaintSpec
from .findings import Finding
from .project import ModuleSource, Project, iter_python_files
from .registry import (
    RuleNotFoundError,
    get_rule,
    register_rule,
    rule_names,
    rule_registry,
)
from .runner import CheckResult, check_project, run_check
from .sarif import to_sarif
from .suppressions import UNUSED_RULE_ID, SuppressionIndex

# importing the subpackage registers every built-in rule
from . import rules as rules  # noqa: F401

__all__ = [
    "Block",
    "CFG",
    "CallGraph",
    "CheckConfig",
    "CheckResult",
    "DEFAULT_CONFIG",
    "Definition",
    "Finding",
    "FunctionInfo",
    "ModuleSource",
    "Project",
    "RuleNotFoundError",
    "SuppressionIndex",
    "TaintAnalysis",
    "TaintSource",
    "TaintSpec",
    "UNUSED_RULE_ID",
    "build_cfg",
    "check_project",
    "get_rule",
    "iter_functions",
    "iter_python_files",
    "path_matches",
    "register_rule",
    "rule_names",
    "rule_registry",
    "run_check",
    "to_sarif",
]
