"""Where each rule family applies: the project's invariant surface map.

Path patterns are matched against a module's POSIX-style path:

* a pattern ending in ``/`` matches any module under that directory
  (``repro/service/`` matches ``src/repro/service/server.py``);
* any other pattern is a path suffix (``repro/api/job.py`` matches
  ``src/repro/api/job.py`` and ``/checkout/src/repro/api/job.py``).

The defaults encode this repo's contracts; tests (and downstream
embedders) construct a custom :class:`CheckConfig` to point rules at
fixture trees instead.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CheckConfig", "DEFAULT_CONFIG", "path_matches"]


def path_matches(rel: str, patterns: tuple[str, ...]) -> bool:
    """True when ``rel`` (POSIX path) matches any pattern."""
    probe = "/" + rel.replace("\\", "/")
    for pattern in patterns:
        if pattern.endswith("/"):
            if f"/{pattern}" in probe + "/":
                return True
        elif probe.endswith("/" + pattern):
            return True
    return False


@dataclass(frozen=True)
class CheckConfig:
    """Per-rule path scoping (see module docstring for pattern syntax)."""

    #: fingerprint / memo-key / serialization code paths: anything
    #: wall-clock, RNG- or hash-order-dependent here corrupts the
    #: PlanCache, campaign resume, or the CI perf gate. The determinism
    #: rule scans them for direct references and for flows into sinks
    determinism_paths: tuple[str, ...] = (
        "repro/api/job.py",
        "repro/api/cache.py",
        "repro/api/report.py",
        "repro/core/memo.py",
        "repro/core/plan.py",
        "repro/campaigns/spec.py",
        "repro/campaigns/manifest.py",
        "repro/service/state.py",
    )
    #: modules whose ``async def`` bodies share the service event loop
    async_paths: tuple[str, ...] = (
        "repro/service/",
    )
    #: modules contributing to the global lock-acquisition graph
    lock_order_paths: tuple[str, ...] = (
        "repro/service/",
        "repro/campaigns/",
        "repro/api/cache.py",
        "repro/core/memo.py",
    )
    #: modules audited for broad handlers on solver-reachable paths
    exception_paths: tuple[str, ...] = (
        "repro/core/",
        "repro/service/",
        "repro/campaigns/",
        "repro/api/",
    )
    #: control-flow exceptions a broad handler must never swallow
    guarded_exceptions: tuple[str, ...] = (
        "SearchCancelled",
        "WorkerDiedError",
        "AdmissionError",
    )
    #: base classes of the guarded exceptions — a handler naming one of
    #: these catches the guarded exceptions just as surely as
    #: ``except Exception`` does
    guarded_exception_bases: tuple[str, ...] = (
        "RuntimeError",
    )
    #: solver-loop entry points (method suffixes) for reachability
    solver_roots: tuple[str, ...] = (
        "MistTuner.search",
        "TuningService.submit",
        "TuningService.submit_replan",
        "TuningService.submit_campaign",
        "TuningService._run_search",
        "run_campaign",
    )


DEFAULT_CONFIG = CheckConfig()
