"""Run registered rules over a project and fold in suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .config import DEFAULT_CONFIG, CheckConfig
from .findings import Finding
from .project import Project
from .registry import get_rule, rule_names
from .suppressions import SuppressionIndex

__all__ = ["CheckResult", "check_project", "run_check"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one checker run: surviving findings + what ran."""

    findings: tuple[Finding, ...]
    rules: tuple[str, ...]
    #: modules examined, for reporting coverage
    module_count: int = 0
    suppression_count: int = field(default=0, repr=False)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rules": list(self.rules),
            "module_count": self.module_count,
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckResult":
        return cls(
            findings=tuple(Finding.from_dict(f)
                           for f in data.get("findings", ())),
            rules=tuple(data.get("rules", ())),
            module_count=data.get("module_count", 0),
        )


def _resolve_rules(rules: "list[str] | None") -> tuple[str, ...]:
    if rules is None:
        return tuple(rule_names())
    # get_rule raises RuleNotFoundError (with the known names) on typos
    for name in rules:
        get_rule(name)
    return tuple(dict.fromkeys(rules))


def check_project(project: Project,
                  rules: "list[str] | None" = None) -> CheckResult:
    """Run ``rules`` (default: all registered) over a parsed project."""
    active = _resolve_rules(rules)
    findings: list[Finding] = list(project.parse_failures)
    for name in active:
        findings.extend(get_rule(name).check(project))
    index = SuppressionIndex(project.modules)
    findings = index.apply(findings, active)
    findings.sort(key=lambda f: f.sort_key())
    return CheckResult(
        findings=tuple(findings),
        rules=active,
        module_count=len(project.modules),
        suppression_count=len(index._suppressions),
    )


def run_check(paths: "list[str | Path]",
              rules: "list[str] | None" = None,
              config: "CheckConfig | None" = None) -> CheckResult:
    """Parse ``paths`` (files or directories) and check them."""
    project = Project.from_paths(paths, config=config or DEFAULT_CONFIG)
    return check_project(project, rules=rules)
