"""Inline suppressions: ``# repro: allow[rule-id] <justification>``.

A suppression silences matching findings on its own line (trailing
comment) or on the next line (comment-only line). Several ids may be
listed comma-separated: ``# repro: allow[determinism, lock-discipline]``.
Anything after the bracket is the justification — required by
convention, enforced by review.

Suppressions are themselves checked: one that silences nothing is
reported as an ``unused-suppression`` finding, so stale allows cannot
accumulate and quietly mask future regressions. Unused-suppression
findings cannot be suppressed.

Comments are found with :mod:`tokenize`, so ``repro: allow[...]``
inside a string literal never counts as a suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from .findings import Finding
from .project import ModuleSource
from .registry import rule_names

__all__ = ["Suppression", "SuppressionIndex", "UNUSED_RULE_ID",
           "collect_suppressions"]

UNUSED_RULE_ID = "unused-suppression"

_ALLOW_RE = re.compile(r"repro:\s*allow\[([^\]]+)\]")


@dataclass
class Suppression:
    """One allow-comment: where it is and which rules it silences."""

    path: str
    #: line the comment sits on (where unused-suppression reports)
    line: int
    #: line whose findings it silences
    target_line: int
    rules: tuple[str, ...]
    #: rule ids that actually matched a finding
    used: set = field(default_factory=set)

    def matches(self, finding: Finding) -> bool:
        return (finding.path == self.path
                and finding.line == self.target_line
                and finding.rule in self.rules
                and finding.rule != UNUSED_RULE_ID)


def collect_suppressions(module: ModuleSource) -> list[Suppression]:
    out: list[Suppression] = []
    readline = io.StringIO(module.source).readline
    try:
        tokens = list(tokenize.generate_tokens(readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(tok.string)
        if match is None:
            continue
        rules = tuple(
            rule.strip() for rule in match.group(1).split(",")
            if rule.strip()
        )
        if not rules:
            continue
        line = tok.start[0]
        # a comment-only line guards the line below it; a trailing
        # comment guards its own line
        own_line = module.lines[line - 1] if line <= len(module.lines) else ""
        comment_only = own_line.lstrip().startswith("#")
        out.append(Suppression(
            path=module.path, line=line,
            target_line=line + 1 if comment_only else line,
            rules=rules,
        ))
    return out


class SuppressionIndex:
    """All suppressions of a project, ready to filter findings."""

    def __init__(self, modules: list[ModuleSource]):
        self._suppressions: list[Suppression] = []
        for module in modules:
            self._suppressions.extend(collect_suppressions(module))

    def apply(self, findings: list[Finding],
              active_rules: tuple[str, ...]) -> list[Finding]:
        """Drop suppressed findings; append unused-suppression findings.

        ``active_rules`` is the set this run actually executed: an
        allow for a registered rule that was filtered out with
        ``--rule`` is neither applied nor reported unused. An allow
        naming no registered rule (a typo, or a deleted rule) is
        always stale.
        """
        skipped = set(rule_names()) - set(active_rules)
        kept: list[Finding] = []
        for finding in findings:
            matched = None
            for suppression in self._suppressions:
                if suppression.matches(finding):
                    matched = suppression
                    break
            if matched is not None:
                matched.used.add(finding.rule)
            else:
                kept.append(finding)
        for suppression in self._suppressions:
            for rule in suppression.rules:
                if rule in skipped:
                    continue
                if rule not in suppression.used:
                    kept.append(Finding(
                        rule=UNUSED_RULE_ID,
                        path=suppression.path,
                        line=suppression.line,
                        message=(f"allow[{rule}] suppresses nothing on "
                                 f"line {suppression.target_line}"),
                        hint="remove the stale suppression comment",
                    ))
        return kept
