"""Vectorization-discipline rule: no per-config loops in hot menu code.

The batched cost model's contract is that an intra-stage config menu
is evaluated as columnar numpy arrays in a handful of whole-menu calls
— a Python ``for``/``while`` over menu rows silently degrades that path
back to per-config interpretation.

Scope is the hot batched-evaluation modules
(:attr:`~repro.analysis.config.CheckConfig.vectorization_paths`). Every
loop statement there is flagged. Loops that iterate something other
than menu rows — option blocks, already-reduced frontiers — stay, each
carrying a ``# repro: allow[vectorization-discipline] <why>``
suppression so the exception is visible and justified.
"""

from __future__ import annotations

import ast

from ..config import path_matches
from ..findings import Finding
from ..project import Project
from ..registry import register_rule

__all__ = ["VectorizationDisciplineRule"]


@register_rule("vectorization-discipline")
class VectorizationDisciplineRule:
    """Flag per-config loops in batched-evaluation code."""

    hint = "evaluate the whole menu through batched numpy calls"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if not path_matches(module.path,
                                project.config.vectorization_paths):
                continue
            for loop in ast.walk(module.tree):
                if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                    continue
                kind = ("while" if isinstance(loop, ast.While) else "for")
                findings.append(Finding(
                    rule="vectorization-discipline", path=module.path,
                    line=loop.lineno,
                    message=(f"python {kind!r} loop in batched-evaluation "
                             "code — menu rows must be evaluated as "
                             "columnar arrays"),
                    hint="vectorize it, or suppress a justified "
                         "non-row loop",
                ))
        return findings
