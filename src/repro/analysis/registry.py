"""Rule registry: every invariant checker plugs in under a stable id.

Mirrors :func:`repro.api.registry.register_solver` — a rule family is
a registry entry, not a hard-coded branch in the runner::

    @register_rule("my-invariant")
    class MyRule:
        \"\"\"One-line description shown by ``repro check --list-rules``.\"\"\"

        hint = "how a violation is usually fixed"

        def check(self, project: Project) -> list[Finding]:
            ...

``repro check --rule my-invariant`` then runs it in isolation, and
``# repro: allow[my-invariant]`` suppresses it inline.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from .findings import Finding

__all__ = [
    "Rule",
    "RuleNotFoundError",
    "register_rule",
    "get_rule",
    "rule_names",
    "rule_registry",
]

_REGISTRY: dict[str, type] = {}


class RuleNotFoundError(KeyError):
    """No rule registered under the requested id."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown rule {name!r}; registered: {rule_names()}"
        )
        self.name = name


@runtime_checkable
class Rule(Protocol):
    """What a registered rule class must implement."""

    def check(self, project) -> list[Finding]:  # pragma: no cover
        ...


def register_rule(name: str, *,
                  overwrite: bool = False) -> Callable[[type], type]:
    """Class decorator: expose a rule class under ``name``."""

    def decorate(cls: type) -> type:
        if not overwrite and name in _REGISTRY and _REGISTRY[name] is not cls:
            raise ValueError(f"rule {name!r} already registered")
        cls.rule_id = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_rule(name: str) -> Rule:
    """Instantiate the rule registered under ``name``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise RuleNotFoundError(name) from None
    return cls()


def rule_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def rule_registry() -> dict[str, type]:
    """A snapshot of the registry (rule id -> rule class)."""
    return dict(_REGISTRY)
