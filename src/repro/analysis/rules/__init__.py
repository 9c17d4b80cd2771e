"""Built-in ``repro check`` rules.

Importing this package registers every built-in rule with
:mod:`repro.analysis.registry` — the same import-time side-effect
pattern the solver registry uses. Third-party rules register the same
way: decorate a class with ``@register_rule("my-rule")`` and import the
module before running the checker.
"""

from __future__ import annotations

from .async_safety import AsyncSafetyRule
from .determinism import DeterminismRule
from .exception_flow import ExceptionFlowRule
from .lock_order import LockOrderRule
from .locks import LockDisciplineRule
from .registry_discipline import RegistryDisciplineRule
from .serialization import SerializationRule
from .taint import FingerprintTaintRule

__all__ = [
    "AsyncSafetyRule",
    "DeterminismRule",
    "ExceptionFlowRule",
    "FingerprintTaintRule",
    "LockDisciplineRule",
    "LockOrderRule",
    "RegistryDisciplineRule",
    "SerializationRule",
]
