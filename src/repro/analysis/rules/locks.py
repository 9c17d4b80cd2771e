"""Lock-discipline rule: guarded mutable state stays guarded.

The service registries (``TuningService._jobs`` / ``_inflight``), the
metrics ledger, and the process-wide
:data:`~repro.core.memo.GLOBAL_MENU_MEMO` are mutated from the asyncio
loop *and* solver worker threads; their invariant is "every touch holds
the owning lock". This rule enforces it structurally, in two shapes:

* **class-scoped** — a class that creates a lock in ``__init__`` (or as
  a dataclass ``field(default_factory=threading.Lock)``) *and* owns
  mutable container attributes (``self._jobs = {}``): every method
  access to those containers must sit inside ``with self.<lock>:``.
  ``__init__`` / ``__post_init__`` are construction-time and exempt.
  A method named ``*_locked`` runs under its caller's lock: its body
  counts as guarded, and instead every reference to it
  (``self.x_locked``) must itself sit inside ``with self.<lock>:`` or
  another ``*_locked`` method — the naming convention is checked, not
  trusted.
* **module-scoped** — a module that declares a module-level
  ``threading.Lock()``: every function-body use of a module-level
  mutable container must sit inside ``with <that lock>:``.

Deliberately lock-free fast paths (racy-but-safe reads) are exactly
what ``# repro: allow[lock-discipline] <why it is safe>`` is for.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..project import ModuleSource, Project, dotted_name
from ..registry import register_rule

__all__ = ["LockDisciplineRule"]

_LOCK_FACTORIES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "Lock", "RLock", "Condition",
}

_MUTABLE_FACTORIES = {
    "dict", "list", "set", "dict.fromkeys",
    "OrderedDict", "collections.OrderedDict",
    "defaultdict", "collections.defaultdict",
    "deque", "collections.deque",
}


def _initializer_kind(value: ast.AST) -> str | None:
    """``"lock"`` / ``"mutable"`` / ``None`` for an assigned value."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return "mutable"
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name in _LOCK_FACTORIES:
            return "lock"
        if name in _MUTABLE_FACTORIES:
            return "mutable"
        # dataclass field(default_factory=...) declarations
        if name in ("field", "dataclasses.field"):
            for kw in value.keywords:
                if kw.arg == "default_factory":
                    factory = dotted_name(kw.value)
                    if factory in _LOCK_FACTORIES:
                        return "lock"
                    if factory in _MUTABLE_FACTORIES:
                        return "mutable"
    return None


def _class_attrs(node: ast.ClassDef) -> "tuple[set, set]":
    """``(lock_attrs, mutable_attrs)`` a class declares."""
    locks: set = set()
    mutables: set = set()
    for item in node.body:
        # dataclass-style field declarations
        if (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.value is not None):
            kind = _initializer_kind(item.value)
            if kind == "lock":
                locks.add(item.target.id)
            elif kind == "mutable":
                mutables.add(item.target.id)
        if (isinstance(item, ast.FunctionDef)
                and item.name in ("__init__", "__post_init__")):
            for stmt in ast.walk(item):
                targets: list[ast.AST] = []
                value = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                    targets, value = [stmt.target], stmt.value
                if value is None:
                    continue
                kind = _initializer_kind(value)
                if kind is None:
                    continue
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        (locks if kind == "lock"
                         else mutables).add(target.attr)
    return locks, mutables


class _GuardVisitor(ast.NodeVisitor):
    """Walk one function body tracking ``with <lock>:`` nesting."""

    def __init__(self, module: ModuleSource, where: str,
                 lock_names: set, flag_names: "dict[str, str]",
                 self_attrs: bool):
        self.module = module
        self.where = where
        #: dotted context-manager names that count as holding the lock
        self.lock_names = lock_names
        #: name -> description of the guarded object
        self.flag_names = flag_names
        #: match ``self.<name>`` attributes (class mode) vs bare names
        self.self_attrs = self_attrs
        self.depth = 0
        self.findings: list[Finding] = []
        self._seen: set = set()

    def _is_lock_item(self, item: ast.withitem) -> bool:
        return dotted_name(item.context_expr) in self.lock_names

    def _visit_with(self, node) -> None:
        locked = any(self._is_lock_item(item) for item in node.items)
        if locked:
            self.depth += 1
        self.generic_visit(node)
        if locked:
            self.depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _flag(self, node: ast.AST, name: str) -> None:
        key = (node.lineno, name)
        if self.depth > 0 or key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(
            rule="lock-discipline", path=self.module.path,
            line=node.lineno,
            message=f"{self.flag_names[name]} accessed outside "
                    f"'with <lock>' in {self.where}",
            hint="take the owning lock around the access, or suppress "
                 "with a justification for a deliberately racy read",
        ))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self.self_attrs
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.flag_names):
            self._flag(node, node.attr)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if not self.self_attrs and node.id in self.flag_names:
            self._flag(node, node.id)
        self.generic_visit(node)


def _check_class(module: ModuleSource,
                 node: ast.ClassDef) -> list[Finding]:
    locks, mutables = _class_attrs(node)
    if not locks or not mutables:
        return []
    findings: list[Finding] = []
    flag_names = {name: f"self.{name}" for name in mutables}
    for item in node.body:
        if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name.endswith("_locked")):
            flag_names[item.name] = (f"self.{item.name} (runs under the "
                                     f"caller's lock)")
    lock_names = {f"self.{name}" for name in locks}
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name in ("__init__", "__post_init__"):
            continue
        visitor = _GuardVisitor(
            module, f"{node.name}.{item.name}", lock_names, flag_names,
            self_attrs=True)
        if item.name.endswith("_locked"):
            visitor.depth = 1  # held by the caller; references are checked
        for stmt in item.body:
            visitor.visit(stmt)
        findings.extend(visitor.findings)
    return findings


def _check_module_level(module: ModuleSource) -> list[Finding]:
    locks: set = set()
    mutables: set = set()
    for stmt in module.tree.body:
        targets: list[ast.AST] = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        kind = _initializer_kind(value)
        if kind is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                (locks if kind == "lock" else mutables).add(target.id)
    if not locks or not mutables:
        return []
    findings: list[Finding] = []
    flag_names = {name: f"module-level {name}" for name in mutables}
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visitor = _GuardVisitor(module, f"{stmt.name}()", locks,
                                    flag_names, self_attrs=False)
            for inner in stmt.body:
                visitor.visit(inner)
            findings.extend(visitor.findings)
    return findings


@register_rule("lock-discipline")
class LockDisciplineRule:
    """Flag lock-declaring scopes touching guarded state unlocked."""

    hint = ("state shared between the event loop and worker threads is "
            "only consistent under its owning lock")

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            findings.extend(_check_module_level(module))
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    findings.extend(_check_class(module, node))
        return findings
