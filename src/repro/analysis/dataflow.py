"""Dataflow analyses over :mod:`repro.analysis.cfg` graphs.

Two layers, the second built on the first:

* **definitions** — :func:`element_defs` turns one CFG element into
  the variables it binds (assignments, ``for`` targets, ``with ...
  as``, ``except ... as``, imports, walrus, parameters, ``match``
  captures);
* **taint** — :class:`TaintAnalysis`, a forward fixpoint propagating
  :class:`TaintSource` sets through assignments and expressions, with
  kind-aware sanitizers (``sorted`` launders hash-order, not
  wall-clock) and pluggable call summaries so rules can splice in one
  level of call-graph propagation.

Everything here is a *may* analysis over an over-approximated CFG: a
reported flow might be infeasible, but no feasible flow is missed
within the modeled feature set (locals only — attribute and global
flows are out of scope by design).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .cfg import CFG, Block
from .project import dotted_name

__all__ = [
    "Definition",
    "TaintAnalysis",
    "TaintSource",
    "TaintSpec",
    "element_defs",
]


@dataclass(frozen=True, eq=False)
class Definition:
    """One binding of ``name`` (identity-hashed: each site is unique)."""

    name: str
    line: int
    kind: str  # assign | aug | ann | param | for | with | except | import | walrus | def | class | match

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Definition({self.name}@{self.line}:{self.kind})"


def _target_names(target: ast.AST) -> list:
    """Name nodes bound by an assignment target (tuple-unpack aware)."""
    out: list = []
    if isinstance(target, ast.Name):
        out.append(target)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            out.extend(_target_names(elt))
    elif isinstance(target, ast.Starred):
        out.extend(_target_names(target.value))
    return out


def _walrus_defs(element: ast.AST) -> list:
    """``(name, line)`` for every walrus binding inside an element."""
    out = []
    for node in ast.walk(element):
        if isinstance(node, ast.NamedExpr) and isinstance(node.target,
                                                          ast.Name):
            out.append(Definition(node.target.id, node.target.lineno,
                                  "walrus"))
    return out


def element_defs(element: ast.AST) -> list:
    """:class:`Definition` list one CFG element binds."""
    out: list = []
    if isinstance(element, ast.arguments):
        args = (list(element.posonlyargs) + list(element.args)
                + list(element.kwonlyargs))
        if element.vararg:
            args.append(element.vararg)
        if element.kwarg:
            args.append(element.kwarg)
        for arg in args:
            out.append(Definition(arg.arg, arg.lineno, "param"))
        return out
    if isinstance(element, ast.Assign):
        for target in element.targets:
            for name in _target_names(target):
                out.append(Definition(name.id, name.lineno, "assign"))
    elif isinstance(element, ast.AnnAssign):
        if element.value is not None and isinstance(element.target,
                                                    ast.Name):
            out.append(Definition(element.target.id,
                                  element.target.lineno, "ann"))
    elif isinstance(element, ast.AugAssign):
        if isinstance(element.target, ast.Name):
            out.append(Definition(element.target.id,
                                  element.target.lineno, "aug"))
    elif isinstance(element, (ast.For, ast.AsyncFor)):
        for name in _target_names(element.target):
            out.append(Definition(name.id, name.lineno, "for"))
    elif isinstance(element, ast.withitem):
        if element.optional_vars is not None:
            for name in _target_names(element.optional_vars):
                out.append(Definition(name.id, name.lineno, "with"))
    elif isinstance(element, ast.ExceptHandler):
        if element.name:
            out.append(Definition(element.name, element.lineno, "except"))
    elif isinstance(element, (ast.Import, ast.ImportFrom)):
        for alias in element.names:
            bound = alias.asname or alias.name.split(".")[0]
            out.append(Definition(bound, element.lineno, "import"))
    elif isinstance(element, (ast.FunctionDef, ast.AsyncFunctionDef)):
        out.append(Definition(element.name, element.lineno, "def"))
    elif isinstance(element, ast.ClassDef):
        out.append(Definition(element.name, element.lineno, "class"))
    elif isinstance(element, ast.match_case):
        for node in ast.walk(element.pattern):
            if isinstance(node, (ast.MatchAs, ast.MatchStar)):
                if node.name:
                    out.append(Definition(node.name, node.lineno, "match"))
            elif isinstance(node, ast.MatchMapping) and node.rest:
                out.append(Definition(node.rest, node.lineno, "match"))
    own = _own_exprs(element)
    if own is not None:
        # composite heads: only their own expressions can hold a walrus
        for expr in own:
            out.extend(_walrus_defs(expr))
    else:
        out.extend(_walrus_defs(element))
    return out


#: node types whose inner scopes do not read the enclosing frame's
#: locals directly at this element's program point
_SKIP_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def _own_exprs(element: ast.AST) -> "list | None":
    """For composite CFG elements whose bodies live in *other* blocks
    (loop heads, handler heads, match cases), the expressions that
    belong to the element itself; ``None`` for ordinary elements."""
    if isinstance(element, (ast.For, ast.AsyncFor)):
        return [element.iter]
    if isinstance(element, ast.ExceptHandler):
        return [element.type] if element.type is not None else []
    if isinstance(element, ast.match_case):
        return [element.guard] if element.guard is not None else []
    return None


# -- taint ----------------------------------------------------------------


@dataclass(frozen=True)
class TaintSource:
    """Why a value is suspect: what kind of source, where, what it was."""

    kind: str  # "wall-clock" | "entropy" | "hash-order" | "env" | ...
    description: str
    line: int


@dataclass(frozen=True)
class TaintSpec:
    """What taints, what launders, and what summarizes calls.

    * ``call_sources`` / ``ref_sources``: dotted name -> (kind,
      description); a call source fires on ``name(...)``, a ref source
      on any load of the dotted name (``field(default_factory=...)``).
    * ``prefix_sources``: dotted prefix -> (kind, description), e.g.
      ``random.`` for the whole unseeded-RNG module surface.
    * ``sanitizers``: dotted call name -> kinds it launders (``"*"``
      for every kind): ``sorted`` clears ``hash-order`` but a
      wall-clock stamp stays tainted through it.
    * ``set_order_kind``: taint kind attached to materializing or
      iterating an unordered ``set``/``frozenset`` expression.
    """

    call_sources: dict
    ref_sources: dict
    prefix_sources: dict
    sanitizers: dict
    set_order_kind: str = "hash-order"

    def source_for_call(self, name: "str | None") -> "TaintSource | None":
        if name is None:
            return None
        hit = self.call_sources.get(name)
        if hit is None:
            for prefix, info in self.prefix_sources.items():
                if name.startswith(prefix):
                    hit = (info[0], name)
                    break
        return None if hit is None else TaintSource(hit[0], hit[1], 0)

    def source_for_ref(self, name: "str | None") -> "TaintSource | None":
        if name is None:
            return None
        hit = self.ref_sources.get(name)
        return None if hit is None else TaintSource(hit[0], hit[1], 0)

    def launder(self, name: "str | None", taints: frozenset) -> frozenset:
        if name is None or name not in self.sanitizers:
            return taints
        cleared = self.sanitizers[name]
        if cleared == "*":
            return frozenset()
        return frozenset(t for t in taints if t.kind not in cleared)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False


class TaintAnalysis:
    """Forward taint fixpoint over one CFG.

    ``call_summary(node)`` (optional) returns extra
    :class:`TaintSource` sets for a resolved call — the hook the
    determinism rule's flow scan uses to splice in one level of
    call-graph propagation. ``param_taints`` seeds parameter names, which turns
    the same machinery into a "does this argument reach a sink /
    the return value" query for callee summaries.
    """

    def __init__(self, cfg: CFG, spec: TaintSpec, *,
                 call_summary: "Optional[Callable]" = None,
                 param_taints: "dict | None" = None):
        self.cfg = cfg
        self.spec = spec
        self._call_summary = call_summary
        self._param_taints = dict(param_taints or {})
        self.return_taint: frozenset = frozenset()
        self._element_state: dict[int, dict] = {}
        self._solve()

    # -- expression evaluation --------------------------------------------

    def expr_taint(self, node: "ast.AST | None", state: dict) -> frozenset:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return state.get(node.id, frozenset())
        if isinstance(node, ast.Call):
            return self._call_taint(node, state)
        if isinstance(node, ast.Attribute):
            source = self.spec.source_for_ref(dotted_name(node))
            if source is not None:
                return frozenset({TaintSource(source.kind,
                                              source.description,
                                              node.lineno)})
            return self.expr_taint(node.value, state)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            taints: frozenset = frozenset()
            for gen in node.generators:
                taints |= self.expr_taint(gen.iter, state)
                if _is_set_expr(gen.iter):
                    taints |= frozenset({TaintSource(
                        self.spec.set_order_kind,
                        "iteration over an unordered set",
                        gen.iter.lineno)})
            return taints
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return frozenset()
        if isinstance(node, ast.NamedExpr):
            return self.expr_taint(node.value, state)
        # structural default: union over child expressions
        taints = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) \
                    else child
                taints |= self.expr_taint(value, state)
        return taints

    def _call_taint(self, node: ast.Call, state: dict) -> frozenset:
        name = dotted_name(node.func)
        source = self.spec.source_for_call(name)
        if source is not None:
            return frozenset({TaintSource(source.kind, source.description,
                                          node.lineno)})
        taints: frozenset = frozenset()
        for arg in node.args:
            taints |= self.expr_taint(arg, state)
        for kw in node.keywords:
            taints |= self.expr_taint(kw.value, state)
        # list(set(...)) / tuple({...}) materializes hash order
        if (name in ("list", "tuple") and node.args
                and _is_set_expr(node.args[0])):
            taints |= frozenset({TaintSource(
                self.spec.set_order_kind,
                f"{name}() over an unordered set", node.lineno)})
        # a method call on a tainted receiver stays tainted
        if isinstance(node.func, ast.Attribute):
            taints |= self.expr_taint(node.func.value, state)
        if self._call_summary is not None:
            extra = self._call_summary(node)
            if extra:
                taints |= frozenset(extra)
        return self.spec.launder(name, taints)

    # -- transfer ----------------------------------------------------------

    def _assign(self, state: dict, target: ast.AST,
                taints: frozenset) -> None:
        for name in _target_names(target):
            state[name.id] = taints
        # out["k"] = tainted / obj.attr = tainted: weak-update the base
        # local so container flows survive
        base: "ast.AST | None" = None
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
        if isinstance(base, ast.Name):
            state[base.id] = state.get(base.id, frozenset()) | taints

    def _transfer(self, state: dict, element: ast.AST) -> dict:
        state = dict(state)
        # walrus bindings can occur in any element
        for node in ast.walk(element):
            if isinstance(node, _SKIP_SCOPES):
                continue
            if isinstance(node, ast.NamedExpr) and isinstance(
                    node.target, ast.Name):
                state[node.target.id] = self.expr_taint(node.value, state)
        if isinstance(element, ast.arguments):
            for definition in element_defs(element):
                state[definition.name] = self._param_taints.get(
                    definition.name, frozenset())
        elif isinstance(element, ast.Assign):
            taints = self.expr_taint(element.value, state)
            for target in element.targets:
                self._assign(state, target, taints)
        elif isinstance(element, ast.AnnAssign) and element.value:
            self._assign(state, element.target,
                         self.expr_taint(element.value, state))
        elif isinstance(element, ast.AugAssign):
            taints = self.expr_taint(element.value, state)
            if isinstance(element.target, ast.Name):
                state[element.target.id] = (
                    state.get(element.target.id, frozenset()) | taints)
            else:
                self._assign(state, element.target, taints)
        elif isinstance(element, (ast.For, ast.AsyncFor)):
            taints = self.expr_taint(element.iter, state)
            if _is_set_expr(element.iter):
                taints |= frozenset({TaintSource(
                    self.spec.set_order_kind,
                    "iteration over an unordered set",
                    element.iter.lineno)})
            self._assign(state, element.target, taints)
        elif isinstance(element, ast.withitem):
            if element.optional_vars is not None:
                self._assign(state, element.optional_vars,
                             self.expr_taint(element.context_expr, state))
        elif isinstance(element, ast.ExceptHandler):
            if element.name:
                state[element.name] = frozenset()
        elif isinstance(element, (ast.Import, ast.ImportFrom)):
            for definition in element_defs(element):
                state[definition.name] = frozenset()
        elif isinstance(element, ast.Return):
            self.return_taint |= self.expr_taint(element.value, state)
        return state

    # -- fixpoint ----------------------------------------------------------

    def _solve(self) -> None:
        order = self.cfg.block_order()
        out_states: dict[int, dict] = {bid: {} for bid in order}
        work = list(order)
        iterations = 0
        limit = max(64, 8 * len(order) * (len(order) + 1))
        while work and iterations < limit:
            iterations += 1
            bid = work.pop(0)
            block = self.cfg.blocks[bid]
            state: dict = {}
            for pred in block.preds:
                for name, taints in out_states[pred].items():
                    state[name] = state.get(name, frozenset()) | taints
            for element in block.elements:
                state = self._transfer(state, element)
            if state != out_states[bid]:
                out_states[bid] = state
                for succ in block.succs:
                    if succ not in work:
                        work.append(succ)
        # record the state before each element
        self.return_taint = frozenset()
        for bid in order:
            block = self.cfg.blocks[bid]
            state = {}
            for pred in block.preds:
                for name, taints in out_states[pred].items():
                    state[name] = state.get(name, frozenset()) | taints
            for element in block.elements:
                self._element_state[id(element)] = state
                state = self._transfer(state, element)

    def before(self, element: ast.AST) -> dict:
        """``{name: frozenset[TaintSource]}`` just before ``element``."""
        return self._element_state.get(id(element), {})

    def iter_states(self) -> "Iterator[tuple[Block, ast.AST, dict]]":
        """Every (block, element, state-before) triple in order."""
        for block, element in self.cfg.iter_elements():
            yield block, element, self.before(element)
