"""Symbolic expression DAG used throughout the Mist reproduction.

This module implements the expression layer of the paper's symbolic
analysis system (Section 5.2): immutable expression nodes over named
symbols, with constant folding at construction time, structural
equality, substitution, and (in :mod:`repro.symbolic.evaluate`) batched
numpy evaluation.

The engine supports only the operations the traced runtime and memory
models build — sums, products, true division, ceiling, min and max —
which keeps evaluation fast and the implementation auditable.

Expressions are built either from :class:`Sym` leaves (usually created
through :class:`repro.symbolic.symbols.SymbolManager`) or by combining
existing expressions with Python operators::

    b, s, h = Sym("b"), Sym("s"), Sym("h")
    act_bytes = 2 * b * s * h               # Mul(2, b, s, h)
    per_rank = Ceil.make(act_bytes / 8)     # ceil(act_bytes / 8)

``==`` on expressions is *structural* equality (returns ``bool``).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Union

Number = Union[int, float]
ExprLike = Union["Expr", int, float]

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "Add",
    "Mul",
    "Div",
    "Ceil",
    "Max",
    "Min",
    "as_expr",
    "smax",
    "smin",
    "free_symbols",
    "substitute",
]


def as_expr(value: ExprLike) -> "Expr":
    """Coerce a Python number into a :class:`Const`; pass through exprs."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value))
    if isinstance(value, (int, float)):
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to a symbolic expression")


class Expr:
    """Base class for all symbolic expression nodes.

    Nodes are immutable; ``children`` holds sub-expressions and
    ``_key()`` is the structural identity used for ``__eq__``/hash.
    """

    __slots__ = ("_hash",)

    children: tuple = ()

    def _key(self) -> tuple:
        return (type(self).__name__, self.children)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            if isinstance(other, (int, float)):
                return isinstance(self, Const) and self.value == other
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- arithmetic operators -------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return Add.make(self, as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add.make(as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Add.make(self, Mul.make(Const(-1), as_expr(other)))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Add.make(as_expr(other), Mul.make(Const(-1), self))

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul.make(self, as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul.make(as_expr(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return Div.make(self, as_expr(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return Div.make(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Mul.make(Const(-1), self)

    def __pos__(self) -> "Expr":
        return self

    # -- introspection --------------------------------------------------------
    def constant_value(self) -> Number:
        """Return the numeric value if this expression is a constant."""
        if isinstance(self, Const):
            return self.value
        raise ValueError(f"{self!r} is not a constant expression")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_str()

    def to_str(self) -> str:
        raise NotImplementedError


class Const(Expr):
    """A numeric literal."""

    __slots__ = ("value",)
    children = ()

    def __init__(self, value: Number) -> None:
        if isinstance(value, float) and value.is_integer() and abs(value) < 2**52:
            value = int(value)
        object.__setattr__(self, "value", value)

    def _key(self) -> tuple:
        return ("Const", self.value)

    def to_str(self) -> str:
        return repr(self.value)


class Sym(Expr):
    """A named free symbol.

    ``integer`` is an advisory assumption used by simplification
    (``ceil(x) == x`` for integer ``x``).
    """

    __slots__ = ("name", "integer")
    children = ()

    def __init__(self, name: str, integer: bool = False) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("symbol name must be a non-empty string")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "integer", bool(integer))

    def _key(self) -> tuple:
        return ("Sym", self.name)

    def to_str(self) -> str:
        return self.name


class _NAry(Expr):
    """Shared implementation for flattening, constant-folding n-ary ops."""

    __slots__ = ("children",)

    IDENTITY: Number = 0

    def __init__(self, children: Iterable[Expr]) -> None:
        object.__setattr__(self, "children", tuple(children))

    @classmethod
    def _fold(cls, values: Iterable[Number]) -> Number:
        raise NotImplementedError

    @classmethod
    def make(cls, *args: Expr) -> Expr:
        flat: list[Expr] = []
        const_acc: list[Number] = []
        for arg in args:
            if isinstance(arg, cls):
                for child in arg.children:
                    if isinstance(child, Const):
                        const_acc.append(child.value)
                    else:
                        flat.append(child)
            elif isinstance(arg, Const):
                const_acc.append(arg.value)
            else:
                flat.append(arg)
        folded = cls._fold(const_acc) if const_acc else cls.IDENTITY
        return cls._finish(flat, folded)

    @classmethod
    def _finish(cls, flat: list[Expr], folded: Number) -> Expr:
        raise NotImplementedError


class Add(_NAry):
    """n-ary sum with constant folding and flattening."""

    __slots__ = ()
    IDENTITY = 0

    @classmethod
    def _fold(cls, values: Iterable[Number]) -> Number:
        return sum(values)

    @classmethod
    def _finish(cls, flat: list[Expr], folded: Number) -> Expr:
        if not flat:
            return Const(folded)
        if folded != 0:
            flat = flat + [Const(folded)]
        if len(flat) == 1:
            return flat[0]
        return cls(flat)

    def to_str(self) -> str:
        return "(" + " + ".join(c.to_str() for c in self.children) + ")"


class Mul(_NAry):
    """n-ary product with constant folding, flattening and zero absorption."""

    __slots__ = ()
    IDENTITY = 1

    @classmethod
    def _fold(cls, values: Iterable[Number]) -> Number:
        return math.prod(values)

    @classmethod
    def _finish(cls, flat: list[Expr], folded: Number) -> Expr:
        if folded == 0:
            return Const(0)
        if not flat:
            return Const(folded)
        if folded != 1:
            flat = [Const(folded)] + flat
        if len(flat) == 1:
            return flat[0]
        return cls(flat)

    def to_str(self) -> str:
        return "(" + " * ".join(c.to_str() for c in self.children) + ")"


class Div(Expr):
    """True division."""

    __slots__ = ("children",)

    def __init__(self, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "children", (left, right))

    @property
    def left(self) -> Expr:
        return self.children[0]

    @property
    def right(self) -> Expr:
        return self.children[1]

    @classmethod
    def make(cls, left: Expr, right: Expr) -> Expr:
        if isinstance(right, Const):
            if right.value == 0:
                raise ZeroDivisionError("symbolic division by constant zero")
            if right.value == 1:
                return left
            if isinstance(left, Const):
                value = left.value / right.value
                if isinstance(left.value, int) and isinstance(right.value, int) and left.value % right.value == 0:
                    return Const(left.value // right.value)
                return Const(value)
        if isinstance(left, Const) and left.value == 0:
            return Const(0)
        return cls(left, right)

    def to_str(self) -> str:
        return f"({self.left.to_str()} / {self.right.to_str()})"


def _is_integer_valued(expr: Expr) -> bool:
    """Best-effort static check that ``expr`` always takes integer values."""
    if isinstance(expr, Const):
        return isinstance(expr.value, int)
    if isinstance(expr, Sym):
        return expr.integer
    if isinstance(expr, Ceil):
        return True
    if isinstance(expr, (Add, Mul, Max, Min)):
        return all(_is_integer_valued(c) for c in expr.children)
    return False


class Ceil(Expr):
    """Ceiling to the nearest integer."""

    __slots__ = ("children",)

    def __init__(self, operand: Expr) -> None:
        object.__setattr__(self, "children", (operand,))

    @property
    def operand(self) -> Expr:
        return self.children[0]

    @classmethod
    def make(cls, operand: Expr) -> Expr:
        if isinstance(operand, Const):
            value = operand.value
            # NaN and +-inf round to themselves, as under np.ceil
            if isinstance(value, float) and not math.isfinite(value):
                return operand
            return Const(math.ceil(value))
        if _is_integer_valued(operand):
            return operand
        return cls(operand)

    def to_str(self) -> str:
        return f"ceil({self.operand.to_str()})"


class _Extremum(_NAry):
    """Shared folding of :class:`Max` and :class:`Min`: structurally
    identical branches are kept once."""

    __slots__ = ()

    @classmethod
    def _finish(cls, flat: list[Expr], folded: Number) -> Expr:
        if not flat:
            return Const(folded)
        unique = list(dict.fromkeys(flat))
        if folded != cls.IDENTITY:
            unique.append(Const(folded))
        if len(unique) == 1:
            return unique[0]
        return cls(unique)

    def to_str(self) -> str:
        return (type(self).__name__.lower() + "("
                + ", ".join(c.to_str() for c in self.children) + ")")


class Max(_Extremum):
    """n-ary maximum."""

    __slots__ = ()
    IDENTITY = -math.inf

    @classmethod
    def _fold(cls, values: Iterable[Number]) -> Number:
        return max(values)


class Min(_Extremum):
    """n-ary minimum."""

    __slots__ = ()
    IDENTITY = math.inf

    @classmethod
    def _fold(cls, values: Iterable[Number]) -> Number:
        return min(values)


# -- convenience constructors -------------------------------------------------


def smax(*args: ExprLike) -> Expr:
    """Symbolic maximum of any number of expressions/numbers."""
    return Max.make(*[as_expr(a) for a in args])


def smin(*args: ExprLike) -> Expr:
    """Symbolic minimum of any number of expressions/numbers."""
    return Min.make(*[as_expr(a) for a in args])


# -- traversal utilities ------------------------------------------------------


def free_symbols(expr: Expr) -> frozenset[str]:
    """Collect the names of all free symbols in ``expr``."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.name)
        else:
            stack.extend(node.children)
    return frozenset(out)


def substitute(expr: Expr, mapping: Mapping[str, ExprLike]) -> Expr:
    """Replace symbols by name with expressions or numbers.

    Rebuilds the tree through each node's ``make`` constructor so
    constant folding is re-applied — substituting every symbol with a
    number yields a :class:`Const`.
    """
    resolved = {name: as_expr(value) for name, value in mapping.items()}
    cache: dict[int, Expr] = {}

    def rec(node: Expr) -> Expr:
        node_id = id(node)
        if node_id in cache:
            return cache[node_id]
        if isinstance(node, Sym):
            result = resolved.get(node.name, node)
        elif isinstance(node, Const):
            result = node
        else:
            new_children = [rec(c) for c in node.children]
            if all(nc is oc for nc, oc in zip(new_children, node.children)):
                result = node
            elif isinstance(node, (Add, Mul, Div, Ceil, Max, Min)):
                result = type(node).make(*new_children)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown node type {type(node).__name__}")
        cache[node_id] = result
        return result

    return rec(expr)
