"""Symbolic expression engine (paper Section 5.2).

Public surface:

* expression nodes (:class:`Const`, :class:`Sym`, :class:`Add`,
  :class:`Mul`, :class:`Div`, :class:`Ceil`, :class:`Max`,
  :class:`Min`) and the constructors :func:`smax` / :func:`smin`,
* :func:`evaluate` / :func:`compile_expr` for (batched) numeric
  evaluation,
* :class:`SymbolManager` / :data:`global_symbol_manager` for declaring
  symbols with concrete defaults.
"""

from .expr import (
    Add,
    Ceil,
    Const,
    Div,
    Expr,
    ExprLike,
    Max,
    Min,
    Mul,
    Sym,
    as_expr,
    free_symbols,
    smax,
    smin,
    substitute,
)
from .evaluate import (
    CompiledExpr,
    EvaluationError,
    compile_expr,
    evaluate,
)
from .symbols import SymbolManager, global_symbol_manager

__all__ = [
    "Add",
    "Ceil",
    "CompiledExpr",
    "Const",
    "Div",
    "EvaluationError",
    "Expr",
    "ExprLike",
    "Max",
    "Min",
    "Mul",
    "Sym",
    "SymbolManager",
    "as_expr",
    "compile_expr",
    "evaluate",
    "free_symbols",
    "global_symbol_manager",
    "smax",
    "smin",
    "substitute",
]
