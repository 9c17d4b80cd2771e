"""Symbolic expression engine (paper Section 5.2).

Public surface:

* expression nodes and constructors (:class:`Sym`, :func:`smax`,
  :func:`ceil_div`, ...),
* :func:`evaluate` / :func:`compile_expr` for (batched) numeric
  evaluation,
* :class:`SymbolManager` / :data:`global_symbol_manager` for declaring
  symbols with concrete defaults.
"""

from .expr import (
    Add,
    Ceil,
    Cmp,
    Const,
    Div,
    Expr,
    ExprLike,
    Floor,
    FloorDiv,
    Ge,
    Gt,
    Le,
    Lt,
    Max,
    Min,
    Mod,
    Mul,
    Piecewise,
    Pow,
    Sym,
    align_up,
    as_expr,
    ceil_div,
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
from .simplify import collect_terms, count_nodes, simplify
from .symbols import SymbolManager, global_symbol_manager

__all__ = [
    "Add",
    "Ceil",
    "Cmp",
    "CompiledExpr",
    "Const",
    "Div",
    "EvaluationError",
    "Expr",
    "ExprLike",
    "Floor",
    "FloorDiv",
    "Ge",
    "Gt",
    "Le",
    "Lt",
    "Max",
    "Min",
    "Mod",
    "Mul",
    "Piecewise",
    "Pow",
    "Sym",
    "SymbolManager",
    "align_up",
    "as_expr",
    "ceil_div",
    "collect_terms",
    "compile_expr",
    "count_nodes",
    "evaluate",
    "free_symbols",
    "global_symbol_manager",
    "simplify",
    "smax",
    "smin",
    "substitute",
]
