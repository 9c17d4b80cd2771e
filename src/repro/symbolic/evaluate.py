"""Batched evaluation of symbolic expressions.

The paper's key performance trick (Section 5.2) is that after a single
symbolic "simulation" pass, evaluating a candidate configuration reduces
to substituting values into closed-form expressions — and thousands of
candidates can be evaluated at once by substituting *numpy arrays* for
the optimization symbols.

Two evaluation paths are provided:

* :func:`evaluate` — a direct recursive interpreter, convenient for
  one-off queries and tests.
* :func:`compile_expr` — code generation: the expression DAG is
  flattened into a sequence of numpy statements (structurally equal
  sub-expressions computed once) and compiled to a Python function.
  This is what the tuners use for batched evaluation.

Both paths map each node type of :mod:`repro.symbolic.expr` to one
numpy operation: ``+``, ``*``, ``/``, ``np.ceil``, ``np.maximum`` and
``np.minimum``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Sequence, Union

import numpy as np

from .expr import Add, Ceil, Const, Div, Expr, Max, Min, Mul, Sym, free_symbols

ArrayLike = Union[int, float, np.ndarray]

__all__ = [
    "evaluate",
    "compile_expr",
    "CompiledExpr",
    "EvaluationError",
]


class EvaluationError(RuntimeError):
    """Raised when an expression references a symbol missing from the env."""


def _describe_root(expr: Expr) -> str:
    """A short human-readable label for an expression root."""
    text = repr(expr)
    return text if len(text) <= 80 else text[:77] + "..."


def evaluate(expr: Expr, env: Mapping[str, ArrayLike]) -> ArrayLike:
    """Evaluate ``expr`` with symbol values from ``env``.

    Values may be scalars or numpy arrays; arrays broadcast together,
    enabling batched evaluation of many configurations in one call.
    """
    # Keyed on identity, not structure: the interpret() oracle must not
    # share the structural CSE of compile_expr that it checks.
    cache: dict[int, ArrayLike] = {}

    def rec(node: Expr) -> ArrayLike:
        node_id = id(node)
        if node_id in cache:
            return cache[node_id]
        if isinstance(node, Const):
            result: ArrayLike = node.value
        elif isinstance(node, Sym):
            try:
                result = env[node.name]
            except KeyError:
                missing = sorted(free_symbols(expr) - set(env))
                raise EvaluationError(
                    f"missing symbol values {missing} for expression "
                    f"{_describe_root(expr)}; expression needs "
                    f"{sorted(free_symbols(expr))}"
                ) from None
        elif isinstance(node, Add):
            result = rec(node.children[0])
            for child in node.children[1:]:
                result = result + rec(child)
        elif isinstance(node, Mul):
            result = rec(node.children[0])
            for child in node.children[1:]:
                result = result * rec(child)
        elif isinstance(node, Div):
            result = np.true_divide(rec(node.left), rec(node.right))
        elif isinstance(node, Ceil):
            result = np.ceil(rec(node.operand))
        elif isinstance(node, Max):
            result = rec(node.children[0])
            for child in node.children[1:]:
                result = np.maximum(result, rec(child))
        elif isinstance(node, Min):
            result = rec(node.children[0])
            for child in node.children[1:]:
                result = np.minimum(result, rec(child))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node).__name__}")
        cache[node_id] = result
        return result

    return rec(expr)


class CompiledExpr:
    """A compiled, vectorized form of one or more expressions.

    Calling the object with keyword arguments (scalars or numpy arrays)
    returns the evaluated value, or a tuple of values if multiple
    expressions were compiled together.

    ``used_symbols`` is the subset of ``arg_names`` the expressions
    actually reference. Callers compiling a narrow projection of a wide
    vocabulary (e.g. the analyzer's memory kernel over the full symbol
    set) can consult it to build only the needed columns; the
    unused arguments may be passed as anything cheap (``0.0``).

    Two evaluation entry points share the argument contract:

    * ``__call__`` — the vectorized path: one pass of the generated numpy
      statements over the whole env (scalars or arrays, broadcasting).
    * :meth:`interpret` — the per-config reference path: walks the raw
      expression trees row by row through :func:`evaluate`. Slow by
      design and never called by the tuner; it anchors the differential
      tests, which swap it in for ``__call__`` to prove the vectorized
      path is bit-identical.
    """

    def __init__(self, func: Callable, arg_names: tuple[str, ...], n_outputs: int,
                 source: str,
                 used_symbols: frozenset[str] | None = None,
                 exprs: tuple[Expr, ...] = (),
                 single: bool | None = None) -> None:
        self._func = func
        self.arg_names = arg_names
        self.n_outputs = n_outputs
        self.source = source
        self.used_symbols = (frozenset(arg_names) if used_symbols is None
                             else used_symbols)
        self.exprs = exprs
        self._single = n_outputs == 1 if single is None else single

    def _check_env(self, env: Mapping[str, ArrayLike]) -> None:
        missing = [name for name in self.arg_names if name not in env]
        if missing:
            raise EvaluationError(f"missing symbol values: {missing}")

    def __call__(self, **env: ArrayLike) -> Any:
        self._check_env(env)
        args = [env[name] for name in self.arg_names]
        return self._func(*args)

    def interpret(self, **env: ArrayLike) -> Any:
        """Evaluate via the per-row interpreted reference path.

        Each row of the (broadcast) environment is evaluated as an
        independent scalar query against the raw expression trees.  The
        result matches ``__call__`` bit for bit — numpy's elementwise
        ufuncs produce identical IEEE-754 results whether applied to one
        element or a million — which is exactly the property the
        differential test harness asserts.
        """
        self._check_env(env)
        if not self.exprs:
            raise EvaluationError(
                "interpret() needs the raw expression trees; this "
                "CompiledExpr was built without them")
        used = {name: np.asarray(env[name], dtype=float)
                for name in self.arg_names if name in self.used_symbols}
        shapes = [value.shape for value in used.values()]
        shape = np.broadcast_shapes(*shapes) if shapes else ()
        if shape == ():
            scalar_env = {name: float(value) for name, value in used.items()}
            outs = [evaluate(expr, scalar_env) for expr in self.exprs]
        else:
            cols = {name: np.broadcast_to(value, shape).reshape(-1)
                    for name, value in used.items()}
            n = int(np.prod(shape, dtype=int))
            rows: list[list[float]] = [[] for _ in self.exprs]
            for i in range(n):
                row_env = {name: col[i] for name, col in cols.items()}
                for k, expr in enumerate(self.exprs):
                    rows[k].append(evaluate(expr, row_env))
            outs = [np.asarray(values).reshape(shape) for values in rows]
        if self._single:
            return outs[0]
        return tuple(outs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledExpr(args={list(self.arg_names)}, "
            f"outputs={self.n_outputs})"
        )


def _emit(node: Expr, lines: list[tuple[str, str, list[str]]],
          names: dict[Expr, str], sym_names: dict[str, str]) -> str:
    """Emit numpy statements for ``node``; return its local variable name.

    Each statement is appended to ``lines`` as ``(var, rhs, reads)``,
    ``reads`` being the names its right-hand side uses.

    ``names`` is keyed on the node itself, so structurally equal
    subtrees share one statement even when they were built separately
    (``Expr`` hashes and compares by structure). Equal subtrees emit the
    same code, so sharing their value cannot move a bit.
    """
    name = names.get(node)
    if name is not None:
        return name
    if isinstance(node, Const):
        value = node.value
        if math.isnan(value):
            code = "_np.nan"
        elif value == math.inf:
            code = "_np.inf"
        elif value == -math.inf:
            code = "(-_np.inf)"
        else:
            code = repr(float(value))
        names[node] = code
        return code
    if isinstance(node, Sym):
        names[node] = sym_names[node.name]
        return sym_names[node.name]

    children = [_emit(c, lines, names, sym_names) for c in node.children]
    var = f"_v{len(lines)}"
    if isinstance(node, Add):
        rhs = " + ".join(children)
    elif isinstance(node, Mul):
        rhs = " * ".join(children)
    elif isinstance(node, Div):
        rhs = f"{children[0]} / {children[1]}"
    elif isinstance(node, Ceil):
        rhs = f"_np.ceil({children[0]})"
    elif isinstance(node, Max):
        rhs = children[0]
        for child in children[1:]:
            rhs = f"_np.maximum({rhs}, {child})"
    elif isinstance(node, Min):
        rhs = children[0]
        for child in children[1:]:
            rhs = f"_np.minimum({rhs}, {child})"
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown node type {type(node).__name__}")
    lines.append((var, rhs, children))
    names[node] = var
    return var


def _body(lines: list[tuple[str, str, list[str]]],
          keep: set[str]) -> list[str]:
    """Source lines for ``lines``, each temporary deleted after the
    statement that reads it last (unless it is in ``keep``).

    Without the deletes every temporary stays alive until the function
    returns, so one call over a wide menu holds a column per statement
    at once, and the allocator returns that memory to the operating
    system and page-faults it in again on every call.
    """
    last_read: dict[str, int] = {}
    for i, (_, _, reads) in enumerate(lines):
        for name in reads:
            if name.startswith("_v"):
                last_read[name] = i
    dead: dict[int, list[str]] = {}
    for name, i in last_read.items():
        if name not in keep:
            dead.setdefault(i, []).append(name)
    body = []
    for i, (var, rhs, _) in enumerate(lines):
        body.append(f"    {var} = {rhs}")
        if i in dead:
            body.append(f"    del {', '.join(dead[i])}")
    return body


def compile_expr(exprs: Union[Expr, Sequence[Expr]],
                 arg_names: Sequence[str] | None = None) -> CompiledExpr:
    """Compile one or more expressions into a fast vectorized function.

    ``arg_names`` fixes the argument order; by default the union of free
    symbols across all expressions, sorted alphabetically. Sharing a
    single :class:`CompiledExpr` for related expressions (e.g. runtime
    and memory of the same stage) reuses common sub-expressions.
    """
    single = isinstance(exprs, Expr)
    expr_list: list[Expr] = [exprs] if single else list(exprs)
    if not expr_list:
        raise ValueError("no expressions to compile")

    all_syms: set[str] = set()
    for expr in expr_list:
        all_syms |= free_symbols(expr)
    if arg_names is None:
        arg_names = tuple(sorted(all_syms))
    else:
        arg_names = tuple(arg_names)

    sym_names = {name: f"_a{i}" for i, name in enumerate(arg_names)}
    lines: list[tuple[str, str, list[str]]] = []
    names: dict[Expr, str] = {}
    out_vars = [_emit(expr, lines, names, sym_names) for expr in expr_list]
    body = _body(lines, set(out_vars))

    params = ", ".join(sym_names[name] for name in arg_names)
    ret = out_vars[0] if single else "(" + ", ".join(out_vars) + ("," if len(out_vars) == 1 else "") + ")"
    source = f"def _compiled({params}):\n"
    source += "\n".join(body) + ("\n" if body else "")
    source += f"    return {ret}\n"

    namespace: dict = {"_np": np}
    exec(compile(source, "<repro.symbolic.compiled>", "exec"), namespace)
    func = namespace["_compiled"]
    return CompiledExpr(func, arg_names, len(expr_list), source,
                        used_symbols=frozenset(all_syms) & set(arg_names),
                        exprs=tuple(expr_list), single=single)
