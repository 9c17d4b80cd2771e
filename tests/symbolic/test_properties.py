"""Property-based tests (hypothesis) for the symbolic engine.

Invariants:
* interpreter and compiled evaluation agree on random expressions,
* substitution of all symbols yields the same value as evaluation,
* structural equality implies equal evaluation.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import (
    Ceil,
    Const,
    Sym,
    as_expr,
    compile_expr,
    evaluate,
    free_symbols,
    smax,
    smin,
    substitute,
)

SYMBOL_NAMES = ("x", "y", "z")
SYMS = {name: Sym(name) for name in SYMBOL_NAMES}


def expr_strategy(max_depth: int = 4):
    """Random expression trees over x, y, z with safe operations."""
    leaves = st.one_of(
        st.sampled_from(list(SYMS.values())),
        st.integers(min_value=-20, max_value=20).map(as_expr),
        st.floats(
            min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
        ).map(as_expr),
    )

    def extend(children):
        binary = st.tuples(children, children)
        return st.one_of(
            binary.map(lambda ab: ab[0] + ab[1]),
            binary.map(lambda ab: ab[0] - ab[1]),
            binary.map(lambda ab: ab[0] * ab[1]),
            binary.map(lambda ab: smax(ab[0], ab[1])),
            binary.map(lambda ab: smin(ab[0], ab[1])),
            children.map(lambda a: Ceil.make(a / 3)),
            children.map(lambda a: a / 7),
        )

    return st.recursive(leaves, extend, max_leaves=max_depth * 4)


env_strategy = st.fixed_dictionaries(
    {
        name: st.floats(min_value=-100, max_value=100, allow_nan=False)
        for name in SYMBOL_NAMES
    }
)


@settings(max_examples=150, deadline=None)
@given(expr=expr_strategy(), env=env_strategy)
def test_compiled_matches_interpreter(expr, env):
    interpreted = evaluate(expr, env)
    compiled = compile_expr(expr, arg_names=SYMBOL_NAMES)(**env)
    assert math.isclose(float(interpreted), float(compiled), rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(expr=expr_strategy(), env=env_strategy)
def test_substitution_matches_evaluation(expr, env):
    substituted = substitute(expr, env)
    assert isinstance(substituted, Const)
    assert math.isclose(
        float(substituted.constant_value()),
        float(evaluate(expr, env)),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


@settings(max_examples=100, deadline=None)
@given(expr=expr_strategy())
def test_free_symbols_subset(expr):
    assert free_symbols(expr) <= set(SYMBOL_NAMES)


@settings(max_examples=100, deadline=None)
@given(expr=expr_strategy(), env=env_strategy)
def test_batched_evaluation_matches_scalar(expr, env):
    """Evaluating a batch of size 3 equals three scalar evaluations."""
    batch_env = {
        name: np.array([value, value + 1.0, value * 2.0])
        for name, value in env.items()
    }
    batched = np.asarray(evaluate(expr, batch_env), dtype=float)
    if batched.ndim == 0:  # constant expression
        batched = np.full(3, float(batched))
    for i in range(3):
        scalar_env = {name: batch_env[name][i] for name in SYMBOL_NAMES}
        assert math.isclose(
            float(evaluate(expr, scalar_env)), float(batched[i]),
            rel_tol=1e-9, abs_tol=1e-9,
        )


@settings(max_examples=100, deadline=None)
@given(expr=expr_strategy(), env=env_strategy)
def test_structural_equality_implies_equal_value(expr, env):
    clone = substitute(expr, {})  # identity substitution rebuilds the DAG
    assert clone == expr
    assert float(evaluate(clone, env)) == float(evaluate(expr, env))
