"""Tests for interpreter and compiled evaluation, including batched numpy."""

import tracemalloc

import numpy as np
import pytest

from repro.symbolic import (
    Ceil,
    Const,
    EvaluationError,
    Sym,
    compile_expr,
    evaluate,
    smax,
    smin,
)


@pytest.fixture
def xy():
    return Sym("x"), Sym("y")


class TestInterpreter:
    def test_scalar_arithmetic(self, xy):
        x, y = xy
        assert evaluate(x * y + 2, {"x": 3, "y": 4}) == 14

    def test_division(self, xy):
        x, y = xy
        assert evaluate(x / y, {"x": 1, "y": 4}) == 0.25

    def test_max_min(self, xy):
        x, y = xy
        assert evaluate(smax(x, y), {"x": 3, "y": 9}) == 9
        assert evaluate(smin(x, y), {"x": 3, "y": 9}) == 3

    def test_ceil(self, xy):
        x, y = xy
        assert evaluate(Ceil.make(x / y), {"x": 7, "y": 2}) == 4

    def test_missing_symbol_raises(self, xy):
        x, y = xy
        with pytest.raises(EvaluationError, match="y"):
            evaluate(x + y, {"x": 1})

    def test_batched_arrays(self, xy):
        x, y = xy
        xs = np.array([1.0, 2.0, 3.0])
        result = evaluate(x * y, {"x": xs, "y": 10})
        np.testing.assert_allclose(result, [10.0, 20.0, 30.0])

    def test_broadcasting(self, xy):
        x, y = xy
        xs = np.array([[1.0], [2.0]])
        ys = np.array([10.0, 20.0, 30.0])
        result = evaluate(x + y, {"x": xs, "y": ys})
        assert result.shape == (2, 3)


class TestCompiled:
    def test_matches_interpreter_scalar(self, xy):
        x, y = xy
        expr = smax(x * y + 2, x - y) + Ceil.make(x / 3)
        compiled = compile_expr(expr)
        env = {"x": 7, "y": 2}
        assert compiled(**env) == evaluate(expr, env)

    def test_matches_interpreter_batched(self, xy):
        x, y = xy
        expr = smin(smax(x, 5) * y, Ceil.make(x + y))
        compiled = compile_expr(expr)
        xs = np.linspace(0, 10, 23)
        ys = np.linspace(1, 3, 23)
        np.testing.assert_allclose(
            compiled(x=xs, y=ys), evaluate(expr, {"x": xs, "y": ys})
        )

    def test_multiple_outputs(self, xy):
        x, y = xy
        shared = x * y
        e1 = shared + 1
        e2 = shared * 2
        compiled = compile_expr([e1, e2])
        r1, r2 = compiled(x=3, y=4)
        assert r1 == 13
        assert r2 == 24

    def test_common_subexpression_emitted_once(self, xy):
        x, y = xy
        shared = x * y + 1
        compiled = compile_expr([shared + 2, shared * 3])
        # The shared sub-expression should appear exactly once in the source.
        assert compiled.source.count("+ 1.0") == 1

    def test_structurally_equal_subtrees_emitted_once(self):
        def build():
            x, y = Sym("x"), Sym("y")
            return Ceil.make((x * y + 1) / 4)

        first, second = build(), build()
        assert first is not second and first == second
        compiled = compile_expr([first + 2, second * 3])
        shared = compile_expr([first + 2, first * 3])
        assert compiled.source == shared.source
        assert compiled.source.count("_a0 * _a1") == 1
        assert compiled.source.count("_np.ceil(") == 1
        assert compiled(x=3, y=5) == (6, 12)

    def test_temporaries_die_after_their_last_read(self, xy):
        # 80 statements over 100k rows: a column per statement kept
        # alive until the return would peak near 80 columns
        x, y = xy
        expr = x * y
        for k in range(1, 41):
            expr = smax(expr + k, y)
            if k == 20:
                mid = expr
        compiled = compile_expr([expr, mid])
        assert "del " in compiled.source
        xs = np.linspace(0.0, 1.0, 100_000)
        ys = xs[::-1].copy()
        tracemalloc.start()
        try:
            out, out_mid = compiled(x=xs, y=ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * xs.nbytes
        env = {"x": xs, "y": ys}
        np.testing.assert_array_equal(out, evaluate(expr, env))
        np.testing.assert_array_equal(out_mid, evaluate(mid, env))

    def test_nan_constant(self, xy):
        x, _ = xy
        expr = smax(x, Const(float("nan"))) + x
        compiled = compile_expr(expr)
        assert "_np.nan" in compiled.source
        assert np.isnan(compiled(x=0.5))
        assert np.isnan(evaluate(expr, {"x": 0.5}))
        out = compiled(x=np.array([0.5, 2.0]))
        assert np.isnan(out).all()

    def test_explicit_arg_order(self, xy):
        x, y = xy
        compiled = compile_expr(x - y, arg_names=["y", "x"])
        assert compiled.arg_names == ("y", "x")
        assert compiled(x=10, y=3) == 7

    def test_missing_arg_raises(self, xy):
        x, y = xy
        compiled = compile_expr(x + y)
        with pytest.raises(EvaluationError):
            compiled(x=1)

    def test_constant_expression(self):
        compiled = compile_expr(Sym("x") * 0 + 42)
        assert compiled() == 42

    def test_large_values_no_overflow(self, xy):
        x, _ = xy
        # 22B params * 16 bytes — needs float64 headroom, not int32.
        compiled = compile_expr(x * 16)
        assert compiled(x=np.array([22e9]))[0] == pytest.approx(3.52e11)
