"""Unit tests for the symbolic expression DAG."""

import math

import pytest

from repro.symbolic import (
    Add,
    Ceil,
    Const,
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


class TestConstFolding:
    def test_add_constants(self):
        assert (as_expr(2) + 3) == Const(5)

    def test_mul_constants(self):
        assert (as_expr(4) * 5) == Const(20)

    def test_mul_zero_absorbs_symbol(self):
        x = Sym("x")
        assert (x * 0) == Const(0)

    def test_add_identity(self):
        x = Sym("x")
        assert (x + 0) is x

    def test_mul_identity(self):
        x = Sym("x")
        assert (x * 1) is x

    def test_div_by_one(self):
        x = Sym("x")
        assert (x / 1) is x

    def test_exact_integer_division_folds_to_int(self):
        result = as_expr(10) / 5
        assert result == Const(2)
        assert isinstance(result.constant_value(), int)

    def test_inexact_division_folds_to_float(self):
        assert (as_expr(1) / 4) == Const(0.25)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            as_expr(1) / 0

    def test_sub(self):
        assert (as_expr(7) - 3) == Const(4)

    def test_neg(self):
        assert (-as_expr(5)) == Const(-5)

    def test_float_that_is_integral_normalizes(self):
        assert Const(4.0) == Const(4)


class TestFlattening:
    def test_add_flattens(self):
        x, y, z = Sym("x"), Sym("y"), Sym("z")
        expr = (x + y) + z
        assert isinstance(expr, Add)
        assert len(expr.children) == 3

    def test_mul_flattens(self):
        x, y, z = Sym("x"), Sym("y"), Sym("z")
        expr = (x * y) * z
        assert isinstance(expr, Mul)
        assert len(expr.children) == 3

    def test_nested_constants_merge(self):
        x = Sym("x")
        expr = (x + 2) + 3
        # one symbol + folded constant
        assert isinstance(expr, Add)
        consts = [c for c in expr.children if isinstance(c, Const)]
        assert len(consts) == 1 and consts[0].value == 5


class TestMaxMin:
    def test_max_constants(self):
        assert smax(3, 7, 5) == Const(7)

    def test_min_constants(self):
        assert smin(3, 7, 5) == Const(3)

    def test_max_dedupes_identical_branches(self):
        x = Sym("x")
        expr = smax(x + 1, x + 1, x + 1)
        assert expr == (x + 1)

    def test_max_single_symbol(self):
        x = Sym("x")
        assert smax(x) is x

    def test_max_flattens(self):
        x, y = Sym("x"), Sym("y")
        expr = smax(smax(x, y), 3)
        assert isinstance(expr, Max)
        assert len(expr.children) == 3

    def test_min_keeps_symbolic_and_const(self):
        x = Sym("x")
        expr = smin(x, 5)
        assert isinstance(expr, Min)

    def test_min_dedupes_identical_branches(self):
        x, y = Sym("x"), Sym("y")
        expr = smin(x * y, y, x * y, 4, 9)
        assert expr == Min((x * y, y, Const(4)))

    def test_to_str_names_the_extremum(self):
        x = Sym("x")
        assert smax(x, 3).to_str() == "max(x, 3)"
        assert smin(x, 3).to_str() == "min(x, 3)"


class TestCeil:
    def test_ceil_of_integer_valued_operand_is_identity(self):
        n = Sym("n", integer=True)
        assert Ceil.make(n) is n
        assert Ceil.make(n * 4 + 1) == n * 4 + 1
        assert isinstance(Ceil.make(n / 2), Ceil)

    def test_ceil_of_integer_valued_extremum_is_identity(self):
        n = Sym("n", integer=True)
        assert Ceil.make(smax(n, 3)) == smax(n, 3)
        assert isinstance(Ceil.make(smin(n, 0.5)), Ceil)

    def test_ceil_of_division_constants(self):
        assert Ceil.make(as_expr(7) / 2) == Const(4)
        assert Ceil.make(as_expr(8) / 2) == Const(4)

    def test_rounding_folds_non_finite_constants_to_themselves(self):
        assert math.isnan(Ceil.make(Const(math.nan)).value)
        assert Ceil.make(Const(math.inf)) == Const(math.inf)
        assert Ceil.make(Const(-math.inf)) == Const(-math.inf)

    @pytest.mark.parametrize("op", [
        lambda x: x // 2, lambda x: 2 // x, lambda x: x % 2,
        lambda x: 2 % x, lambda x: x ** 2,
    ], ids=["floordiv", "rfloordiv", "mod", "rmod", "pow"])
    def test_operators_the_cost_model_never_builds_raise(self, op):
        with pytest.raises(TypeError):
            op(Sym("x"))


class TestStructuralEquality:
    def test_same_structure_equal(self):
        x, y = Sym("x"), Sym("y")
        assert (x + y) == (x + y)
        assert hash(x + y) == hash(x + y)

    def test_different_structure_not_equal(self):
        x, y = Sym("x"), Sym("y")
        assert (x + y) != (x * y)

    def test_const_equals_number(self):
        assert Const(5) == 5
        assert Const(5) != 6

    def test_usable_as_dict_key(self):
        x = Sym("x")
        table = {x + 1: "a", x + 2: "b"}
        assert table[x + 1] == "a"


class TestFreeSymbolsAndSubstitute:
    def test_free_symbols(self):
        x, y = Sym("x"), Sym("y")
        assert free_symbols(x * y + 2) == frozenset({"x", "y"})

    def test_substitute_to_constant(self):
        x, y = Sym("x"), Sym("y")
        expr = x * y + x
        result = substitute(expr, {"x": 3, "y": 4})
        assert result == Const(15)

    def test_partial_substitution(self):
        x, y = Sym("x"), Sym("y")
        expr = x * y
        result = substitute(expr, {"x": 3})
        assert free_symbols(result) == frozenset({"y"})

    def test_substitute_expression(self):
        x, y, z = Sym("x"), Sym("y"), Sym("z")
        expr = x + 1
        result = substitute(expr, {"x": y * z})
        assert result == (y * z + 1)

    def test_substitute_through_max(self):
        x = Sym("x")
        expr = smax(x, 10)
        assert substitute(expr, {"x": 20}) == Const(20)
        assert substitute(expr, {"x": 3}) == Const(10)

    def test_substitute_through_ceil(self):
        x = Sym("x")
        expr = Ceil.make(x / 4) * 2
        assert substitute(expr, {"x": 5}) == Const(4)
        assert substitute(expr, {"x": 8}) == Const(4)


class TestImmutability:
    def test_sym_is_immutable(self):
        x = Sym("x")
        with pytest.raises(AttributeError):
            x.name = "y"

    def test_const_is_immutable(self):
        c = Const(1)
        with pytest.raises(AttributeError):
            c.value = 2

    def test_add_is_immutable(self):
        e = Sym("x") + Sym("y")
        with pytest.raises(AttributeError):
            e.children = ()


class TestInfinityHandling:
    def test_max_identity_with_no_args(self):
        assert Max.make() == Const(-math.inf)

    def test_min_identity_with_no_args(self):
        assert Min.make() == Const(math.inf)
