"""Unit tests for the expression language.

Every case runs both forms: the reference walk over a dict row
(``tests/reference/expressions.py``) and the engine's chunk kernel
(``compile_vector``) over a one-row chunk of the same columns, which must
agree — resolution errors surface when the kernel is compiled.
"""

import pytest

from repro.core.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    FunctionCall,
    Literal,
    Not,
    Or,
    col,
    compare,
    lit,
    register_udf,
    tables_referenced,
    udf,
)
from repro.core.tuples import RowLayout
from repro.exceptions import ExpressionError
from tests.reference import evaluate


ROW = {"R.num2": 60.0, "R.num3": 10.0, "S.num3": 45.0, "S.pkey": 7}


def run(expression, row=ROW):
    """The expression's value on ``row``; both forms must agree on it."""
    value = evaluate(expression, row)
    kernel = expression.compile_vector(RowLayout(list(row)))
    assert kernel([[cell] for cell in row.values()], 1) == [value]
    return value


def raises(expression, row=ROW):
    """Both forms reject ``expression`` over ``row``'s columns."""
    with pytest.raises(ExpressionError):
        evaluate(expression, row)
    with pytest.raises(ExpressionError):
        expression.compile_vector(RowLayout(list(row)))


def test_literal_evaluates_to_itself():
    assert run(lit(42), {}) == 42


def test_column_ref_qualified_lookup():
    assert run(col("R.num2")) == 60.0


def test_column_ref_unqualified_resolves_unique_suffix():
    assert run(col("num2")) == 60.0


def test_column_ref_ambiguous_unqualified_raises():
    raises(col("num3"))


def test_column_ref_qualified_falls_back_to_bare_name():
    assert run(col("R.num2"), {"num2": 5.0}) == 5.0


def test_column_ref_missing_raises():
    raises(col("R.missing"))


def test_comparison_operators():
    assert run(Comparison(">", col("R.num2"), lit(50)))
    assert not run(Comparison("<", col("R.num2"), lit(50)))
    assert run(Comparison("=", col("S.pkey"), lit(7)))
    assert run(Comparison("!=", col("S.pkey"), lit(8)))
    assert run(Comparison("<=", lit(3), lit(3)), {})
    assert run(Comparison(">=", lit(4), lit(3)), {})


def test_comparison_rejects_unknown_operator():
    with pytest.raises(ExpressionError):
        Comparison("~", lit(1), lit(2))


def test_arithmetic_operators():
    assert run(Arithmetic("+", lit(2), lit(3)), {}) == 5
    assert run(Arithmetic("-", lit(2), lit(3)), {}) == -1
    assert run(Arithmetic("*", lit(2), lit(3)), {}) == 6
    assert run(Arithmetic("/", lit(3), lit(2)), {}) == pytest.approx(1.5)


def test_and_or_not():
    true = Comparison(">", lit(2), lit(1))
    false = Comparison("<", lit(2), lit(1))
    assert run(And([true, true]), {})
    assert not run(And([true, false]), {})
    assert run(Or([false, true]), {})
    assert not run(Or([false, false]), {})
    assert run(Not(false), {})


def test_operator_overloads_build_connectives():
    true = Comparison(">", lit(2), lit(1))
    false = Comparison("<", lit(2), lit(1))
    assert run(true & true, {})
    assert run(true | false, {})
    assert run(~false, {})


def test_and_flattening():
    a, b, c = lit(1), lit(2), lit(3)
    nested = And([And([Comparison("=", a, a), Comparison("=", b, b)]), Comparison("=", c, c)])
    assert len(nested.flattened()) == 3


def test_columns_referenced_collects_from_subtrees():
    expression = And([
        Comparison(">", col("R.num2"), lit(1)),
        Comparison(">", FunctionCall("f", (col("R.num3"), col("S.num3"))), lit(2)),
    ])
    assert expression.columns_referenced() == {"R.num2", "R.num3", "S.num3"}
    assert tables_referenced(expression) == {"R", "S"}


def test_function_call_uses_registered_udf():
    register_udf("double_it", lambda x: 2 * x)
    assert run(FunctionCall("double_it", (lit(21),)), {}) == 42
    assert udf("double_it")(5) == 10


def test_function_call_unknown_udf_raises():
    raises(FunctionCall("no_such_udf", (lit(1),)), {})


def test_paper_benchmark_udf_registered():
    # f(x, y) must be deterministic and registered under "f".
    assert udf("f")(10.0, 45.0) == udf("f")(10.0, 45.0)


def test_compare_helper_wraps_values_and_columns():
    predicate = compare("R.num2", ">", 50)
    assert run(predicate)
    assert isinstance(predicate.left, ColumnRef)
    assert isinstance(predicate.right, Literal)
