"""Compiled expressions and layouts against their interpreted meaning.

``Expression.evaluate`` over a dict environment is the definition;
``Expression.compile`` over a slotted row must return the same value or fail
with the same error class (``tests/test_columnar.py`` closes the triangle
with ``compile_vector`` over a chunk), and resolution errors must surface at
compile time.  Whole queries are checked against a centralised oracle in
``tests/test_pipeline_oracle.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expressions import (
    And,
    Arithmetic,
    Comparison,
    FunctionCall,
    Not,
    Or,
    col,
    compare,
    compile_expression,
    lit,
)
from repro.core.tuples import RowLayout
from repro.exceptions import ExpressionError, SchemaError
from tests.reference import project_row

# --------------------------------------------------------------- expressions

#: Layout of the post-join environment the fixtures evaluate against.
MERGED_LAYOUT = RowLayout(
    ["R.pkey", "R.num1", "R.num2", "R.num3", "S.pkey", "S.num2", "S.num3"]
)

#: Every expression shape the engine compiles, including the fig-3 query's
#: predicates, qualified/bare resolution fallbacks and failure cases.
EXPRESSION_FIXTURES = [
    lit(42),
    col("R.num2"),
    col("num1"),                      # bare name, unique suffix match
    col("R.missing"),                 # absent column -> ExpressionError
    col("num2"),                      # ambiguous (R.num2 / S.num2)
    compare("R.num2", ">", 50.0),     # fig-3 local predicate shape
    compare("S.num2", ">", 25.0),
    Comparison("=", col("R.num1"), col("S.pkey")),   # the equi-join condition
    Comparison("!=", col("R.pkey"), lit(3)),
    Comparison("<=", col("num3"), lit(10.0)),        # ambiguous -> error
    Arithmetic("+", col("R.num2"), col("S.num2")),
    Arithmetic("*", Arithmetic("-", col("R.num3"), lit(1.0)), lit(2.5)),
    Arithmetic("/", col("R.num2"), col("S.num2")),   # may divide by zero
    And([compare("R.num2", ">", 10.0), compare("S.num2", "<", 90.0)]),
    And([compare("R.num2", ">", 10.0), compare("S.num2", "<", 90.0),
         compare("R.num1", ">=", 0)]),
    Or([compare("R.num2", ">", 99.0), compare("S.num2", "<", 1.0)]),
    Not(compare("R.num3", ">", 50.0)),
    ~(compare("R.num2", ">", 5.0) & compare("S.num3", ">", 5.0)),
    # The paper's post-join UDF predicate f(R.num3, S.num3) > c.
    Comparison(">", FunctionCall("f", (col("R.num3"), col("S.num3"))), lit(50.0)),
    FunctionCall("f", (col("R.num3"), lit(7.0))),
    FunctionCall("nope", (col("R.num3"),)),          # unregistered UDF
]


def _outcome(action):
    """Value or error class of a callable, for exact-behaviour comparison."""
    try:
        return ("ok", action())
    except Exception as error:  # noqa: BLE001 - class equality is the contract
        return ("error", type(error))


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(st.integers(min_value=-100, max_value=100),
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    min_size=len(MERGED_LAYOUT), max_size=len(MERGED_LAYOUT)))
def test_every_fixture_expression_is_equivalent_compiled(values):
    slotted = tuple(values)
    environment = dict(zip(MERGED_LAYOUT.names, slotted))
    for expression in EXPRESSION_FIXTURES:
        interpreted = _outcome(lambda e=expression: e.evaluate(environment))
        compiled = _outcome(lambda e=expression: e.compile(MERGED_LAYOUT)(slotted))
        assert interpreted == compiled, f"{expression!r} diverged: " \
            f"interpreted={interpreted} compiled={compiled}"


def test_resolution_errors_surface_at_compile_time():
    layout = RowLayout(["R.num2", "S.num2", "R.pkey"])
    with pytest.raises(ExpressionError):
        col("missing").compile(layout)
    with pytest.raises(ExpressionError):
        col("num2").compile(layout)  # ambiguous across R and S
    # Qualified->bare and bare->qualified fallbacks resolve like evaluate().
    bare = RowLayout(["num2", "pkey"])
    assert col("R.num2").compile(bare)((1.5, 7)) == 1.5
    assert col("pkey").compile(layout)((0, 0, 9)) == 9


def test_compile_expression_passes_none_through():
    assert compile_expression(None, MERGED_LAYOUT) is None


def test_projection_errors_match_interpreted():
    layout = RowLayout(["a", "b"])
    with pytest.raises(SchemaError):
        layout.getter(["a", "zap"])
    with pytest.raises(SchemaError):
        project_row({"a": 1, "b": 2}, ["a", "zap"])
