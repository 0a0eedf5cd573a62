"""Expression kernels and layouts against their row-at-a-time meaning.

The reference ``evaluate`` walks an expression over one dict row
(``tests/reference/expressions.py``); the engine's only form,
``compile_vector``, runs it over a chunk's columns.  The kernel must return
the reference's value for every row or fail with the same error class, and
resolution errors must surface when it is compiled.  Whole queries are
checked against a centralised oracle in ``tests/test_pipeline_oracle.py``.
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
    compile_vector_expression,
    lit,
)
from repro.core.opgraph import _compile_chain_kernel
from repro.core.query import JoinStrategy
from repro.core.tuples import RowLayout
from repro.exceptions import ExpressionError, SchemaError
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.reference import evaluate, project_row

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
    st.tuples(st.integers(min_value=-50, max_value=50),
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
              st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)),
    min_size=0, max_size=17))
def test_every_fixture_expression_is_equivalent_compiled(rows):
    """Per fixture: the kernel's value list is the reference's, row for row
    (empty chunks included), or both fail with the same error class."""
    # Widen the 3-wide hypothesis rows to the merged join layout.
    widened = [(a, b, c, a + 1, -a, b / 2.0, c * 3.0) for a, b, c in rows]
    columns = [[row[slot] for row in widened] for slot in range(len(MERGED_LAYOUT))]
    environments = [dict(zip(MERGED_LAYOUT.names, row)) for row in widened]
    probe = dict(zip(MERGED_LAYOUT.names, (1, 1.0, 1.0, 2, -1, 0.5, 3.0)))
    for expression in EXPRESSION_FIXTURES:
        try:
            kernel = expression.compile_vector(MERGED_LAYOUT)
        except ExpressionError:
            # Plan-time resolution error: the reference fails on any row.
            assert _outcome(lambda e=expression: evaluate(e, probe)) == (
                "error", ExpressionError), repr(expression)
            continue
        reference = _outcome(lambda e=expression: [
            evaluate(e, environment) for environment in environments])
        vector = _outcome(lambda k=kernel: list(k(columns, len(widened))))
        assert reference == vector, f"{expression!r} diverged: " \
            f"reference={reference} vector={vector}"


def test_resolution_errors_surface_at_compile_time():
    layout = RowLayout(["R.num2", "S.num2", "R.pkey"])
    with pytest.raises(ExpressionError):
        col("missing").compile_vector(layout)
    with pytest.raises(ExpressionError):
        col("num2").compile_vector(layout)  # ambiguous across R and S
    # Qualified->bare and bare->qualified fallbacks resolve like evaluate().
    bare = RowLayout(["num2", "pkey"])
    assert col("R.num2").compile_vector(bare)([[1.5], [7]], 1) == [1.5]
    assert col("pkey").compile_vector(layout)([[0], [0], [9]], 1) == [9]


def test_compile_vector_expression_passes_none_through():
    assert compile_vector_expression(None, MERGED_LAYOUT) is None


def test_projection_errors_match_interpreted():
    query = JoinWorkload(WorkloadConfig(num_nodes=4, seed=3)).make_query(
        strategy=JoinStrategy.SYMMETRIC_HASH)
    with pytest.raises(SchemaError):
        _compile_chain_kernel(query, "R", None, ["pkey", "zap"])
    with pytest.raises(SchemaError):
        project_row({"pkey": 1, "num2": 2}, ["pkey", "zap"])
