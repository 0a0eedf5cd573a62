"""What an expression means, one dict row at a time.

The engine runs expressions only as chunk kernels
(``Expression.compile_vector`` over a slotted layout).  This walk of the
tree over a *row environment* — a dict mapping column names, qualified like
``"R.num2"`` or bare like ``"num2"``, to values, resolved on every call — is
the oracle those kernels are checked against, and what the reference
operators and evaluator run.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.expressions import (
    _ARITHMETIC,
    _COMPARATORS,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Not,
    Or,
    udf,
)
from repro.exceptions import ExpressionError

Row = Dict[str, Any]


def resolve(name: str, row: Row) -> Any:
    """Value of a column reference: exact name, then qualified → bare, then
    bare → the one qualified column it is the suffix of."""
    if name in row:
        return row[name]
    if "." in name:
        bare = name.split(".", 1)[1]
        if bare in row:
            return row[bare]
    else:
        matches = [key for key in row if key.endswith("." + name)]
        if len(matches) == 1:
            return row[matches[0]]
        if len(matches) > 1:
            raise ExpressionError(
                f"ambiguous column reference {name!r}: {sorted(matches)}"
            )
    raise ExpressionError(f"row has no column {name!r} (row keys: {sorted(row)})")


def evaluate(expression: Expression, row: Row) -> Any:
    """Evaluate ``expression`` against one row environment."""
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        return resolve(expression.name, row)
    if isinstance(expression, Comparison):
        return bool(_COMPARATORS[expression.op](evaluate(expression.left, row),
                                                evaluate(expression.right, row)))
    if isinstance(expression, Arithmetic):
        return _ARITHMETIC[expression.op](evaluate(expression.left, row),
                                          evaluate(expression.right, row))
    if isinstance(expression, And):
        return all(evaluate(term, row) for term in expression.terms)
    if isinstance(expression, Or):
        return any(evaluate(term, row) for term in expression.terms)
    if isinstance(expression, Not):
        return not evaluate(expression.term, row)
    if isinstance(expression, FunctionCall):
        function = udf(expression.name)
        return function(*(evaluate(argument, row) for argument in expression.args))
    raise TypeError(f"not an expression node: {expression!r}")
