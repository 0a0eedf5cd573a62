"""Expression trees for predicates and scalar computation.

The paper's benchmark query uses simple comparison predicates, an equi-join
condition and an opaque user-defined function ``f(R.num3, S.num3)`` that can
only be evaluated after the join.  The network-monitoring examples add
arithmetic over aggregates (``count(*) * sum(R.weight)``).  This module
provides a small, explicit expression language covering those needs:

* :class:`ColumnRef` / :class:`Literal` — leaves;
* :class:`Comparison` — ``= != < <= > >=``;
* :class:`And` / :class:`Or` / :class:`Not` — boolean connectives;
* :class:`Arithmetic` — ``+ - * /``;
* :class:`FunctionCall` — calls into a registry of scalar UDFs.

An expression has one executable form.  :meth:`Expression.compile_vector`
takes a :class:`repro.core.tuples.RowLayout` and returns a chunk kernel: a
closure over ``(columns, length)`` that returns one result list, so a
thousand-row predicate is a handful of list comprehensions instead of a
thousand closure calls.  Every :class:`ColumnRef` resolves to a fixed slot at
compile time, so resolution (and ambiguity) errors surface at plan time.
Scan chains, join tails, Fetch Matches' fetched side, derived columns and
HAVING all run it.  ``And``/``Or`` keep per-row short-circuit semantics by
evaluating later terms only on the rows still alive (a selection vector), so
a row that fails an earlier conjunct never reaches a later one's errors.
Within one chunk evaluation is column-at-a-time, so when *multiple
independent* subexpressions would error on different rows, which of them
raises first may differ from row-major order — the error class for any
single failing site is the same.

What an expression *means* row by row — a walk of the tree over a dict — is
the oracle ``tests/reference/expressions.py``, which the kernels are
checked against.

``columns_referenced`` lets planners decide which predicates are local to one
table and which must wait until after the join.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.tuples import RowLayout
from repro.exceptions import ExpressionError

#: A vectorized expression: ``(columns, length) -> results`` over one chunk.
VectorExpression = Callable[[Sequence[List[Any]], int], List[Any]]

#: Registry of scalar user-defined functions usable in FunctionCall.
_UDF_REGISTRY: Dict[str, Callable[..., Any]] = {}


def register_udf(name: str, function: Callable[..., Any]) -> None:
    """Register a scalar UDF so queries can reference it by name."""
    _UDF_REGISTRY[name.lower()] = function


def udf(name: str) -> Callable[..., Any]:
    """Look up a registered UDF by name."""
    try:
        return _UDF_REGISTRY[name.lower()]
    except KeyError:
        raise ExpressionError(f"no UDF registered under {name!r}") from None


class Expression(ABC):
    """Base class of the expression tree."""

    @abstractmethod
    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        """Compile to a chunk kernel: ``(columns, length) -> result list``.

        Every :class:`ColumnRef` is resolved to a fixed slot of ``layout``
        here, once: unresolvable or ambiguous references raise
        :class:`ExpressionError` at compile (plan) time instead of on a row.
        """

    @abstractmethod
    def columns_referenced(self) -> Set[str]:
        """Every column name mentioned anywhere in the expression."""

    # Convenience constructors so tests and examples read naturally.
    def __and__(self, other: "Expression") -> "And":
        return And([self, other])

    def __or__(self, other: "Expression") -> "Or":
        return Or([self, other])

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        value = self.value
        return lambda _columns, n: [value] * n

    def columns_referenced(self) -> Set[str]:
        return set()

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column, optionally qualified (``"R.num2"``)."""

    name: str

    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        slot = layout.slot(self.name, ambiguity_error=ExpressionError)
        if slot is None:
            raise ExpressionError(
                f"row has no column {self.name!r} (row keys: {sorted(layout.names)})"
            )
        # Callers treat the returned column as read-only, so the chunk's own
        # value array is handed out without copying.
        return lambda columns, _n: columns[slot]

    def columns_referenced(self) -> Set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"ColumnRef({self.name!r})"


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _compile_binary_vector(op_fn: Callable[[Any, Any], Any],
                           left: Expression, right: Expression,
                           layout: RowLayout, as_bool: bool) -> VectorExpression:
    """Vectorize a binary node, special-casing the column-vs-constant shape
    (the dominant predicate form) to a single-column pass with no zip."""
    if isinstance(right, Literal) and not isinstance(left, Literal):
        left_vector = left.compile_vector(layout)
        constant = right.value
        if as_bool:
            return lambda columns, n: [
                bool(op_fn(value, constant)) for value in left_vector(columns, n)
            ]
        return lambda columns, n: [
            op_fn(value, constant) for value in left_vector(columns, n)
        ]
    if isinstance(left, Literal) and not isinstance(right, Literal):
        constant = left.value
        right_vector = right.compile_vector(layout)
        if as_bool:
            return lambda columns, n: [
                bool(op_fn(constant, value)) for value in right_vector(columns, n)
            ]
        return lambda columns, n: [
            op_fn(constant, value) for value in right_vector(columns, n)
        ]
    left_vector = left.compile_vector(layout)
    right_vector = right.compile_vector(layout)
    if as_bool:
        return lambda columns, n: [
            bool(op_fn(a, b))
            for a, b in zip(left_vector(columns, n), right_vector(columns, n))
        ]
    return lambda columns, n: [
        op_fn(a, b)
        for a, b in zip(left_vector(columns, n), right_vector(columns, n))
    ]


def _gather_columns(columns: Sequence[List[Any]],
                    indices: List[int]) -> List[List[Any]]:
    """Row-subset view of a chunk's columns (the selection-vector gather)."""
    return [[column[i] for i in indices] for column in columns]


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison between two sub-expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        return _compile_binary_vector(
            _COMPARATORS[self.op], self.left, self.right, layout, as_bool=True
        )

    def columns_referenced(self) -> Set[str]:
        return self.left.columns_referenced() | self.right.columns_referenced()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic between two sub-expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        return _compile_binary_vector(
            _ARITHMETIC[self.op], self.left, self.right, layout, as_bool=False
        )

    def columns_referenced(self) -> Set[str]:
        return self.left.columns_referenced() | self.right.columns_referenced()


@dataclass(frozen=True)
class And(Expression):
    """Conjunction of one or more predicates."""

    terms: Sequence[Expression]

    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        compiled = tuple(term.compile_vector(layout) for term in self.terms)
        if len(compiled) == 1:
            only = compiled[0]
            return lambda columns, n: [bool(value) for value in only(columns, n)]

        def vector(columns: Sequence[List[Any]], n: int) -> List[Any]:
            # Selection-vector evaluation: each later term sees only the rows
            # every earlier term passed, preserving the row pipeline's
            # short-circuit semantics (a row that fails term 1 never reaches
            # term 2, so it cannot trigger term 2's errors).
            mask = [bool(value) for value in compiled[0](columns, n)]
            for term in compiled[1:]:
                alive = [i for i, passed in enumerate(mask) if passed]
                if not alive:
                    break
                verdicts = term(_gather_columns(columns, alive), len(alive))
                for i, verdict in zip(alive, verdicts):
                    if not verdict:
                        mask[i] = False
            return mask

        return vector

    def columns_referenced(self) -> Set[str]:
        referenced: Set[str] = set()
        for term in self.terms:
            referenced |= term.columns_referenced()
        return referenced

    def flattened(self) -> List[Expression]:
        """All conjuncts, with nested :class:`And` nodes flattened."""
        conjuncts: List[Expression] = []
        for term in self.terms:
            if isinstance(term, And):
                conjuncts.extend(term.flattened())
            else:
                conjuncts.append(term)
        return conjuncts


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction of one or more predicates."""

    terms: Sequence[Expression]

    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        compiled = tuple(term.compile_vector(layout) for term in self.terms)
        if len(compiled) == 1:
            only = compiled[0]
            return lambda columns, n: [bool(value) for value in only(columns, n)]

        def vector(columns: Sequence[List[Any]], n: int) -> List[Any]:
            # Dual of And: later terms see only the rows still undecided
            # (every earlier term false), matching per-row short-circuit.
            mask = [bool(value) for value in compiled[0](columns, n)]
            for term in compiled[1:]:
                undecided = [i for i, passed in enumerate(mask) if not passed]
                if not undecided:
                    break
                verdicts = term(_gather_columns(columns, undecided), len(undecided))
                for i, verdict in zip(undecided, verdicts):
                    if verdict:
                        mask[i] = True
            return mask

        return vector

    def columns_referenced(self) -> Set[str]:
        referenced: Set[str] = set()
        for term in self.terms:
            referenced |= term.columns_referenced()
        return referenced


@dataclass(frozen=True)
class Not(Expression):
    """Negation of a predicate."""

    term: Expression

    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        term = self.term.compile_vector(layout)
        return lambda columns, n: [not value for value in term(columns, n)]

    def columns_referenced(self) -> Set[str]:
        return self.term.columns_referenced()


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Call to a registered scalar UDF, e.g. the paper's ``f(R.num3, S.num3)``."""

    name: str
    args: Sequence[Expression]

    def compile_vector(self, layout: RowLayout) -> VectorExpression:
        function = udf(self.name)  # unknown UDFs fail at plan time
        compiled = tuple(argument.compile_vector(layout) for argument in self.args)
        if len(compiled) == 1:
            only = compiled[0]
            return lambda columns, n: list(map(function, only(columns, n)))
        if len(compiled) == 2:  # the paper's f(R.num3, S.num3) shape
            first, second = compiled
            return lambda columns, n: list(
                map(function, first(columns, n), second(columns, n))
            )
        return lambda columns, n: [
            function(*values)
            for values in zip(*(argument(columns, n) for argument in compiled))
        ]

    def columns_referenced(self) -> Set[str]:
        referenced: Set[str] = set()
        for argument in self.args:
            referenced |= argument.columns_referenced()
        return referenced


# --------------------------------------------------------------------------
# Compilation helpers


def compile_vector_expression(expression: Optional[Expression],
                              layout: RowLayout) -> Optional[VectorExpression]:
    """Compile an optional expression against a layout (``None`` passes
    through), so "no predicate" needs no special case at the call sites."""
    if expression is None:
        return None
    return expression.compile_vector(layout)


# --------------------------------------------------------------------------
# Convenience constructors


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def compare(left: Any, op: str, right: Any) -> Comparison:
    """Build a comparison, wrapping bare values/column names automatically."""
    return Comparison(op, _wrap(left), _wrap(right))


def _wrap(value: Any) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        return ColumnRef(value)
    return Literal(value)


def tables_referenced(expression: Expression) -> Set[str]:
    """Table aliases mentioned by qualified column references."""
    aliases: Set[str] = set()
    for name in expression.columns_referenced():
        if "." in name:
            aliases.add(name.split(".", 1)[0])
    return aliases


# The paper's benchmark UDF: any deterministic function of the two join-side
# attributes works, since its role is only to force post-join evaluation.
register_udf("f", lambda x, y: (x + y) % 100)
