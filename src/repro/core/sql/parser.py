"""Recursive-descent parser for the SQL front end.

Produces a :class:`SelectStatement` whose expressions reuse the engine's
:mod:`repro.core.expressions` trees directly, except for aggregate calls
(``count(*)``, ``sum(x)``...) which become :class:`AggregateCall` placeholders
that the planner later lifts into :class:`repro.core.query.AggregateSpec`
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Not,
    Or,
)
from repro.core.operators.aggregate import (
    AGGREGATE_FUNCTIONS,
    PARAMETERIZED_AGGREGATES,
)
from repro.core.sql.lexer import SQLLexer, Token
from repro.exceptions import SQLSyntaxError


@dataclass(frozen=True)
class AggregateCall(Expression):
    """Parse-level aggregate reference, e.g. ``count(*)`` or ``sum(R.weight)``."""

    function: str
    column: Optional[str]  # None means ``*``
    param: Optional[float] = None  # second argument of parameterized aggregates

    def compile_vector(self, layout):  # pragma: no cover - planner replaces these
        raise SQLSyntaxError("aggregate calls cannot be compiled per row")

    def columns_referenced(self):
        return {self.column} if self.column else set()


@dataclass
class SelectItem:
    """One item of the SELECT list: an expression with an optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass
class TableReference:
    """One entry of the FROM clause."""

    name: str
    alias: str


@dataclass
class SelectStatement:
    """Parsed form of a SELECT query."""

    select_items: List[SelectItem]
    tables: List[TableReference]
    where: Optional[Expression] = None
    group_by: List[str] = field(default_factory=list)
    having: Optional[Expression] = None
    limit: Optional[int] = None


class _Parser:
    """Token-stream cursor with the usual expect/accept helpers."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.index = 0

    # ------------------------------------------------------------ primitives

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.peek().matches(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            expected = value or kind
            raise SQLSyntaxError(
                f"expected {expected!r} but found {actual.value!r} at position {actual.position}"
            )
        return token

    # --------------------------------------------------------------- grammar

    def parse_statement(self) -> SelectStatement:
        self.expect("keyword", "SELECT")
        select_items = self.parse_select_list()
        self.expect("keyword", "FROM")
        tables = self.parse_table_list()
        where = None
        if self.accept("keyword", "WHERE"):
            where = self.parse_expression()
        group_by: List[str] = []
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            group_by = self.parse_column_list()
        having = None
        if self.accept("keyword", "HAVING"):
            having = self.parse_expression()
        limit = None
        if self.accept("keyword", "LIMIT"):
            limit = self.parse_limit()
        self.expect("eof")
        return SelectStatement(
            select_items=select_items,
            tables=tables,
            where=where,
            group_by=group_by,
            having=having,
            limit=limit,
        )

    def parse_limit(self) -> int:
        token = self.expect("number")
        if "." in token.value:
            raise SQLSyntaxError(
                f"LIMIT takes an integer, got {token.value!r} at position {token.position}"
            )
        value = int(token.value)
        if value <= 0:
            raise SQLSyntaxError(
                f"LIMIT must be positive, got {value} at position {token.position}"
            )
        return value

    def parse_select_list(self) -> List[SelectItem]:
        items = [self.parse_select_item()]
        while self.accept("operator", ","):
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self) -> SelectItem:
        expression = self.parse_expression()
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("identifier").value
        elif self.peek().kind == "identifier":
            alias = self.advance().value
        return SelectItem(expression=expression, alias=alias)

    def parse_table_list(self) -> List[TableReference]:
        tables = [self.parse_table_reference()]
        while self.accept("operator", ","):
            tables.append(self.parse_table_reference())
        return tables

    def parse_table_reference(self) -> TableReference:
        name = self.expect("identifier").value
        alias = name
        if self.accept("keyword", "AS"):
            alias = self.expect("identifier").value
        elif self.peek().kind == "identifier":
            alias = self.advance().value
        return TableReference(name=name, alias=alias)

    def parse_column_list(self) -> List[str]:
        columns = [self.parse_column_name()]
        while self.accept("operator", ","):
            columns.append(self.parse_column_name())
        return columns

    def parse_column_name(self) -> str:
        name = self.expect("identifier").value
        if self.accept("operator", "."):
            name = f"{name}.{self.expect('identifier').value}"
        return name

    # ----------------------------------------------------------- expressions

    def parse_expression(self) -> Expression:
        return self.parse_or()

    def parse_or(self) -> Expression:
        terms = [self.parse_and()]
        while self.accept("keyword", "OR"):
            terms.append(self.parse_and())
        return terms[0] if len(terms) == 1 else Or(terms)

    def parse_and(self) -> Expression:
        terms = [self.parse_not()]
        while self.accept("keyword", "AND"):
            terms.append(self.parse_not())
        return terms[0] if len(terms) == 1 else And(terms)

    def parse_not(self) -> Expression:
        if self.accept("keyword", "NOT"):
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expression:
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "operator" and token.value in ("=", "==", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            right = self.parse_additive()
            return Comparison(token.value, left, right)
        return left

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "operator" and token.value in ("+", "-"):
                self.advance()
                left = Arithmetic(token.value, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_primary()
        while True:
            token = self.peek()
            if token.kind == "operator" and token.value in ("*", "/"):
                self.advance()
                left = Arithmetic(token.value, left, self.parse_primary())
            else:
                return left

    def parse_primary(self) -> Expression:
        token = self.peek()
        if token.matches("keyword", "APPROX"):
            self.advance()
            name = self.expect("identifier").value
            if not self.peek().matches("operator", "("):
                raise SQLSyntaxError(
                    f"APPROX must prefix an aggregate call, found bare "
                    f"{name!r} at position {token.position}"
                )
            return self.parse_call(name, approx=True)
        if token.kind == "number":
            self.advance()
            text = token.value
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            self.advance()
            return Literal(token.value)
        if token.kind == "operator" and token.value == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect("operator", ")")
            return inner
        if token.kind == "identifier":
            return self.parse_identifier_expression()
        raise SQLSyntaxError(
            f"unexpected token {token.value!r} at position {token.position}"
        )

    def parse_identifier_expression(self) -> Expression:
        name = self.expect("identifier").value
        if self.peek().matches("operator", "("):
            return self.parse_call(name)
        if self.accept("operator", "."):
            column = self.expect("identifier").value
            return ColumnRef(f"{name}.{column}")
        return ColumnRef(name)

    def parse_call(self, name: str, approx: bool = False) -> Expression:
        self.expect("operator", "(")
        lowered = name.lower()
        if self.peek().matches("keyword", "DISTINCT"):
            distinct = self.advance()
            if lowered != "count":
                raise SQLSyntaxError(
                    f"DISTINCT is only supported inside COUNT(), not {name}() "
                    f"at position {distinct.position}"
                )
            column = self.parse_column_name()
            self.expect("operator", ")")
            function = "approx_count_distinct" if approx else "count_distinct"
            return AggregateCall(function, column)
        if approx:
            raise SQLSyntaxError(
                f"APPROX prefixes COUNT(DISTINCT column) only; call "
                f"approx_top_k()/approx_percentile() directly, not APPROX {name}()"
            )
        if self.peek().matches("operator", "*"):
            self.advance()
            self.expect("operator", ")")
            if lowered in AGGREGATE_FUNCTIONS:
                return AggregateCall(lowered, None)
            raise SQLSyntaxError(f"'*' argument only allowed for aggregates, not {name}()")
        arguments: List[Expression] = []
        if not self.peek().matches("operator", ")"):
            arguments.append(self.parse_expression())
            while self.accept("operator", ","):
                arguments.append(self.parse_expression())
        self.expect("operator", ")")
        if lowered in PARAMETERIZED_AGGREGATES:
            param_name = PARAMETERIZED_AGGREGATES[lowered]
            if (
                len(arguments) != 2
                or not isinstance(arguments[0], ColumnRef)
                or not isinstance(arguments[1], Literal)
                or isinstance(arguments[1].value, (bool, str))
            ):
                raise SQLSyntaxError(
                    f"aggregate {name}() takes (column, {param_name}) "
                    f"with a numeric literal {param_name}"
                )
            return AggregateCall(lowered, arguments[0].name, arguments[1].value)
        if lowered in AGGREGATE_FUNCTIONS:
            if len(arguments) != 1 or not isinstance(arguments[0], ColumnRef):
                raise SQLSyntaxError(
                    f"aggregate {name}() takes exactly one column argument"
                )
            return AggregateCall(lowered, arguments[0].name)
        return FunctionCall(lowered, tuple(arguments))


def parse_sql(text: str) -> SelectStatement:
    """Parse a SELECT statement into a :class:`SelectStatement`."""
    tokens = SQLLexer(text).tokenize()
    return _Parser(tokens).parse_statement()
