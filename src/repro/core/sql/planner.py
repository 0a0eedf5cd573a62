"""Planner: SELECT statements → :class:`repro.core.query.QuerySpec`.

The planner resolves table names against a catalog, classifies WHERE
conjuncts into per-table local selections, the equi-join clause and residual
(post-join) predicates, lifts aggregate calls out of the SELECT list and
HAVING clause, and qualifies bare column names.  Physical strategy choice is
a separate concern: callers either force one of the four join algorithms via
the ``strategy`` knob (the benchmarks' A/B runs), or pass
``JoinStrategy.AUTO`` — the :class:`~repro.client.PierClient` default — and
the cost-based optimizer (:mod:`repro.core.costmodel`) resolves the spec
from DHT-published statistics before it is lowered.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.catalog import Catalog
from repro.core.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Not,
    Or,
)
from repro.core.query import (
    AggregateSpec,
    JoinClause,
    JoinStrategy,
    QuerySpec,
    TableRef,
)
from repro.core.sql.parser import AggregateCall, SelectStatement, parse_sql
from repro.exceptions import PlanError


class SQLPlanner:
    """Translates parsed SQL into executable query specifications."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # ------------------------------------------------------------------ API

    def plan_sql(self, text: str,
                 strategy: JoinStrategy = JoinStrategy.SYMMETRIC_HASH,
                 **query_options) -> QuerySpec:
        """Parse and plan a SQL string in one step."""
        return self.plan(parse_sql(text), strategy=strategy, **query_options)

    def plan(self, statement: SelectStatement,
             strategy: JoinStrategy = JoinStrategy.SYMMETRIC_HASH,
             **query_options) -> QuerySpec:
        """Plan a parsed statement into a :class:`QuerySpec`.

        ``query_options`` are forwarded to the QuerySpec constructor
        (e.g. ``result_tuple_bytes``, ``collection_window_s``).
        """
        tables = self._resolve_tables(statement)
        aliases = {table.alias: table for table in tables}

        local_predicates, join, residuals = self._classify_where(statement.where, aliases)
        aggregates: List[AggregateSpec] = []
        derived: Dict[str, Expression] = {}
        output_columns: List[str] = []
        counter = itertools.count()

        for item in statement.select_items:
            expression = item.expression
            if isinstance(expression, ColumnRef) and not self._contains_aggregate(expression):
                output_columns.append(self._qualify_column(expression.name, aliases))
                continue
            if isinstance(expression, AggregateCall):
                alias = item.alias or f"{expression.function}_{next(counter)}"
                column = (
                    self._qualify_column(expression.column, aliases)
                    if expression.column else None
                )
                aggregates.append(
                    AggregateSpec(expression.function, column, alias, expression.param)
                )
                continue
            if self._contains_aggregate(expression):
                alias = item.alias or f"expr_{next(counter)}"
                rewritten = self._lift_aggregates(expression, aggregates, aliases, counter)
                derived[alias] = rewritten
                continue
            raise PlanError(
                "SELECT items must be columns, aggregates, or expressions over aggregates"
            )

        group_by = [self._qualify_column(name, aliases) for name in statement.group_by]
        having = None
        if statement.having is not None:
            having = self._lift_aggregates(statement.having, aggregates, aliases, counter)

        is_join = join is not None
        if is_join and len(tables) != 2:
            raise PlanError("only two-table joins are supported")
        if not is_join and len(tables) > 1:
            raise PlanError("multi-table FROM clauses require an equi-join predicate")

        post_join = self._conjoin(residuals)

        if statement.limit is not None:
            # An explicit query option wins over the statement's LIMIT.
            query_options.setdefault("limit", statement.limit)

        if aggregates and is_join:
            # Join + aggregation: each join site folds its matched pairs into
            # partial aggregates, which the initiator merges; the join's
            # output must carry the grouping and aggregate input columns.
            needed = set(group_by)
            for aggregate in aggregates:
                if aggregate.column:
                    needed.add(aggregate.column)
            query_output = sorted(needed | set(output_columns))
            distributed_aggregation = False
        else:
            query_output = output_columns
            distributed_aggregation = bool(aggregates)

        query = QuerySpec(
            tables=tables,
            output_columns=query_output,
            local_predicates=local_predicates,
            join=join,
            post_join_predicate=post_join,
            group_by=group_by,
            aggregates=aggregates,
            having=having,
            strategy=strategy,
            distributed_aggregation=distributed_aggregation,
            **query_options,
        )
        query.derived_columns = derived
        return query

    # ------------------------------------------------------------ resolution

    def _resolve_tables(self, statement: SelectStatement) -> List[TableRef]:
        tables = []
        for reference in statement.tables:
            relation = self.catalog.lookup(reference.name)
            tables.append(TableRef(relation=relation, alias=reference.alias))
        if not tables:
            raise PlanError("query references no tables")
        return tables

    def _qualify_column(self, name: str, aliases: Dict[str, TableRef]) -> str:
        if "." in name:
            alias = name.split(".", 1)[0]
            if alias not in aliases:
                raise PlanError(f"column {name!r} references unknown alias {alias!r}")
            return name
        owners = [
            alias for alias, table in aliases.items()
            if table.relation.schema.has_column(name)
        ]
        if not owners:
            raise PlanError(f"column {name!r} not found in any referenced table")
        if len(owners) > 1:
            raise PlanError(f"column {name!r} is ambiguous across {sorted(owners)}")
        return f"{owners[0]}.{name}"

    # -------------------------------------------------------- WHERE analysis

    def _classify_where(self, where: Optional[Expression],
                        aliases: Dict[str, TableRef]
                        ) -> Tuple[Dict[str, Expression], Optional[JoinClause], List[Expression]]:
        local: Dict[str, List[Expression]] = {alias: [] for alias in aliases}
        join: Optional[JoinClause] = None
        residuals: List[Expression] = []
        for conjunct in self._flatten_conjuncts(where):
            conjunct = self._qualify_expression(conjunct, aliases)
            referenced = {
                name.split(".", 1)[0]
                for name in conjunct.columns_referenced()
                if "." in name
            }
            equi_join = self._as_equi_join(conjunct, aliases)
            if equi_join is not None and join is None:
                join = equi_join
            elif len(referenced) <= 1:
                alias = next(iter(referenced), None)
                if alias is None:
                    residuals.append(conjunct)
                else:
                    local[alias].append(conjunct)
            else:
                residuals.append(conjunct)
        local_predicates = {
            alias: self._conjoin(conjuncts)
            for alias, conjuncts in local.items()
            if conjuncts
        }
        return local_predicates, join, residuals

    @staticmethod
    def _flatten_conjuncts(expression: Optional[Expression]) -> List[Expression]:
        if expression is None:
            return []
        if isinstance(expression, And):
            return expression.flattened()
        return [expression]

    @staticmethod
    def _conjoin(conjuncts: List[Expression]) -> Optional[Expression]:
        if not conjuncts:
            return None
        if len(conjuncts) == 1:
            return conjuncts[0]
        return And(conjuncts)

    def _as_equi_join(self, expression: Expression,
                      aliases: Dict[str, TableRef]) -> Optional[JoinClause]:
        if not isinstance(expression, Comparison) or expression.op not in ("=", "=="):
            return None
        if not isinstance(expression.left, ColumnRef) or not isinstance(expression.right, ColumnRef):
            return None
        left = expression.left.name
        right = expression.right.name
        if "." not in left or "." not in right:
            return None
        left_alias, left_column = left.split(".", 1)
        right_alias, right_column = right.split(".", 1)
        if left_alias == right_alias:
            return None
        if left_alias not in aliases or right_alias not in aliases:
            return None
        return JoinClause(left_alias, left_column, right_alias, right_column)

    # --------------------------------------------------- expression rewriting

    def _qualify_expression(self, expression: Expression,
                            aliases: Dict[str, TableRef]) -> Expression:
        """Rewrite bare column references into qualified ones."""
        if isinstance(expression, ColumnRef):
            return ColumnRef(self._qualify_column(expression.name, aliases))
        if isinstance(expression, Comparison):
            return Comparison(
                expression.op,
                self._qualify_expression(expression.left, aliases),
                self._qualify_expression(expression.right, aliases),
            )
        if isinstance(expression, Arithmetic):
            return Arithmetic(
                expression.op,
                self._qualify_expression(expression.left, aliases),
                self._qualify_expression(expression.right, aliases),
            )
        if isinstance(expression, And):
            return And([self._qualify_expression(term, aliases) for term in expression.terms])
        if isinstance(expression, Or):
            return Or([self._qualify_expression(term, aliases) for term in expression.terms])
        if isinstance(expression, Not):
            return Not(self._qualify_expression(expression.term, aliases))
        if isinstance(expression, FunctionCall):
            return FunctionCall(
                expression.name,
                tuple(self._qualify_expression(argument, aliases) for argument in expression.args),
            )
        return expression

    def _contains_aggregate(self, expression: Expression) -> bool:
        if isinstance(expression, AggregateCall):
            return True
        if isinstance(expression, (Comparison, Arithmetic)):
            return self._contains_aggregate(expression.left) or self._contains_aggregate(expression.right)
        if isinstance(expression, (And, Or)):
            return any(self._contains_aggregate(term) for term in expression.terms)
        if isinstance(expression, Not):
            return self._contains_aggregate(expression.term)
        if isinstance(expression, FunctionCall):
            return any(self._contains_aggregate(argument) for argument in expression.args)
        return False

    def _lift_aggregates(self, expression: Expression,
                         aggregates: List[AggregateSpec],
                         aliases: Dict[str, TableRef],
                         counter) -> Expression:
        """Replace AggregateCall nodes with references to aggregate aliases."""
        if isinstance(expression, AggregateCall):
            column = (
                self._qualify_column(expression.column, aliases)
                if expression.column else None
            )
            for existing in aggregates:
                if (existing.function == expression.function
                        and existing.column == column
                        and getattr(existing, "param", None) == expression.param):
                    return ColumnRef(existing.alias)
            alias = f"{expression.function}_{next(counter)}"
            aggregates.append(
                AggregateSpec(expression.function, column, alias, expression.param)
            )
            return ColumnRef(alias)
        if isinstance(expression, Comparison):
            return Comparison(
                expression.op,
                self._lift_aggregates(expression.left, aggregates, aliases, counter),
                self._lift_aggregates(expression.right, aggregates, aliases, counter),
            )
        if isinstance(expression, Arithmetic):
            return Arithmetic(
                expression.op,
                self._lift_aggregates(expression.left, aggregates, aliases, counter),
                self._lift_aggregates(expression.right, aggregates, aliases, counter),
            )
        if isinstance(expression, And):
            return And([
                self._lift_aggregates(term, aggregates, aliases, counter)
                for term in expression.terms
            ])
        if isinstance(expression, Or):
            return Or([
                self._lift_aggregates(term, aggregates, aliases, counter)
                for term in expression.terms
            ])
        if isinstance(expression, Not):
            return Not(self._lift_aggregates(expression.term, aggregates, aliases, counter))
        if isinstance(expression, ColumnRef):
            # Could be a reference to an aggregate alias (e.g. HAVING cnt > 10)
            # or a grouping column; aggregate aliases pass through untouched.
            if any(expression.name == aggregate.alias for aggregate in aggregates):
                return expression
            if "." in expression.name or not self._is_known_column(expression.name, aliases):
                return expression
            return ColumnRef(self._qualify_column(expression.name, aliases))
        return expression

    def _is_known_column(self, name: str, aliases: Dict[str, TableRef]) -> bool:
        return any(table.relation.schema.has_column(name) for table in aliases.values())
