"""Centralised, row-at-a-time evaluation of a ``QuerySpec``.

``ListScan → Selection → Qualify → SymmetricHashJoin → Projection →
Collector`` over every row of every referenced relation, plus
``GroupByAggregate`` and the reference ``evaluate`` for grouping, derived
columns and HAVING.  It knows nothing of strategies, exchanges or chunks —
whatever physical plan the engine picks must return this multiset.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.operators.aggregate import GroupByAggregate
from repro.core.query import QuerySpec
from tests.reference.expressions import evaluate
from tests.reference.operators import (
    Collector,
    ListScan,
    Operator,
    Projection,
    Qualify,
    Row,
    Selection,
    SymmetricHashJoin,
    chain,
)


def all_rows(rows_by_node: Mapping[int, Sequence[Row]]) -> List[Row]:
    """Every row of a relation, whichever node published it."""
    return [row for rows in rows_by_node.values() for row in rows]


def row_multiset(rows: Iterable[Row]) -> List[Tuple[Tuple[str, Any], ...]]:
    """Order-insensitive, duplicate-preserving view of result rows."""
    return sorted(tuple(sorted(row.items())) for row in rows)


def build_local_filter_pipeline(rows: Iterable[Row], predicate,
                                columns: Optional[Sequence[str]] = None
                                ) -> List[Row]:
    """Run an in-memory scan → select → (project) pipeline and return its rows."""
    scan = ListScan(rows)
    operators: List[Operator] = [scan, Selection(predicate)]
    if columns:
        operators.append(Projection(list(columns)))
    collector = Collector()
    operators.append(collector)
    chain(*operators)
    scan.run()
    return collector.rows


def _selected(query: QuerySpec, alias: str, rows: Sequence[Row]) -> List[Row]:
    """One table's rows after its local predicate, qualified by ``alias``."""
    scan = ListScan(rows)
    collector = Collector()
    chain(scan, Selection(query.local_predicates.get(alias)), Qualify(alias),
          collector)
    scan.run()
    return collector.rows


def evaluate_query(query: QuerySpec,
                   tables: Mapping[str, Sequence[Row]]) -> List[Row]:
    """Result rows of ``query`` over ``tables`` (relation name → all rows)."""
    selected = {
        table.alias: _selected(query, table.alias, tables[table.relation.name])
        for table in query.tables
    }
    collector = Collector()
    tail: List[Operator] = [collector]
    if query.output_columns and not query.is_aggregation:
        tail.insert(0, Projection(query.output_columns))
    if query.is_join:
        join = query.join
        left_key = f"{join.left_alias}.{join.left_column}"
        right_key = f"{join.right_alias}.{join.right_column}"
        joiner = SymmetricHashJoin(
            lambda row: row[left_key], lambda row: row[right_key],
            residual=query.post_join_predicate,
        )
        chain(joiner, *tail)
        for row in selected[join.left_alias]:
            joiner.push_left(row)
        for row in selected[join.right_alias]:
            joiner.push_right(row)
    else:
        chain(*tail).push_many(selected[query.tables[0].alias])
    if not query.is_aggregation:
        return collector.rows

    grouped = GroupByAggregate(
        group_by=query.group_by,
        aggregates=[(a.function, a.column, a.alias, a.param)
                    for a in query.aggregates],
    )
    for row in collector.rows:
        grouped.process(row)
    rows = []
    for row in grouped.result_rows():
        for alias, expression in query.derived_columns.items():
            row[alias] = evaluate(expression, row)
        if query.having is None or evaluate(query.having, row):
            rows.append(row)
    return rows
