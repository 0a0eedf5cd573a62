"""Node-local aggregation plan helpers shared by the executor's runners.

The distributed choreography lives in :mod:`repro.core.executor`, which
runs the physical operator graphs of :mod:`repro.core.opgraph`; this module
keeps the pieces of node-local plan logic that are shared between the
executor's aggregation runners and the initiator-side finalisation (the
group-by itself, derived columns, HAVING), plus a small plan-description
helper used by tests and examples.
"""

from __future__ import annotations

from typing import List

from repro.core.opgraph import build_opgraph
from repro.core.operators.aggregate import GroupByAggregate
from repro.core.query import QuerySpec


def build_final_aggregation(query: QuerySpec) -> GroupByAggregate:
    """The query's group-by: accumulates rows or merges partials.

    The one place the engine spells it out — scan chains and join sites
    build their partial aggregates from it, combiners, group owners and the
    initiator their merges.  HAVING and derived columns are *not* applied
    here — they are applied by :func:`finalize_aggregation_rows`, because
    derived columns (``count(*) * sum(w)``) must be computed before HAVING
    can be evaluated.
    """
    return GroupByAggregate(
        group_by=query.group_by,
        aggregates=[(a.function, a.column, a.alias, a.param)
                    for a in query.aggregates],
    )


def finalize_aggregation_rows(query: QuerySpec, final: GroupByAggregate) -> List[dict]:
    """Produce the query's final aggregate rows from a merged group-by.

    Runs the derived-column and HAVING kernels lowered with the query's plan
    (``build_opgraph(query).artifacts.finalize``) over the columns of
    :meth:`GroupByAggregate.result_rows`; the rows hold the grouping
    columns, aggregate aliases and derived aliases.
    """
    return build_opgraph(query).artifacts.finalize(final.result_rows())


def describe_plan(query: QuerySpec) -> List[str]:
    """Human-readable summary of the distributed plan (used by examples/docs)."""
    lines = [f"Query {query.query_id} ({query.strategy.value})"]
    for table in query.tables:
        predicate = query.local_predicates.get(table.alias)
        lines.append(
            f"  scan {table.relation.name} AS {table.alias}"
            + (f" WHERE {predicate!r}" if predicate is not None else "")
        )
    if query.join is not None:
        lines.append(
            f"  join on {query.join.left_alias}.{query.join.left_column} = "
            f"{query.join.right_alias}.{query.join.right_column}"
        )
    if query.post_join_predicate is not None:
        lines.append(f"  residual {query.post_join_predicate!r}")
    if query.group_by or query.aggregates:
        aggregates = ", ".join(
            f"{a.function}({a.column or '*'}) AS {a.alias}" for a in query.aggregates
        )
        lines.append(f"  group by {query.group_by} computing [{aggregates}]")
    if query.having is not None:
        lines.append(f"  having {query.having!r}")
    lines.append(f"  output {query.output_columns or '[aggregate rows]'}")
    return lines
