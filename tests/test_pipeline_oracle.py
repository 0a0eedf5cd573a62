"""The engine against a centralised oracle: same rows, whatever the plan.

There is one execution pipeline, so there is no twin to compare it with;
instead every query shape runs distributed — each join strategy (``AUTO``
included) on CAN and on Chord, the unprojected join, flat / hierarchical /
initiator-side aggregation — and its result multiset is compared with
``tests/reference``: the same ``QuerySpec`` evaluated row-at-a-time, in one
place, over every loaded tuple (and with the workload's golden answer where
it has one).
"""

import pytest

from repro.core import opgraph
from repro.core.expressions import compare
from repro.core.opgraph import build_opgraph
from repro.core.query import JoinClause, JoinStrategy, QuerySpec, TableRef
from repro.core.sql import SQLPlanner
from repro.exceptions import ExpressionError
from repro.workloads import NetworkMonitoringWorkload
from tests.conftest import build_pier, build_workload, load_join_tables
from tests.reference import all_rows, evaluate_query, row_multiset


def loaded_join_deployment(num_nodes, dht="can"):
    """``(pier, workload, tables)`` with R and S loaded; ``tables`` feeds the oracle."""
    workload = build_workload(num_nodes)
    pier = build_pier(num_nodes, dht=dht)
    load_join_tables(pier, workload)
    tables = {workload.r_relation.name: all_rows(workload.r_by_node),
              workload.s_relation.name: all_rows(workload.s_by_node)}
    return pier, workload, tables


# ------------------------------------------------------------ join strategies


# ``list(JoinStrategy)`` deliberately includes AUTO: a cost-based plan must
# return the oracle's rows too.
@pytest.mark.parametrize("dht", ["can", "chord"])
@pytest.mark.parametrize("strategy", list(JoinStrategy))
def test_every_join_strategy_matches_the_oracle(strategy, dht):
    pier, workload, tables = loaded_join_deployment(16, dht)
    query = workload.make_query(strategy=strategy)
    rows = row_multiset(pier.client().query(query).fetchall())
    assert rows, "workload must produce rows for the comparison to bite"
    assert query.strategy in JoinStrategy.physical()
    assert rows == row_multiset(evaluate_query(query, tables))
    assert rows == row_multiset(workload.expected_results())


def test_unprojected_join_matches_the_oracle():
    """No predicates anywhere: every projected fragment pair reaches the tail."""
    pier, workload, tables = loaded_join_deployment(12)
    query = QuerySpec(
        tables=[TableRef(workload.r_relation, "R"),
                TableRef(workload.s_relation, "S")],
        output_columns=["R.pkey", "S.pkey", "S.num3"],
        join=JoinClause("R", "num1", "S", "pkey"),
    )
    rows = pier.client().query(query).fetchall()
    assert rows
    assert row_multiset(rows) == row_multiset(evaluate_query(query, tables))


def test_join_feeding_initiator_aggregation_matches_the_oracle():
    """Without an output list the merged qualified row crosses the boundary
    and is grouped at the initiator."""
    pier, workload, tables = loaded_join_deployment(12)
    query = SQLPlanner(workload.catalog()).plan_sql(
        "SELECT S.pkey, count(*) AS cnt, max(R.num3) AS hi FROM R, S "
        "WHERE R.num1 = S.pkey AND R.num2 > 20 GROUP BY S.pkey"
    )
    rows = pier.client().query(query).fetchall()
    assert rows
    assert row_multiset(rows) == row_multiset(evaluate_query(query, tables))


# -------------------------------------------------------------- aggregation


@pytest.mark.parametrize("variant", ["flat", "hierarchical"])
def test_aggregation_matches_the_oracle(variant):
    workload = NetworkMonitoringWorkload(num_nodes=20, seed=5)
    pier = build_pier(20)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    query = SQLPlanner(workload.catalog()).plan_sql(
        "SELECT I.fingerprint, count(*) AS cnt, max(I.port) AS hi "
        "FROM intrusions I GROUP BY I.fingerprint HAVING count(*) > 1"
    )
    query.hierarchical_aggregation = variant == "hierarchical"
    rows = pier.client().query(query).fetchall()
    assert rows
    expected = evaluate_query(
        query, {workload.intrusions.name: all_rows(workload.intrusions_by_node)})
    assert row_multiset(rows) == row_multiset(expected)


# ------------------------------------------------------------------ lowering


def bad_predicate_query(workload):
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    query.local_predicates["R"] = compare("no_such_column", ">", 1)
    return query


def test_bad_predicate_raises_expression_error_at_the_first_executor():
    """A predicate over a nonexistent column fails when the query reaches the
    first executor — while lowering, as ``ExpressionError``, before that node
    registers any state — not on some later row."""
    pier, workload, _tables = loaded_join_deployment(8)
    query = bad_predicate_query(workload)
    with pytest.raises(ExpressionError):
        pier.client().query(query)
    assert not any(executor.has_query_state(query.query_id)
                   for executor in pier.executors.values())


def test_planning_surfaces_walk_the_graph_without_lowering_it():
    """EXPLAIN, costing and namespace look-ups only need the boxes and arrows."""
    graph = build_opgraph(bad_predicate_query(build_workload(8)))
    assert graph.describe()
    assert graph.temp_namespaces()
    with pytest.raises(ExpressionError):
        _ = graph.artifacts


def test_only_the_graph_an_executor_runs_is_lowered(monkeypatch):
    """AUTO costs up to four candidate graphs; one is compiled, once, and
    every node of the deployment shares it."""
    lowered = []
    lower = opgraph._lower
    monkeypatch.setattr(opgraph, "_lower",
                        lambda graph: lowered.append(graph) or lower(graph))
    pier, workload, _tables = loaded_join_deployment(8)
    query = workload.make_query(strategy=JoinStrategy.AUTO)
    pier.client().query(query).fetchall()
    assert len(query.optimizer_report.costs) > 1
    assert lowered == [build_opgraph(query)]
