"""Integration tests for distributed aggregation, SQL execution and monitoring queries."""

import sys

import pytest

from repro.core.query import AggregateSpec, JoinStrategy, QuerySpec, TableRef
from repro.core.sql import SQLPlanner
from repro.workloads import NetworkMonitoringWorkload
from tests.conftest import build_pier


def build_monitoring(num_nodes=20, **overrides):
    workload = NetworkMonitoringWorkload(num_nodes=num_nodes, seed=5, **overrides)
    pier = build_pier(num_nodes)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    pier.load_relation(workload.reputation, workload.reputation_by_node)
    pier.load_relation(workload.spam_gateways, workload.spam_by_node)
    pier.load_relation(workload.robots, workload.robots_by_node)
    return pier, workload, SQLPlanner(workload.catalog())


# --------------------------------------------------- distributed aggregation


def test_distributed_count_matches_golden_summary():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql(
        "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
        "GROUP BY I.fingerprint HAVING cnt > 10"
    )
    result = pier.client().query(query).fetchall()
    got = sorted((row["I.fingerprint"], row["cnt"]) for row in result)
    assert got == workload.expected_attack_summary(10)


def test_distributed_aggregation_without_having_returns_every_group():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql(
        "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I GROUP BY I.fingerprint"
    )
    result = pier.client().query(query).fetchall()
    golden_groups = {
        row["fingerprint"]
        for rows in workload.intrusions_by_node.values()
        for row in rows
    }
    assert {row["I.fingerprint"] for row in result} == golden_groups
    total = sum(row["cnt"] for row in result)
    assert total == sum(len(rows) for rows in workload.intrusions_by_node.values())


def test_min_max_avg_sum_aggregates_distributed():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql(
        "SELECT count(*) AS cnt, min(I.port) AS lo, max(I.port) AS hi, "
        "avg(I.port) AS mean, sum(I.port) AS total FROM intrusions I"
    )
    result = pier.client().query(query).fetchall()
    assert len(result) == 1
    row = result[0]
    ports = [r["port"] for rows in workload.intrusions_by_node.values() for r in rows]
    assert row["cnt"] == len(ports)
    assert row["lo"] == min(ports)
    assert row["hi"] == max(ports)
    assert row["total"] == sum(ports)
    assert row["mean"] == pytest.approx(sum(ports) / len(ports))


def test_hierarchical_aggregation_matches_flat_results():
    pier_flat, workload, planner = build_monitoring()
    sql = ("SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
           "GROUP BY I.fingerprint")
    flat = pier_flat.client().query(planner.plan_sql(sql)).fetchall()

    pier_tree, workload_tree, planner_tree = build_monitoring()
    tree_query = planner_tree.plan_sql(sql)
    tree_query.hierarchical_aggregation = True
    tree = pier_tree.client().query(tree_query).fetchall()

    flat_counts = {row["I.fingerprint"]: row["cnt"] for row in flat}
    tree_counts = {row["I.fingerprint"]: row["cnt"] for row in tree}
    assert flat_counts == tree_counts


def test_hierarchical_aggregation_reduces_group_owner_inbound_messages():
    """The combiner tree trades extra hops for lower fan-in at the group owner."""
    pier_flat, _workload, planner = build_monitoring(num_nodes=32)
    sql = "SELECT count(*) AS cnt FROM intrusions I"
    flat_query = planner.plan_sql(sql)
    # Read before the teardown is sent: its traffic is not counted.
    flat = pier_flat.client().query(flat_query).fetch(sys.maxsize)
    flat_owner = pier_flat.owner_of(flat_query.aggregation_namespace(), ("agg-l0", ()))
    # Partial aggregates travel as prov.put_chunk messages; the flat plan
    # must ship partials.
    flat_inbound_msgs = pier_flat.network.stats.protocol_messages.get(
        "prov.put_chunk", 0)

    pier_tree, _workload2, planner2 = build_monitoring(num_nodes=32)
    tree_query = planner2.plan_sql(sql)
    tree_query.hierarchical_aggregation = True
    tree = pier_tree.client().query(tree_query).fetch(sys.maxsize)

    assert flat[0]["cnt"] == tree[0]["cnt"]
    # Flat: every node puts its partial directly to the single group owner.
    flat_owner_inbound = pier_flat.network.stats.inbound_bytes.get(flat_owner, 0)
    tree_owner = pier_tree.owner_of(tree_query.aggregation_namespace(), ("agg-l0", ()))
    tree_owner_inbound = pier_tree.network.stats.inbound_bytes.get(tree_owner, 0)
    assert flat_inbound_msgs > 0
    assert tree_owner_inbound <= flat_owner_inbound


# ---------------------------------------------------------- initiator-side agg


def test_join_with_aggregation_computes_weighted_counts():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql(
        "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt "
        "FROM intrusions I, reputation R WHERE R.address = I.address "
        "GROUP BY I.fingerprint HAVING wcnt > 10"
    )
    result = pier.client().query(query).fetchall()
    # Golden computation: every intrusion joins its reporter's single
    # reputation row, so per fingerprint wcnt = count * sum(weight of reports).
    weights = {
        row["address"]: row["weight"]
        for rows in workload.reputation_by_node.values()
        for row in rows
    }
    golden = {}
    for rows in workload.intrusions_by_node.values():
        for row in rows:
            entry = golden.setdefault(row["fingerprint"], [0, 0.0])
            entry[0] += 1
            entry[1] += weights[row["address"]]
    expected = {
        fingerprint: count * total
        for fingerprint, (count, total) in golden.items()
        if count * total > 10
    }
    got = {row["I.fingerprint"]: row["wcnt"] for row in result}
    assert set(got) == set(expected)
    for fingerprint, value in expected.items():
        assert got[fingerprint] == pytest.approx(value)


def test_spam_gateway_robot_join_finds_compromised_sources():
    pier, workload, planner = build_monitoring(num_nodes=30)
    query = planner.plan_sql(
        "SELECT S.source FROM spamGateways AS S, robots AS R "
        "WHERE S.smtpGWDomain = R.clientDomain"
    )
    result = pier.client().query(query).fetchall()
    assert sorted({row["S.source"] for row in result}) == \
        workload.expected_compromised_sources()


# ---------------------------------------------------------------- scan query


def test_simple_scan_query_returns_selected_columns():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql("SELECT I.fingerprint FROM intrusions I WHERE I.port = 22")
    result = pier.client().query(query).fetchall()
    expected = [
        row["fingerprint"]
        for rows in workload.intrusions_by_node.values()
        for row in rows if row["port"] == 22
    ]
    assert sorted(row["I.fingerprint"] for row in result) == sorted(expected)
    for row in result:
        assert set(row) == {"I.fingerprint"}


# ------------------------------------------------------- hand-built QuerySpec


def test_hand_built_aggregation_query_without_sql():
    pier, workload, _planner = build_monitoring()
    query = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        group_by=["I.fingerprint"],
        aggregates=[AggregateSpec("count", None, "cnt")],
        strategy=JoinStrategy.SYMMETRIC_HASH,
    )
    result = pier.client(node=2).query(query).fetchall()
    total = sum(row["cnt"] for row in result)
    assert total == sum(len(rows) for rows in workload.intrusions_by_node.values())


# ------------------------------------------------- derived columns and HAVING


def test_derived_columns_and_having_match_the_reference():
    """Derived columns and HAVING run as kernels lowered against the
    aggregate output layout: a derived column may use an earlier one, HAVING
    may use a derived alias and a bare name of a qualified group column."""
    from repro.core.expressions import And, Arithmetic, Comparison, col, lit
    from tests.reference import all_rows, evaluate_query, row_multiset

    pier, workload, _planner = build_monitoring(num_nodes=8)
    query = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        group_by=["I.fingerprint"],
        aggregates=[AggregateSpec("count", None, "cnt"),
                    AggregateSpec("sum", "I.port", "total")],
        having=And([Comparison(">", col("per_report"), lit(100)),
                    Comparison("!=", col("fingerprint"), lit("none"))]),
        strategy=JoinStrategy.SYMMETRIC_HASH,
    )
    query.derived_columns = {
        "weighted": Arithmetic("*", col("cnt"), col("total")),
        "per_report": Arithmetic("/", col("weighted"), Arithmetic(
            "*", col("cnt"), col("cnt"))),
    }
    tables = {workload.intrusions.name: all_rows(workload.intrusions_by_node)}
    expected = evaluate_query(query, tables)
    everything = evaluate_query(
        QuerySpec(tables=query.tables, group_by=query.group_by,
                  aggregates=query.aggregates), tables)
    assert 0 < len(expected) < len(everything)
    rows = pier.client().query(query).fetchall()
    assert row_multiset(rows) == row_multiset(expected)


@pytest.mark.parametrize("sql", [
    "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
    "GROUP BY I.fingerprint HAVING nosuch > 10",
    "SELECT I.fingerprint, count(*) * nosuch AS w FROM intrusions I "
    "GROUP BY I.fingerprint",
], ids=["having", "derived"])
def test_an_unresolvable_post_aggregation_reference_fails_at_submit(sql):
    """HAVING and derived columns compile when the plan is lowered, before
    the flood: the error reaches the submitter, nothing is queued or sent,
    and the next query on the deployment returns exact rows."""
    from repro.exceptions import ExpressionError

    workload = NetworkMonitoringWorkload(num_nodes=8, seed=5)
    pier = build_pier(8, dht="chord")
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    client = pier.client(catalog=workload.catalog())
    simulator = pier.network.simulator
    pending, sent = simulator.pending_events, pier.network.stats.messages_sent
    with pytest.raises(ExpressionError):
        client.sql(sql)
    assert simulator.pending_events == pending
    assert pier.network.stats.messages_sent == sent
    assert client.executor.active_query_ids() == []

    rows = client.sql(
        "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
        "GROUP BY I.fingerprint HAVING cnt > 10").fetchall()
    got = sorted((row["I.fingerprint"], row["cnt"]) for row in rows)
    assert got == workload.expected_attack_summary(10)
