"""End-to-end approximate aggregation through the DHT aggregation tree.

The tentpole guarantees: ``APPROX COUNT(DISTINCT x)`` runs through the full
PierClient path on both DHT geometries, through flat hash grouping and the
hierarchical combiner tree — and every configuration produces the
*identical* estimate (the shared-seed HLL is exactly order-insensitive),
within 2 % of the exact answer.  Shipped partials stay constant-size as
input cardinality grows, which is the whole point of replacing the exact
distinct-value set.
"""

from __future__ import annotations

import sys

import pytest

from conftest import build_pier, build_workload, load_join_tables
from repro.workloads import NetworkMonitoringWorkload
from tests.reference import RowGroupBy


def run_sql(sql, dht="can", num_nodes=16, **query_options):
    pier = build_pier(num_nodes, dht=dht)
    workload = build_workload(num_nodes, s_tuples_per_node=4)
    load_join_tables(pier, workload)
    pier.run_until_idle()
    client = pier.client(catalog=workload.catalog())
    query = client.plan(sql, **query_options)
    rows = client.query(query).fetchall()
    return rows, pier, query, workload


def exact_distinct(workload, column="num1"):
    return len({
        row[column] for rows in workload.r_by_node.values() for row in rows
    })


# ----------------------------------------------------------- the acceptance


@pytest.mark.parametrize("dht", ["can", "chord"])
@pytest.mark.parametrize("hierarchical", [False, True])
def test_approx_count_distinct_end_to_end(dht, hierarchical):
    rows, _pier, _query, workload = run_sql(
        "SELECT APPROX COUNT(DISTINCT R.num1) AS d FROM R",
        dht=dht, hierarchical_aggregation=hierarchical,
    )
    truth = exact_distinct(workload)
    assert len(rows) == 1
    estimate = rows[0]["d"]
    assert abs(estimate - truth) / truth <= 0.02
    # The HLL merge is exactly order-insensitive, so every deployment shape
    # lands on one deterministic estimate for this workload.
    assert estimate == 102


def test_exact_count_distinct_end_to_end():
    rows, _pier, _query, workload = run_sql(
        "SELECT COUNT(DISTINCT R.num1) AS d FROM R"
    )
    assert rows == [{"d": exact_distinct(workload)}]


def test_approx_top_k_end_to_end():
    run = run_monitoring_sql(
        "SELECT APPROX_TOP_K(I.fingerprint, 3) AS top FROM intrusions I"
    )
    truth = {}
    for rows in run.workload.intrusions_by_node.values():
        for row in rows:
            truth[row["fingerprint"]] = truth.get(row["fingerprint"], 0) + 1
    expected = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    top = run.rows[0]["top"]
    assert len(top) == 3
    # Count-min over-estimates only; on this small vocabulary it is exact.
    assert sorted(top, key=lambda kv: (-kv[1], kv[0])) == expected


class MonitoringRun:
    def __init__(self, rows, workload):
        self.rows = rows
        self.workload = workload


def run_monitoring_sql(sql, num_nodes=16, **query_options):
    workload = NetworkMonitoringWorkload(num_nodes=num_nodes, seed=5)
    pier = build_pier(num_nodes)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    pier.run_until_idle()
    client = pier.client(catalog=workload.catalog())
    query = client.plan(sql, **query_options)
    return MonitoringRun(client.query(query).fetchall(), workload)


def test_approx_percentile_end_to_end():
    run = run_monitoring_sql(
        "SELECT APPROX_PERCENTILE(I.port, 0.5) AS med FROM intrusions I"
    )
    ports = sorted(
        row["port"]
        for rows in run.workload.intrusions_by_node.values()
        for row in rows
    )
    median = run.rows[0]["med"]
    # Ports repeat heavily, so the true rank of any value is an interval:
    # the estimate is a valid median if that interval brackets 0.5 (within
    # the sketch's rank error).
    below = sum(1 for p in ports if p < median) / len(ports)
    at_or_below = sum(1 for p in ports if p <= median) / len(ports)
    epsilon = 0.02
    assert below - epsilon <= 0.5 <= at_or_below + epsilon


def test_approx_group_by_with_having():
    run = run_monitoring_sql(
        "SELECT I.fingerprint, APPROX COUNT(DISTINCT I.address) AS sources, "
        "count(*) AS cnt "
        "FROM intrusions I GROUP BY I.fingerprint HAVING cnt >= 5"
    )
    truth_sources = {}
    truth_counts = {}
    for rows in run.workload.intrusions_by_node.values():
        for row in rows:
            key = row["fingerprint"]
            truth_sources.setdefault(key, set()).add(row["address"])
            truth_counts[key] = truth_counts.get(key, 0) + 1
    expected_groups = {k for k, c in truth_counts.items() if c >= 5}
    assert {row["I.fingerprint"] for row in run.rows} == expected_groups
    assert expected_groups  # HAVING actually filtered a non-trivial set
    for row in run.rows:
        truth = len(truth_sources[row["I.fingerprint"]])
        # Small per-group cardinalities: linear counting is near-exact.
        assert abs(row["sources"] - truth) <= max(1, 0.05 * truth)


# ------------------------------------------------- constant-size partials


def feed_distinct(function, n, param=None):
    operator = RowGroupBy(
        group_by=[], aggregates=[(function, "x", "d", param)]
    )
    for i in range(n):
        operator.process({"x": f"value-{i}"})
    return operator.partial_sizes()[()]


def test_sketch_partials_constant_exact_partials_grow():
    # By size: non-decreasing in cardinality, never above the dense partial
    # (24 + 9 + 4096 registers, plus the operator's envelope), equal to it
    # from the point where the sparse form stops being smaller.
    approx = [feed_distinct("approx_count_distinct", n)
              for n in (100, 1_000, 5_000, 20_000, 40_000)]
    assert approx == sorted(approx)
    assert approx[0] < approx[1] < approx[2] == approx[3] == approx[4]
    envelope = approx[-1] - (9 + 4096)  # what rides beside the registers
    assert 0 < approx[0] - envelope - (9 + 2) <= 3 * 100  # 3 bytes a value

    exact_small = feed_distinct("count_distinct", 100)
    exact_large = feed_distinct("count_distinct", 20_000)
    assert exact_large > 100 * exact_small  # the value set itself ships


def test_agg_bytes_accounting_sketch_vs_exact():
    """The executor's per-query shipped-bytes counters show the sketch
    shipping fewer bytes than the exact distinct-value sets (the ``param``
    knob sizes the HLL below the workload's per-node value sets, and rides
    the whole param-threading path: spec → wire → executor → state)."""
    from dataclasses import replace

    def total_shipped(sql, param=None):
        pier = build_pier(16)
        workload = build_workload(16, s_tuples_per_node=4)
        load_join_tables(pier, workload)
        pier.run_until_idle()
        client = pier.client(catalog=workload.catalog())
        query = client.plan(sql)
        if param is not None:
            query.aggregates = [replace(query.aggregates[0], param=param)]
        cursor = client.query(query)
        cursor.fetch(sys.maxsize)  # every row; not torn down yet
        shipped = 0
        for address in range(pier.num_nodes):
            counters = pier.executor(address).agg_bytes.get(query.query_id)
            if counters:
                shipped += counters["level0"] + counters["level1"]
        rows = cursor.fetchall()
        assert rows
        return shipped, rows[0]["d"]

    exact, truth = total_shipped("SELECT COUNT(DISTINCT R.num1) AS d FROM R")
    approx, estimate = total_shipped(
        "SELECT APPROX COUNT(DISTINCT R.num1) AS d FROM R", param=6
    )
    assert approx < exact
    # 64 registers still land within HLL's ~13 % standard error here.
    assert abs(estimate - truth) / truth <= 0.25


def test_agg_bytes_cleared_on_teardown():
    pier = build_pier(16)
    workload = build_workload(16, s_tuples_per_node=4)
    load_join_tables(pier, workload)
    pier.run_until_idle()
    cursor = pier.client(catalog=workload.catalog()).sql(
        "SELECT APPROX COUNT(DISTINCT R.num1) AS d FROM R")
    query = cursor.query
    assert cursor.fetch(sys.maxsize)  # every row; not torn down yet
    tracked = [
        address for address in range(pier.num_nodes)
        if query.query_id in pier.executor(address).agg_bytes
    ]
    assert tracked  # counters exist until the teardown is delivered
    assert cursor.fetchall()  # tears down and waits until idle
    for address in range(pier.num_nodes):
        assert query.query_id not in pier.executor(address).agg_bytes
