"""A join with GROUP BY, aggregated where it is probed, against the oracle.

Each join site folds the pairs it matches into partial aggregates and ships
those — not joined rows — to the initiator, which merges them.  Every
strategy (AUTO included) on CAN and Chord must return the groups of the
row-at-a-time reference (``tests/reference``) for every aggregate kind and
query shape.

Sums and averages (and derived columns over them) are compared with
``math.isclose``: partial sums add the same values in a different order, so
the last bits of a floating-point total may differ.  Every other value —
group keys, counts, minima, maxima, distinct counts, HyperLogLog estimates
(a register-wise max, so merging is exact) — must be equal.
"""

from __future__ import annotations

import math

import pytest

from repro.core import costmodel
from repro.core.executor import QueryExecutor
from repro.core.plan import build_final_aggregation
from repro.core.query import JoinStrategy
from repro.core.stats import StatsRegistry
from repro.net.message import HEADER_BYTES
from repro.workloads import NetworkMonitoringWorkload
from tests.conftest import build_pier
from tests.reference import all_rows, evaluate_query

JOIN = "FROM intrusions I, reputation R WHERE R.address = I.address"

SHAPES = {
    "every_aggregate_with_residual": (
        "SELECT I.fingerprint, count(*) AS cnt, sum(R.weight) AS total, "
        "avg(R.weight) AS mean, min(I.port) AS low, max(I.timestamp) AS high, "
        "count(DISTINCT I.port) AS ports, "
        "APPROX COUNT(DISTINCT I.address) AS sources "
        f"{JOIN} AND I.timestamp > R.weight * 5 GROUP BY I.fingerprint"),
    "derived_column_with_having": (
        "SELECT I.fingerprint, I.port, count(*) * sum(R.weight) AS wcnt "
        f"{JOIN} GROUP BY I.fingerprint, I.port HAVING wcnt > 4"),
    "limit_on_groups": (
        "SELECT I.fingerprint, count(*) AS cnt, max(R.weight) AS heaviest "
        f"{JOIN} GROUP BY I.fingerprint LIMIT 3"),
}

WAGG = ("SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt "
        "FROM intrusions I, reputation R "
        "WHERE R.address = I.address AND I.port = 22 "
        "GROUP BY I.fingerprint HAVING wcnt > 10")


def monitoring_deployment(dht: str, intrusions_per_node: int = 40):
    workload = NetworkMonitoringWorkload(
        num_nodes=16, intrusions_per_node=intrusions_per_node, seed=5)
    pier = build_pier(16, dht=dht)
    tables = {}
    for relation, by_node in ((workload.intrusions, workload.intrusions_by_node),
                              (workload.reputation, workload.reputation_by_node)):
        pier.load_relation(relation, by_node)
        tables[relation.name] = all_rows(by_node)
    return pier, pier.client(catalog=workload.catalog()), tables


@pytest.fixture(scope="module", params=["can", "chord"])
def deployment(request):
    return monitoring_deployment(request.param, intrusions_per_node=12)


def assert_same_groups(rows, expected, query):
    """``rows`` are groups of ``expected``, value for value."""
    group_by = query.group_by
    float_sums = {aggregate.alias for aggregate in query.aggregates
                  if aggregate.function in ("sum", "avg")}
    float_sums.update(query.derived_columns)
    by_key = {tuple(row[column] for column in group_by): row for row in expected}
    keys = [tuple(row[column] for column in group_by) for row in rows]
    assert len(set(keys)) == len(keys)
    for key, row in zip(keys, rows):
        want = by_key[key]
        assert row.keys() == want.keys()
        for name, value in row.items():
            if name in float_sums:
                assert math.isclose(value, want[name], rel_tol=1e-9), (key, name)
            else:
                assert value == want[name], (key, name)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("strategy", list(JoinStrategy), ids=lambda s: s.value)
def test_grouped_join_matches_the_oracle(deployment, strategy, shape):
    _pier, client, tables = deployment
    cursor = client.sql(SHAPES[shape], strategy=strategy)
    rows = cursor.fetchall()
    query = cursor.query
    expected = evaluate_query(query, tables)
    assert expected
    assert_same_groups(rows, expected, query)
    if query.limit is None:
        assert len(rows) == len(expected)
    else:
        assert len(rows) == min(query.limit, len(expected))
    if shape == "every_aggregate_with_residual":
        # The result count is still the joined rows, not partial records.
        assert cursor.completeness().result_rows == sum(
            row["cnt"] for row in expected)
    assert all("groups" in record for record in cursor.rows)


def test_wagg_ships_partials_and_keeps_its_counts(monkeypatch):
    """The monitoring dashboard's weighted summary on a fixed 16-node Chord
    deployment: ``pier.result`` carries exactly the partial records' sizes,
    and the joined-row count and the published join observation are the
    ones shipping joined rows produced."""
    delivered = []
    on_result = QueryExecutor._on_result

    def record(self, node, message):
        delivered.append(message)
        return on_result(self, node, message)

    monkeypatch.setattr(QueryExecutor, "_on_result", record)
    pier, client, tables = monitoring_deployment("chord")
    stats = pier.network.stats
    cursor = client.sql(WAGG)
    rows = cursor.fetchall()
    query = cursor.query
    assert_same_groups(rows, evaluate_query(query, tables), query)

    shipped = 0
    for message in delivered:
        (partial_record,) = message.payload["rows"]
        merged = build_final_aggregation(query)
        for group_key, payloads in partial_record["groups"]:
            merged.merge_partial(group_key, payloads)
        shipped += HEADER_BYTES + sum(merged.partial_sizes().values())
    assert delivered and stats.bytes_for_protocol("pier.result") == shipped

    # Recorded while join sites still shipped 127 joined rows (133 168 B).
    assert cursor.completeness().result_rows == 127
    observations = []
    StatsRegistry().fetch_join_observation(
        pier.provider(5), costmodel.query_join_signature(query),
        observations.append)
    pier.run_until_idle()
    (observation,) = observations
    assert (observation.selectivity, observation.result_rows) == (0.0744140625, 127)
