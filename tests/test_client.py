"""End-to-end tests for the PierClient session API.

The acceptance bar: every join strategy and aggregation runs through
``PierClient.sql(...)`` via the operator-graph interpreter and returns the
workload's golden answer / the ``tests/reference`` oracle's rows, under both
CAN and Chord; and a mid-flight ``cancel()`` stops result delivery and
leaves no per-node query state behind.
"""

import pytest

from repro import JoinStrategy
from repro.core.sql import SQLPlanner
from repro.workloads import NetworkMonitoringWorkload
from tests.conftest import build_pier, build_workload, load_join_tables
from tests.reference import all_rows, evaluate_query, row_multiset

AGG_SQL = (
    "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
    "GROUP BY I.fingerprint"
)


def client_setup(num_nodes=12, dht="can", **workload_overrides):
    workload = build_workload(num_nodes, **workload_overrides)
    pier = build_pier(num_nodes, dht=dht)
    load_join_tables(pier, workload)
    return pier, workload, pier.client(catalog=workload.catalog())


def assert_no_query_state(pier, query, expect_empty_storage=True):
    """No executor state, probes, subscriptions or temp fragments anywhere.

    After a *mid-flight* cancel, fragments still in flight when the teardown
    passed them land in storage with nobody listening; those are reclaimed
    by soft-state expiry, so pass ``expect_empty_storage=False`` and the
    check instead asserts they are dead after the query's lifetime.
    """
    rehash = query.rehash_namespace()
    for address in range(pier.num_nodes):
        executor = pier.executor(address)
        provider = pier.provider(address)
        assert not executor.has_query_state(query.query_id), (
            f"node {address} still holds state for query {query.query_id}"
        )
        assert provider.new_data_callback_count(rehash) == 0
        if expect_empty_storage:
            assert provider.storage.count(rehash) == 0
    if not expect_empty_storage:
        # Straggler fragments are soft state: dead once their lifetime ends.
        after_expiry = pier.now + query.temp_lifetime_s + 1.0
        pier.run(until=after_expiry)
        for address in range(pier.num_nodes):
            live = pier.provider(address).storage.count(rehash, now=pier.now)
            assert live == 0, f"node {address} still holds live fragments"


# --------------------------------------------------------------- equivalence


@pytest.mark.parametrize("dht", ["can", "chord"])
@pytest.mark.parametrize("strategy", list(JoinStrategy))
def test_sql_cursor_matches_the_golden_result(strategy, dht):
    pier, workload, client = client_setup(12, dht=dht)
    cursor = client.sql(workload.sql_text(), strategy=strategy)
    rows = cursor.fetchall()

    expected = workload.expected_results()
    assert expected
    assert row_multiset(rows) == row_multiset(expected)
    assert cursor.closed
    assert_no_query_state(pier, cursor.query)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_sql_aggregation_matches_the_oracle(dht):
    workload = NetworkMonitoringWorkload(num_nodes=16, seed=5)
    expected = evaluate_query(
        SQLPlanner(workload.catalog()).plan_sql(AGG_SQL),
        {workload.intrusions.name: all_rows(workload.intrusions_by_node)})

    pier = build_pier(16, dht=dht)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    client = pier.client(catalog=workload.catalog())
    rows = client.sql(AGG_SQL).fetchall()

    assert expected
    assert row_multiset(rows) == row_multiset(expected)


def test_client_can_initiate_from_any_node():
    pier, workload, _client = client_setup(12)
    client = pier.client(node=7, catalog=workload.catalog())
    rows = client.sql(workload.sql_text()).fetchall()
    assert len(rows) == len(workload.expected_results())


# ----------------------------------------------------------------- streaming


def test_fetch_k_drives_the_simulation_partially():
    pier, workload, client = client_setup(16, s_tuples_per_node=3)
    cursor = client.sql(workload.sql_text())
    first = cursor.fetch(3)
    assert len(first) == 3
    assert not cursor.closed
    # The query is still running: more rows arrive when we keep driving.
    rest = cursor.fetchall()
    assert len(rest) == len(workload.expected_results())
    assert len(rest) > 3


def test_iteration_streams_all_rows_in_arrival_order():
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text())
    streamed = list(cursor)
    assert streamed == cursor.rows
    assert len(streamed) == len(workload.expected_results())


def test_cursor_reports_arrival_metrics():
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text())
    cursor.fetchall()
    assert cursor.time_to_kth(1) is not None
    assert cursor.time_to_last() >= cursor.time_to_kth(1)
    assert len(cursor.arrival_times()) == cursor.result_count


# -------------------------------------------------------------------- cancel


def test_mid_flight_cancel_stops_delivery_and_clears_state():
    pier, workload, client = client_setup(16, s_tuples_per_node=3)
    cursor = client.sql(workload.sql_text())
    # Drive until the first result arrives, then cancel mid-flight.
    cursor.fetch(1)
    delivered_at_cancel = cursor.result_count
    assert delivered_at_cancel >= 1
    cursor.cancel()
    pier.run_until_idle()
    assert cursor.cancelled and cursor.closed
    # No further rows were delivered after the cancel...
    assert cursor.result_count == delivered_at_cancel
    assert cursor.result_count < len(workload.expected_results())
    # ... and every node released the query's state (stragglers expire).
    assert_no_query_state(pier, cursor.query, expect_empty_storage=False)


def test_cancel_before_any_result_leaves_no_state():
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text(), strategy=JoinStrategy.BLOOM)
    pier.run(until=0.2)  # dissemination under way, no results yet
    cursor.cancel()
    pier.run_until_idle()
    assert cursor.result_count == 0
    assert_no_query_state(pier, cursor.query, expect_empty_storage=False)
