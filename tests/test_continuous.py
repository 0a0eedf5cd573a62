"""Tests for continuous (periodic, windowed) queries."""

import pytest

from repro.core.continuous import PeriodicQuery, SlidingWindowPredicate
from repro.core.expressions import Comparison, col, lit
from repro.core.query import AggregateSpec, QuerySpec, TableRef
from repro.workloads import NetworkMonitoringWorkload
from tests.conftest import build_pier
from tests.reference import evaluate


def test_sliding_window_predicate_bounds():
    window = SlidingWindowPredicate("ts", window_s=10.0)
    predicate = window.at(now=100.0)
    assert evaluate(predicate, {"ts": 95.0})
    assert not evaluate(predicate, {"ts": 80.0})


def test_sliding_window_combined_with_existing_predicate():
    window = SlidingWindowPredicate("ts", window_s=10.0)
    combined = window.combined_with(Comparison(">", col("v"), lit(5)), now=100.0)
    assert evaluate(combined, {"ts": 99.0, "v": 6})
    assert not evaluate(combined, {"ts": 99.0, "v": 1})
    assert not evaluate(combined, {"ts": 1.0, "v": 6})
    assert evaluate(window.combined_with(None, now=100.0), {"ts": 99.0})


def test_periodic_query_rejects_bad_period():
    workload = NetworkMonitoringWorkload(num_nodes=4, seed=1)
    pier = build_pier(4)
    query = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        aggregates=[AggregateSpec("count", None, "cnt")],
    )
    with pytest.raises(ValueError):
        PeriodicQuery(pier.executor(0), query, period_s=0.0)


def test_periodic_query_reexecutes_and_sees_new_data():
    workload = NetworkMonitoringWorkload(num_nodes=8, intrusions_per_node=3, seed=2)
    pier = build_pier(8)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)

    template = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        aggregates=[AggregateSpec("count", None, "cnt")],
        collection_window_s=3.0,
    )
    continuous = PeriodicQuery(pier.executor(0), template, period_s=20.0)
    continuous.start(immediate=True)

    # After the first window completes, publish more reports from node 1.
    def publish_more():
        provider = pier.provider(1)
        for index in range(5):
            provider.put("intrusions", 10_000 + index, None, {
                "report_id": 10_000 + index,
                "fingerprint": "fp-new",
                "address": "10.0.0.1",
                "port": 80,
                "timestamp": pier.now,
            }, item_bytes=120)

    pier.network.simulator.schedule(10.0, publish_more)
    pier.run(until=50.0)
    continuous.stop()
    pier.run(until=90.0)

    assert continuous.windows_executed >= 2
    first = continuous.handles[0].final_rows()
    later = continuous.handles[-1].final_rows()
    base_count = sum(len(rows) for rows in workload.intrusions_by_node.values())
    assert first[0]["cnt"] == base_count
    assert later[0]["cnt"] == base_count + 5


def test_periodic_query_each_window_gets_fresh_query_id():
    workload = NetworkMonitoringWorkload(num_nodes=4, seed=3)
    pier = build_pier(4)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    template = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        aggregates=[AggregateSpec("count", None, "cnt")],
        collection_window_s=2.0,
    )
    continuous = PeriodicQuery(pier.executor(0), template, period_s=15.0)
    continuous.start()
    pier.run(until=40.0)
    continuous.stop()
    pier.run(until=60.0)
    ids = [handle.query.query_id for handle in continuous.handles]
    assert len(ids) == len(set(ids))
    assert continuous.latest_handle() is continuous.handles[-1]


def test_windowed_periodic_query_only_counts_recent_rows():
    workload = NetworkMonitoringWorkload(num_nodes=6, intrusions_per_node=2, seed=4)
    pier = build_pier(6)
    # The simulation clock starts at 0, so give every report a timestamp far
    # in the past relative to the 10-second sliding window.
    for rows in workload.intrusions_by_node.values():
        for row in rows:
            row["timestamp"] = -100.0
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    template = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        aggregates=[AggregateSpec("count", None, "cnt")],
        collection_window_s=2.0,
    )
    continuous = PeriodicQuery(
        pier.executor(0), template, period_s=30.0,
        window=SlidingWindowPredicate("timestamp", window_s=10.0),
    )
    continuous.start()
    pier.run(until=25.0)
    continuous.stop()
    pier.run(until=40.0)
    rows = continuous.handles[0].final_rows()
    assert rows == [] or rows[0]["cnt"] == 0


def test_stop_tears_down_the_last_window_everywhere():
    """Each window is torn down when the next starts, and ``stop()`` tears
    down the last one: once its teardown is delivered no node holds state."""
    workload = NetworkMonitoringWorkload(num_nodes=8, intrusions_per_node=3, seed=5)
    pier = build_pier(8)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    template = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        aggregates=[AggregateSpec("count", None, "cnt")],
        collection_window_s=2.0,
    )
    continuous = PeriodicQuery(pier.executor(0), template, period_s=10.0)
    continuous.start()
    pier.run(until=35.0)
    assert continuous.windows_executed == 4
    newest = continuous.latest_handle().query.query_id
    assert {query_id for address in range(8)
            for query_id in pier.executor(address).active_query_ids()} == {newest}
    continuous.stop()
    pier.run_until_idle()
    for address in range(8):
        assert pier.executor(address).active_query_ids() == []
    total = sum(len(rows) for rows in workload.intrusions_by_node.values())
    assert all(handle.final_rows() == [{"cnt": total}]
               for handle in continuous.handles)
