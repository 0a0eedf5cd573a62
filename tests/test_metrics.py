"""Unit tests for the latency, recall and traffic metrics."""

import pytest

from repro.core.executor import QueryHandle
from repro.core.query import QuerySpec, TableRef
from repro.core.tuples import Column, RelationDef, Schema
from repro.metrics.latency import summarize_latency
from repro.metrics.recall import precision, recall, recall_and_precision
from repro.metrics.traffic import breakdown_traffic
from repro.net.message import Message
from repro.net.stats import TrafficStats


def make_handle(arrival_times, submitted_at=10.0):
    relation = RelationDef("T", Schema([Column("x", "int")]))
    query = QuerySpec(tables=[TableRef(relation, "T")], output_columns=["T.x"])
    handle = QueryHandle(query, submitted_at=submitted_at)
    for index, time in enumerate(arrival_times):
        handle.record(time, {"T.x": index})
    return handle


# ------------------------------------------------------------------- latency


def test_query_handle_time_to_kth_and_last():
    handle = make_handle([11.0, 12.0, 15.0])
    assert handle.time_to_kth(1) == pytest.approx(1.0)
    assert handle.time_to_kth(3) == pytest.approx(5.0)
    assert handle.time_to_kth(4) is None
    assert handle.time_to_last() == pytest.approx(5.0)
    assert handle.arrival_times() == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(5.0)]


def test_summarize_latency_falls_back_to_last_when_fewer_than_k():
    handle = make_handle([11.0, 12.0])
    summary = summarize_latency(handle, k=30)
    assert summary.result_count == 2
    assert summary.time_to_kth == pytest.approx(2.0)
    assert summary.time_to_first == pytest.approx(1.0)
    assert summary.as_row()["results"] == 2


def test_summarize_latency_empty_handle():
    handle = make_handle([])
    summary = summarize_latency(handle)
    assert summary.result_count == 0
    assert summary.time_to_kth is None and summary.time_to_last is None


# -------------------------------------------------------------------- recall


def test_recall_and_precision_perfect_match():
    rows = [{"a": 1}, {"a": 2}]
    assert recall(rows, rows) == 1.0
    assert precision(rows, rows) == 1.0


def test_recall_counts_missing_rows():
    expected = [{"a": 1}, {"a": 2}, {"a": 3}, {"a": 4}]
    actual = [{"a": 1}, {"a": 2}, {"a": 3}]
    assert recall(actual, expected) == pytest.approx(0.75)
    assert precision(actual, expected) == 1.0


def test_precision_counts_spurious_rows():
    expected = [{"a": 1}]
    actual = [{"a": 1}, {"a": 99}]
    assert precision(actual, expected) == pytest.approx(0.5)
    assert recall(actual, expected) == 1.0


def test_recall_handles_duplicates_as_multisets():
    expected = [{"a": 1}, {"a": 1}]
    actual = [{"a": 1}]
    assert recall(actual, expected) == pytest.approx(0.5)
    # Returning the row twice when only one is expected hurts precision.
    assert precision([{"a": 1}, {"a": 1}], [{"a": 1}]) == pytest.approx(0.5)


def test_recall_of_empty_expectation_is_one():
    assert recall([], []) == 1.0
    assert precision([], []) == 1.0
    observed_recall, observed_precision = recall_and_precision([{"a": 1}], [])
    assert observed_recall == 1.0
    assert observed_precision == 0.0


def test_recall_is_insensitive_to_key_order():
    expected = [{"a": 1, "b": 2}]
    actual = [{"b": 2, "a": 1}]
    assert recall(actual, expected) == 1.0


def test_recall_matches_numerically_equal_rows():
    """Regression: ``1`` vs ``1.0`` compared by repr never matched, so a
    pipeline emitting floats was under-reported against an int golden set."""
    actual = [{"a": 1, "b": 2.5}]
    expected = [{"a": 1.0, "b": 2.5}]
    assert recall(actual, expected) == 1.0
    assert precision(actual, expected) == 1.0
    observed_recall, observed_precision = recall_and_precision(
        [{"a": 0.0}], [{"a": 0}]
    )
    assert observed_recall == 1.0
    assert observed_precision == 1.0


def test_recall_value_comparison_is_type_aware():
    # Values that merely print alike must stay distinct...
    assert recall([{"a": "1"}], [{"a": 1}]) == 0.0
    assert recall([{"a": True}], [{"a": 1}]) == 0.0
    assert recall([{"a": "None"}], [{"a": None}]) == 0.0
    # ... while genuinely equal typed values keep matching.
    assert recall([{"a": True}], [{"a": True}]) == 1.0
    assert recall([{"a": None}], [{"a": None}]) == 1.0
    assert recall([{"a": "x"}], [{"a": "x"}]) == 1.0


# ------------------------------------------------------------------- traffic


def test_breakdown_traffic_categorises_by_protocol_prefix():
    stats = TrafficStats()
    stats.record_delivery(Message(src=0, dst=1, protocol="can.route", payload_bytes=40))
    stats.record_delivery(Message(src=0, dst=1, protocol="prov.put", payload_bytes=940))
    stats.record_delivery(Message(src=0, dst=1, protocol="mc.flood", payload_bytes=140))
    stats.record_delivery(Message(src=0, dst=2, protocol="pier.result", payload_bytes=1964))
    breakdown = breakdown_traffic(stats)
    assert breakdown.routing_bytes == 100
    assert breakdown.data_shipping_bytes == 1000
    assert breakdown.multicast_bytes == 200
    assert breakdown.result_bytes == 2024
    assert breakdown.total_bytes == 100 + 1000 + 200 + 2024
    # Node 1 received 1300 bytes, node 2 received 2024: the max is node 2.
    assert breakdown.max_inbound_bytes == 2024
    row = breakdown.as_row()
    assert row["total_mb"] == pytest.approx(breakdown.total_mb, abs=1e-3)
