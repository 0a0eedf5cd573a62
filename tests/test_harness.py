"""Tests for the experiment harness, analytical models and reporting helpers."""

import sys

import pytest

from repro.core import costmodel
from repro.exceptions import ExperimentError, SketchError
from repro.harness import (
    ChurnConfig,
    PierNetwork,
    SimulationConfig,
    analytical,
    format_series,
    format_table,
)
from repro.metrics.latency import summarize_latency
from repro.metrics.recall import recall
from repro.metrics.traffic import breakdown_traffic
from tests.conftest import build_pier, build_workload


# --------------------------------------------------------------------- config


def test_simulation_config_validation():
    with pytest.raises(ExperimentError):
        SimulationConfig(num_nodes=0)
    with pytest.raises(ExperimentError):
        SimulationConfig(num_nodes=4, topology="ring")
    with pytest.raises(ExperimentError):
        SimulationConfig(num_nodes=4, dht="pastry")


def test_pier_network_builds_all_services():
    pier = build_pier(8)
    assert pier.num_nodes == 8
    for address in range(8):
        assert pier.provider(address) is not None
        assert pier.executor(address) is not None
        assert pier.routings[address].zones


def test_infinite_bandwidth_config_uses_unbounded_links():
    pier = PierNetwork(SimulationConfig(num_nodes=4, bandwidth_bytes_per_s=None))
    assert pier.network.link(0).capacity_bytes_per_s == float("inf")


def test_topology_variants_construct():
    assert PierNetwork(SimulationConfig(num_nodes=6, topology="transit_stub")).num_nodes == 6
    assert PierNetwork(SimulationConfig(num_nodes=6, topology="cluster")).num_nodes == 6
    assert PierNetwork(SimulationConfig(num_nodes=6, dht="chord")).num_nodes == 6


# ----------------------------------------------------------------------- load


def test_fast_load_places_tuples_at_owner():
    pier = build_pier(8)
    workload = build_workload(8)
    loaded = pier.load_relation(workload.r_relation, workload.r_by_node)
    assert loaded == sum(len(rows) for rows in workload.r_by_node.values())
    for address in range(8):
        for item in pier.provider(address).lscan("R"):
            assert pier.owner_of("R", item.resource_id) == address


def test_slow_load_matches_fast_load_placement():
    workload = build_workload(6, s_tuples_per_node=1)
    fast = build_pier(6)
    fast.load_relation(workload.s_relation, workload.s_by_node, fast=True)
    slow = build_pier(6)
    slow.load_relation(workload.s_relation, workload.s_by_node, fast=False)
    for address in range(6):
        fast_keys = sorted(item.resource_id for item in fast.provider(address).lscan("S"))
        slow_keys = sorted(item.resource_id for item in slow.provider(address).lscan("S"))
        assert fast_keys == slow_keys


def assert_nothing_loaded(pier, relation):
    assert all(len(provider.storage) == 0 for provider in pier.providers.values())
    assert pier.relation_stats.get(relation.name) is None
    assert all(executor.stats.get(relation.name) is None
               for executor in pier.executors.values())
    assert all(not agent.records for agent in pier.renewal_agents.values())


def test_load_rejects_unknown_publisher():
    pier = build_pier(4)
    workload = build_workload(4)
    rows = workload.r_by_node[0]
    # A valid publisher ahead of the bad one: the load is refused whole.
    with pytest.raises(ExperimentError):
        pier.load_relation(workload.r_relation, {0: rows, 99: rows[:1]})
    assert_nothing_loaded(pier, workload.r_relation)


def test_load_rejects_rows_a_later_publisher_cannot_sketch():
    pier = build_pier(4)
    workload = build_workload(4)
    rows = workload.r_by_node[0]
    # Publisher 1's statistics fail only after publisher 0's were computed.
    bad = dict(workload.r_by_node[1][0], pad=("not", "a", "scalar"))
    with pytest.raises(SketchError):
        pier.load_relation(workload.r_relation, {0: rows, 1: [bad]})
    assert_nothing_loaded(pier, workload.r_relation)


def test_track_renewal_requires_agents():
    pier = build_pier(4)
    workload = build_workload(4)
    with pytest.raises(ExperimentError):
        pier.load_relation(workload.r_relation, workload.r_by_node, track_renewal=True)
    assert_nothing_loaded(pier, workload.r_relation)
    # Publisher 1 alone lacks an agent: publisher 0's rows stay unstored.
    pier.start_renewal_agents(30.0)
    del pier.renewal_agents[1]
    with pytest.raises(ExperimentError):
        pier.load_relation(workload.r_relation, workload.r_by_node, track_renewal=True)
    assert_nothing_loaded(pier, workload.r_relation)


# -------------------------------------------------------------------- cursors


def test_cursor_reports_latency_and_traffic(loaded_pier):
    pier, workload = loaded_pier
    start = pier.now
    cursor = pier.client().query(workload.make_query())
    rows = cursor.fetchall()
    latency = summarize_latency(cursor.handle)
    assert latency.result_count == len(rows) == len(workload.expected_results())
    assert latency.time_to_last > 0
    assert breakdown_traffic(pier.network.stats).total_bytes > 0
    assert pier.now > start


def test_finished_query_leaves_the_network_idle(loaded_pier):
    pier, workload = loaded_pier
    delivered = []
    for _ in range(2):
        pier.network.stats.reset()
        pier.client().query(workload.make_query()).fetchall()
        assert pier.network.simulator.pending_events == 0
        delivered.append(pier.network.stats.bytes_delivered)
    # Same query over the same data, counted per query: the same magnitude.
    assert delivered[1] < delivered[0] * 2


def test_cursor_timeout_stops_at_that_time(loaded_pier):
    pier, workload = loaded_pier
    start = pier.now
    cursor = pier.client().query(workload.make_query(), timeout_s=2.0)
    cursor.fetch(sys.maxsize)  # a teardown is sent, not yet delivered
    assert pier.now <= start + 2.0 + 1e-9


# ------------------------------------------------------------------ softstate


def churn_recalls(num_nodes, failure_rate_per_min, queries, seed=0):
    """Recall of the benchmark query on a churn deployment whose publishers
    renew every 30 s, each query scored against the reachable snapshot."""
    pier = build_pier(num_nodes, churn=ChurnConfig(
        failure_rate_per_min=failure_rate_per_min, seed=seed))
    workload = build_workload(num_nodes, s_tuples_per_node=2)
    pier.start_renewal_agents(30.0)
    for relation, by_node in ((workload.r_relation, workload.r_by_node),
                              (workload.s_relation, workload.s_by_node)):
        pier.load_relation(relation, by_node, lifetime=60.0, track_renewal=True)
    pier.run(until=pier.now + 20.0)
    client = pier.client(catalog=workload.catalog())
    recalls = []
    for _ in range(queries):
        expected = workload.expected_results(
            live_publishers=pier.reachable_snapshot())
        cursor = client.query(workload.make_query(), timeout_s=30.0)
        recalls.append(recall(cursor.fetchall(), expected))
        pier.run(until=pier.now + 10.0)
    return pier, recalls


def test_churn_deployment_reports_recall():
    pier, recalls = churn_recalls(24, failure_rate_per_min=4.0, queries=2, seed=3)
    assert len(recalls) == 2
    assert all(0.0 <= value <= 1.0 for value in recalls)
    assert pier.failure_injector.events, "churn injected no failures"


def test_churn_deployment_without_failures_has_perfect_recall():
    pier, recalls = churn_recalls(12, failure_rate_per_min=0.0, queries=1)
    assert recalls == [pytest.approx(1.0)]
    assert not pier.failure_injector.events


# ----------------------------------------------------------------- analytical


def test_can_hops_formula():
    assert costmodel.can_average_hops(1024, 2) == pytest.approx(16.0)
    assert costmodel.can_average_hops(1, 2) == 0.0
    assert costmodel.chord_average_hops(1024) == pytest.approx(5.0)


def test_lookup_and_multicast_latency_scale_with_n():
    assert costmodel.lookup_latency(4096) > costmodel.lookup_latency(256)
    assert costmodel.multicast_latency(4096) > costmodel.multicast_latency(256)
    # Paper: multicast reaches 1024 nodes in roughly 3 seconds.
    assert 2.0 <= costmodel.multicast_latency(1024) <= 4.5


def test_strategy_cost_ordering_matches_paper_table4():
    times = costmodel.predicted_strategy_times(1024)
    assert times["symmetric_hash"] <= times["fetch_matches"]
    assert times["fetch_matches"] < times["symmetric_semi_join"]
    assert times["symmetric_semi_join"] < times["bloom"]


def test_centralised_bandwidth_model():
    selected = analytical.selected_data_bytes(1_000_000_000, 0.5)
    one_node = analytical.inbound_bytes_per_computation_node(selected, 1024, 1)
    all_nodes = analytical.inbound_bytes_per_computation_node(selected, 1024, 1024)
    assert one_node > all_nodes
    assert all_nodes == pytest.approx(0.0)
    mbps = analytical.required_downlink_mbps(selected, 1024, 1, 60.0)
    # The paper quotes ~66 Mbps for answering within a minute.
    assert 50.0 <= mbps <= 80.0


def test_expected_recall_model():
    assert analytical.expected_recall(0.0, 60.0, 4096) == 1.0
    degraded = analytical.expected_recall(240.0, 60.0, 4096)
    assert 0.95 <= degraded < 1.0
    with pytest.raises(ValueError):
        analytical.expected_recall(10.0, 60.0, 0)


def test_analytical_validation_errors():
    with pytest.raises(ValueError):
        analytical.inbound_bytes_per_computation_node(1.0, 10, 0)
    with pytest.raises(ValueError):
        analytical.required_downlink_mbps(1.0, 10, 1, 0.0)


# ------------------------------------------------------------------ reporting


def test_format_table_alignment_and_missing_values():
    text = format_table("Title", [{"a": 1, "b": 2.5}, {"a": 10}])
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "a" in lines[1] and "b" in lines[1]
    assert "-" in lines[-1] or "10" in lines[-1]
    assert "10" in text


def test_format_series_renders_points():
    text = format_series("Curve", "n", "seconds", [(2, 0.5), (4, 0.75)])
    assert "n" in text and "seconds" in text
    assert "0.750" in text
