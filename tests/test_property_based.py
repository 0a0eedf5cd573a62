"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.core.bloom import BloomFilter
from repro.core.operators.aggregate import (
    AvgState,
    CountState,
    MaxState,
    MinState,
    SumState,
    state_from_payload,
)
from repro.dht.can import CanNetworkBuilder, Zone, _descend, _split_tree
from repro.dht.chord import _in_interval
from repro.dht.naming import KEY_SPACE, hash_key, key_to_unit_coordinates
from repro.dht.storage import StorageManager, StoredItem
from repro.metrics.recall import precision, recall
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology
from tests.reference import merge_rows, project_row, qualify


# ------------------------------------------------------------------- naming


@given(st.text(min_size=1, max_size=20), st.integers(min_value=0, max_value=10**12))
def test_hash_key_stays_in_key_space(namespace, resource):
    key = hash_key(namespace, resource)
    assert 0 <= key < KEY_SPACE


def edge_key_examples(test):
    """The keys whose fields are all ones (or nearly): a field wider than a
    double's mantissa must not round up to 1.0."""
    for key in (0, KEY_SPACE - 1, 2**64 - 1, 2**64 - 1024):
        for dimensions in (1, 2, 3, 4, 8):
            test = example(key, dimensions)(test)
    return test


@given(st.integers(min_value=0, max_value=KEY_SPACE - 1),
       st.integers(min_value=1, max_value=8))
@edge_key_examples
def test_key_coordinates_in_unit_cube(key, dimensions):
    coords = key_to_unit_coordinates(key, dimensions)
    assert len(coords) == dimensions
    assert all(0.0 <= coordinate < 1.0 for coordinate in coords)


# --------------------------------------------------------------------- bloom


@given(st.lists(st.integers(), max_size=200))
def test_bloom_never_has_false_negatives(values):
    bloom = BloomFilter(num_bits=4096, num_hashes=3)
    bloom.update(values)
    assert all(value in bloom for value in values)


@given(st.lists(st.integers(), max_size=80), st.lists(st.integers(), max_size=80))
def test_bloom_union_superset_of_members(left_values, right_values):
    left = BloomFilter(num_bits=2048, num_hashes=3)
    right = BloomFilter(num_bits=2048, num_hashes=3)
    left.update(left_values)
    right.update(right_values)
    merged = left.union(right)
    assert all(value in merged for value in left_values + right_values)


# ---------------------------------------------------------------- aggregates


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
       st.integers(min_value=0, max_value=60))
def test_aggregate_merge_matches_single_pass(values, split_point):
    split = min(split_point, len(values))
    for factory in (CountState, SumState, AvgState, MinState, MaxState):
        single = factory()
        for value in values:
            single.add(value)
        left, right = factory(), factory()
        for value in values[:split]:
            left.add(value)
        for value in values[split:]:
            right.add(value)
        left.merge(right)
        expected = single.result()
        actual = left.result()
        if isinstance(expected, float):
            assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9)
        else:
            assert actual == expected


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6), min_size=1, max_size=40))
def test_aggregate_payload_round_trip_preserves_result(values):
    for factory in (CountState, SumState, AvgState, MinState, MaxState):
        state = factory()
        for value in values:
            state.add(value)
        assert state_from_payload(state.to_payload()).result() == state.result()


# ------------------------------------------------------------------ CAN zones


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_can_partition_tiles_unit_cube(count, dimensions):
    builder = CanNetworkBuilder(dimensions=dimensions)
    zones = builder.partition(count)
    assert len(zones) == count
    total = sum(zone.volume() for zone in zones)
    assert math.isclose(total, 1.0, rel_tol=1e-9)
    # Balance: recursive bisection keeps zone volumes within a factor of two.
    volumes = [zone.volume() for zone in zones]
    assert max(volumes) <= 2.0 * min(volumes) + 1e-12


@given(st.integers(min_value=1, max_value=200),
       st.lists(st.floats(min_value=0.0, max_value=0.999999), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_can_locate_index_agrees_with_containment(count, point):
    zones = CanNetworkBuilder(dimensions=2).partition(count)
    index = _descend(_split_tree(2, count), tuple(point))
    assert zones[index].contains(tuple(point))


@given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=0.0, max_value=0.999))
def test_zone_split_partitions_points(x, y):
    zone = Zone.full_space(2)
    lower, upper = zone.split(0)
    assert lower.contains((x, y)) != upper.contains((x, y))


# -------------------------------------------------------------------- chord


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_chord_interval_membership_consistency(value, start, end):
    inside = _in_interval(value, start, end)
    inside_inclusive = _in_interval(value, start, end, inclusive_end=True)
    if inside:
        assert inside_inclusive
    if value == end and start != end:
        assert inside_inclusive and not inside


# ------------------------------------------------------------------- storage


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                          st.integers(min_value=0, max_value=5),
                          st.floats(min_value=0.0, max_value=200.0)),
                max_size=60))
def test_storage_expiry_never_returns_stale_items(entries):
    storage = StorageManager()
    for index, (resource, instance, expiry) in enumerate(entries):
        storage.store(StoredItem(
            namespace="ns", resource_id=resource, instance_id=instance,
            value=index, key=index, expires_at=expiry,
        ))
    now = 100.0
    for item in storage.scan("ns", now):
        assert item.expires_at >= now
    for resource in {resource for resource, _instance, _expiry in entries}:
        for item in storage.retrieve("ns", resource, now):
            assert item.expires_at >= now


@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=50),
       st.integers(min_value=0, max_value=10**6))
def test_storage_extract_install_preserves_items(keys, threshold):
    storage = StorageManager()
    for index, key in enumerate(keys):
        storage.store(StoredItem(
            namespace="ns", resource_id=index, instance_id=1, value=key,
            key=key, expires_at=1e9,
        ))
    before = len(storage)
    moved = storage.extract(lambda key: key >= threshold)
    assert len(storage) + len(moved) == before
    assert all(item.key >= threshold for item in moved)
    target = StorageManager()
    target.store_batch(moved)
    assert len(target) == len(moved)


# --------------------------------------------------------------------- links


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                          st.integers(min_value=0, max_value=100_000)),
                min_size=1, max_size=40))
def test_inbound_link_deliveries_are_monotone_and_causal(arrivals):
    # Zero latency: a message arrives at the link the instant it is sent.
    network = SimulatedNetwork(FullMeshTopology(2, latency_s=0.0,
                                                capacity_bytes_per_s=10_000.0))
    deliveries = []
    network.node(1).register_handler("x", lambda node, message: deliveries.append(
        (message.payload, network.now, network.stats.total_queueing_delay)))
    ordered = sorted(arrival_time for arrival_time, _ in arrivals)
    for (_, size), arrival_time in zip(arrivals, ordered):
        network.simulator.schedule_at(arrival_time, network.node(0).send, 1, "x",
                                      arrival_time, size)
    network.run_until_idle()
    assert [arrival_time for arrival_time, _, _ in deliveries] == ordered
    last_delivery = queued_so_far = 0.0
    for arrival_time, delivery, queued_total in deliveries:
        assert delivery >= arrival_time
        assert queued_total >= queued_so_far
        assert delivery >= last_delivery
        last_delivery, queued_so_far = delivery, queued_total


# --------------------------------------------------------------------- rows


@given(st.dictionaries(st.text(min_size=1, max_size=8).filter(lambda s: "." not in s),
                       st.integers(), max_size=8))
def test_qualify_then_project_round_trips(row):
    qualified = qualify("T", row)
    assert set(qualified) == {f"T.{name}" for name in row}
    back = project_row(qualified, list(qualified))
    assert back == qualified


@given(st.dictionaries(st.text(min_size=1, max_size=5), st.integers(), max_size=6),
       st.dictionaries(st.text(min_size=1, max_size=5), st.integers(), max_size=6))
def test_merge_rows_contains_all_keys(left, right):
    merged = merge_rows(left, right)
    assert set(merged) == set(left) | set(right)
    for key, value in right.items():
        assert merged[key] == value


# ------------------------------------------------------------------- metrics


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=40),
       st.lists(st.integers(min_value=0, max_value=30), max_size=40))
def test_recall_precision_bounds_and_extremes(actual_keys, expected_keys):
    actual = [{"k": key} for key in actual_keys]
    expected = [{"k": key} for key in expected_keys]
    observed_recall = recall(actual, expected)
    observed_precision = precision(actual, expected)
    assert 0.0 <= observed_recall <= 1.0
    assert 0.0 <= observed_precision <= 1.0
    if actual == expected:
        assert observed_recall == 1.0 and observed_precision == 1.0


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40))
def test_recall_of_subset_scales_with_size(expected_keys):
    expected = [{"k": key} for key in expected_keys]
    half = expected[: len(expected) // 2]
    assert recall(half, expected) <= 1.0
    assert precision(half, expected) == 1.0
