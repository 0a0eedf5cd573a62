"""Unit tests for DHT key derivation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dht.can import CanNetworkBuilder
from repro.dht.naming import (
    KEY_BITS,
    KEY_SPACE,
    hash_key,
    hash_keys,
    hash_namespace,
    key_to_unit_coordinates,
    node_identifier,
)
from tests.reference import naming as reference


def test_hash_key_is_deterministic():
    assert hash_key("R", 42) == hash_key("R", 42)


def test_hash_key_depends_on_namespace_and_resource():
    assert hash_key("R", 42) != hash_key("S", 42)
    assert hash_key("R", 42) != hash_key("R", 43)


def test_hash_key_within_key_space():
    for resource in (0, "abc", ("x", 1), 10**9):
        key = hash_key("ns", resource)
        assert 0 <= key < KEY_SPACE


def test_hash_key_accepts_tuple_resource_ids():
    assert hash_key("agg", ("agg-l0", ("fp", 3))) != hash_key("agg", ("agg-l1", ("fp", 3)))


def test_hash_namespace_differs_from_hash_key():
    assert hash_namespace("R") != hash_key("R", "R")


def test_key_to_unit_coordinates_range_and_determinism():
    key = hash_key("R", 7)
    coords = key_to_unit_coordinates(key, 3)
    assert len(coords) == 3
    assert all(0.0 <= value < 1.0 for value in coords)
    assert coords == key_to_unit_coordinates(key, 3)


def test_key_to_unit_coordinates_dimensions_are_independent():
    key = hash_key("R", 7)
    coords = key_to_unit_coordinates(key, 2)
    assert coords[0] != coords[1]


def test_key_to_unit_coordinates_rejects_bad_dimension():
    for dimensions in (0, -1, KEY_BITS + 1):
        with pytest.raises(ValueError):
            key_to_unit_coordinates(123, dimensions)


def test_coordinates_are_the_keys_bit_fields_most_significant_first():
    key = (0b101 << 125) | (0b11 << 62)  # field 0 reads .101, field 1 .11
    assert key_to_unit_coordinates(key, 2) == (0.625, 0.75)
    assert key_to_unit_coordinates(key, 1) == (0.625,)
    assert key_to_unit_coordinates(0xFF << 120, 8) == (255 / 256, 0.0, 0.0, 0.0,
                                                       0.0, 0.0, 0.0, 0.0)
    # d = 3 takes three 42-bit fields and ignores the last two bits.
    assert key_to_unit_coordinates(0b11, 3) == (0.0, 0.0, 0.0)


def test_keys_spread_evenly_over_a_64_zone_partition():
    """20 k keys: every zone of a 64-node CAN holds its share to within 30 %,
    and the two coordinates of a key are uncorrelated."""
    keys = hash_keys("balance", range(20_000))
    points = [key_to_unit_coordinates(key, 2) for key in keys]
    zones = CanNetworkBuilder(dimensions=2).partition(64)
    counts = [sum(zone.contains(point) for point in points) for zone in zones]
    assert sum(counts) == len(keys)
    share = len(keys) / len(zones)
    assert all(abs(count - share) < 0.3 * share for count in counts), counts
    xs, ys = zip(*points)
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in points)
    spread_x = sum((x - mean_x) ** 2 for x in xs) ** 0.5
    spread_y = sum((y - mean_y) ** 2 for y in ys) ** 0.5
    assert abs(covariance / (spread_x * spread_y)) < 0.02


def test_node_identifier_unique_for_small_populations():
    identifiers = {node_identifier(address) for address in range(2000)}
    assert len(identifiers) == 2000


# ---------------------------------- prefix states and shifts vs the plain way

resource_ids = st.recursive(
    st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
              st.text(), st.sampled_from(["\ud800", "a\udcffb", "\U0001f600"])),
    lambda inner: st.tuples(inner, inner), max_leaves=4)
namespace_names = st.one_of(st.text(max_size=12),
                            st.sampled_from(["R", "rehash_7", "ns\ud800", ""]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(namespace=namespace_names, resource_id=resource_ids)
def test_hash_key_matches_the_whole_string_digest(namespace, resource_id):
    assert hash_key(namespace, resource_id) == reference.hash_key(namespace, resource_id)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(key=st.integers(min_value=0, max_value=KEY_SPACE - 1),
       dimensions=st.sampled_from([1, 2, 3, 4, 5, 8, 53, 128]))
@example(key=KEY_SPACE - 1, dimensions=2)
@example(key=2**64 - 1024, dimensions=2)
def test_unit_coordinates_match_the_sliced_bit_string(key, dimensions):
    assert (key_to_unit_coordinates(key, dimensions)
            == reference.key_to_unit_coordinates(key, dimensions))
