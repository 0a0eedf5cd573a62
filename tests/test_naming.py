"""Unit tests for DHT key derivation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.naming import (
    KEY_SPACE,
    hash_key,
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
    import pytest

    with pytest.raises(ValueError):
        key_to_unit_coordinates(123, 0)


def test_node_identifier_unique_for_small_populations():
    identifiers = {node_identifier(address) for address in range(2000)}
    assert len(identifiers) == 2000


# ------------------------------------------ prefix states vs one f-string hash

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
       dimensions=st.sampled_from([1, 2, 3]))
def test_unit_coordinates_match_the_whole_string_digest(key, dimensions):
    assert (key_to_unit_coordinates(key, dimensions)
            == reference.key_to_unit_coordinates(key, dimensions))
