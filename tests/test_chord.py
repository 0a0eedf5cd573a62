"""Unit tests for the Chord routing layer."""

import statistics

import pytest

from repro.dht.chord import ChordNetworkBuilder, _in_interval
from repro.dht.naming import hash_key
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology


def build_chord_network(num_nodes, latency=0.05):
    network = SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=latency,
                                                capacity_bytes_per_s=float("inf")))
    builder = ChordNetworkBuilder()
    routings = builder.build_stabilized(network)
    return network, routings, builder


# ------------------------------------------------------------------ intervals


def test_in_interval_simple():
    assert _in_interval(5, 2, 8)
    assert not _in_interval(1, 2, 8)
    assert not _in_interval(8, 2, 8)
    assert _in_interval(8, 2, 8, inclusive_end=True)


def test_in_interval_wraparound():
    assert _in_interval(1, 200, 10)
    assert _in_interval(250, 200, 10)
    assert not _in_interval(100, 200, 10)


# ----------------------------------------------------------------- structure


def test_ring_successors_form_a_single_cycle():
    _network, routings, _builder = build_chord_network(20)
    start = 0
    seen = set()
    current = start
    for _ in range(20):
        seen.add(current)
        current = routings[current].successor
    assert current == start
    assert seen == set(range(20))


def test_predecessor_is_inverse_of_successor():
    _network, routings, _builder = build_chord_network(15)
    for address, routing in routings.items():
        assert routings[routing.successor].predecessor == address


def test_exactly_one_owner_per_key():
    _network, routings, builder = build_chord_network(18)
    for resource in range(60):
        key = hash_key("T", resource)
        owners = [address for address, routing in routings.items() if routing.owns(key)]
        assert len(owners) == 1
        assert owners[0] == builder.owner_of_key(key)


def test_neighbors_include_successor_and_fingers():
    _network, routings, _builder = build_chord_network(12)
    routing = routings[3]
    assert routing.successor in routing.neighbors()
    assert len(routing.neighbors()) >= 2


# ------------------------------------------------------------------- lookups


def test_lookup_resolves_to_owner():
    network, routings, builder = build_chord_network(30)
    key = hash_key("R", 999)
    results = []
    routings[5].lookup(key, results.append)
    network.run_until_idle()
    assert results == [builder.owner_of_key(key)]


def test_lookup_on_local_key_is_synchronous():
    network, routings, builder = build_chord_network(10)
    key = hash_key("R", 3)
    owner = builder.owner_of_key(key)
    results = []
    routings[owner].lookup(key, results.append)
    assert results == [owner]


def test_lookup_hops_scale_logarithmically():
    def mean_hops(num_nodes):
        network, routings, _builder = build_chord_network(num_nodes)
        for resource in range(40):
            routings[0].lookup(hash_key("L", resource), lambda owner: None)
        network.run_until_idle()
        return statistics.mean(routings[0].lookup_hops_observed or [0])

    hops_64 = mean_hops(64)
    hops_256 = mean_hops(256)
    assert hops_64 <= 8   # ~ 0.5 * log2(64) = 3, generous bound
    assert hops_256 <= 10
    assert hops_256 >= hops_64 * 0.8  # grows slowly


def test_all_sources_resolve_correct_owner():
    network, routings, builder = build_chord_network(25)
    checks = []
    for source in range(25):
        key = hash_key("Z", source * 13)
        expected = builder.owner_of_key(key)
        routings[source].lookup(
            key, lambda owner, expected=expected: checks.append(owner == expected)
        )
    network.run_until_idle()
    assert len(checks) == 25 and all(checks)


def test_mark_neighbor_dead_excludes_from_neighbors():
    _network, routings, _builder = build_chord_network(9)
    routing = routings[0]
    victim = routing.neighbors()[0]
    routing.mark_neighbor_dead(victim)
    assert victim not in routing.neighbors()
    routing.mark_neighbor_alive(victim)
    assert victim in routing.neighbors()


def test_owner_of_key_requires_build():
    with pytest.raises(RuntimeError):
        ChordNetworkBuilder().owner_of_key(123)
