"""Unit tests for the CAN routing layer: zones, routing, bulk build, and
nodes that own several zones."""

import pytest

from repro.core.costmodel import can_average_hops
from repro.dht.can import (CanNetworkBuilder, CanRouting, Zone, _descend,
                           _split_tree)
from repro.dht.naming import hash_key
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology


def build_can_network(num_nodes, dimensions=2, latency=0.05):
    network = SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=latency,
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


def test_zone_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        Zone((0.0, 0.0), (0.0, 1.0))


def test_zone_neighbor_detection():
    left = Zone((0.0, 0.0), (0.5, 1.0))
    right = Zone((0.5, 0.0), (1.0, 1.0))
    far = Zone((0.625, 0.0), (0.875, 0.5))  # a gap either way round
    assert left.is_neighbor(right)
    assert right.is_neighbor(left)
    assert not left.is_neighbor(far)
    # The space is a torus: a face at x = 1 meets one at x = 0.
    seam = Zone((0.75, 0.0), (1.0, 0.5))
    assert left.is_neighbor(seam)
    assert seam.is_neighbor(left)
    assert CanNetworkBuilder(dimensions=2).neighbor_map([left, seam]) == {
        0: [1], 1: [0]}


def test_zone_corner_only_contact_is_not_neighbor():
    a = Zone((0.0, 0.0), (0.5, 0.5))
    b = Zone((0.5, 0.5), (1.0, 1.0))
    # They touch only at corners, (0.5, 0.5) and across both seams:
    # abutting in both dimensions but overlapping in none.
    assert not a.is_neighbor(b)
    assert not b.is_neighbor(a)
    # The builder's sweep requires strict overlap in the other dimension:
    builder = CanNetworkBuilder(dimensions=2)
    neighbors = builder.neighbor_map([a, b])
    assert neighbors[0] == []


def test_zone_distance_to_point():
    zone = Zone((0.0, 0.0), (0.5, 0.5))
    assert zone.distance_to_point((0.25, 0.25)) == 0.0
    assert zone.distance_to_point((0.625, 0.25)) == pytest.approx(0.125)
    # Across the seam is shorter: 0.875 -> 1 = 0 is 0.125 away.
    assert zone.distance_to_point((0.875, 0.25)) == pytest.approx(0.125)
    assert zone.distance_to_point((0.875, 0.875)) == pytest.approx(0.125 * 2 ** 0.5)


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
    zones = CanNetworkBuilder(dimensions=2).partition(29)
    root = _split_tree(2, 29)
    for index, zone in enumerate(zones):
        assert _descend(root, zone.center()) == index


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


def test_mean_lookup_hops_match_the_torus_model():
    """Over every source of a 256-node CAN, within 5 % of ``(d/4)·n^{1/d}``
    less one: a lookup ends at the node one hop before the owner, and one
    the source's own table answers takes no hop and is not recorded (on the
    square, with no wrap-around and owners answering, paths averaged 10.81
    against 8)."""
    network, routings, _builder = build_can_network(256)
    routed = 0
    for source, routing in routings.items():
        for resource in range(8):
            key = hash_key("hops", source * 8 + resource)
            routed += not routing.owns(key)
            routing.lookup(key, lambda owner: None)
    network.run_until_idle()
    hops = [count for routing in routings.values()
            for count in routing.lookup_hops_observed]
    assert routed > 1900 and len(hops) < routed
    assert sum(hops) / routed == pytest.approx(can_average_hops(256, 2) - 1,
                                               rel=0.05)


def torus_distance(routing, point):
    """The oracle metric: ``Zone.distance_to_point`` over a node's zones."""
    return min(zone.distance_to_point(point) for zone in routing.zones)


def assert_routes_descend(network, routings, owner_of, keys):
    """From every live source, each greedy hop toward each key's point is
    strictly closer to it (torus distance), the walk ends at ``owner_of``'s
    owner, and the routed lookup resolves there in one hop fewer: the node
    before the owner names it from its table, and a lookup the source's own
    table answers is not recorded."""
    for key in keys:
        owner = owner_of(key)
        for source, routing in routings.items():
            point = routing.key_to_point(key)
            previous, current, walk = None, source, 0
            while not routings[current].owns_point(point):
                following = routings[current]._best_next_hop(point, previous)
                assert (torus_distance(routings[following], point)
                        < torus_distance(routings[current], point))
                previous, current, walk = current, following, walk + 1
            assert current == owner
            if walk:
                assert routings[previous]._owner_in_table(point) == owner
            results = []
            routing.lookup_hops_observed.clear()
            routing.lookup(key, results.append)
            network.run_until_idle()
            assert results == [owner]
            assert routing.lookup_hops_observed == ([walk - 1] if walk > 1 else [])


@pytest.mark.parametrize("dimensions, num_nodes", [(1, 9), (2, 37), (3, 30)])
def test_every_hop_descends_to_the_owner_on_bulk_cans(dimensions, num_nodes):
    network, routings, builder = build_can_network(num_nodes, dimensions)
    keys = [hash_key("walk", resource) for resource in range(12)]
    assert_routes_descend(network, routings, builder.owner_of_key, keys)


def expected_tables(routings):
    """Each node's neighbour table as its zones imply it: the builder's plane
    sweep over every zone, grouped by owner."""
    owners, zones = [], []
    for address, routing in routings.items():
        for zone in routing.zones:
            owners.append(address)
            zones.append(zone)
    adjacency = CanNetworkBuilder(dimensions=zones[0].dimensions).neighbor_map(zones)
    tables = {address: {} for address in routings}
    for index, adjacent in adjacency.items():
        for other in adjacent:
            if owners[index] != owners[other]:
                tables[owners[index]][owners[other]] = routings[owners[other]].zones
    return tables


def hand_zones_to_a_neighbor(routings, departing):
    """Give ``departing``'s zones to its smallest neighbour, which then owns
    several, and set every remaining table to what the zones imply — the
    shape a takeover of a dead node's zones leaves.  Returns the heir, picked
    from the whole table: a neighbour marked dead still borders the zones."""
    leaving = routings.pop(departing)
    heir = min(leaving.neighbor_zones,
               key=lambda address: (routings[address].total_volume(), address))
    routings[heir].zones = [*routings[heir].zones, *leaving.zones]
    for address, table in expected_tables(routings).items():
        routings[address].neighbor_zones = table
    return heir


@pytest.mark.parametrize("dimensions", [1, 2, 3])
def test_merged_zone_tables_are_the_torus_adjacency(dimensions):
    """The plane sweep over zones grouped by owner agrees with
    ``Zone.is_neighbor`` pair by pair, for nodes with several zones too."""
    _network, routings, _builder = build_can_network(14, dimensions)
    heirs = {hand_zones_to_a_neighbor(routings, departing)
             for departing in (2, 9)}
    assert any(len(routings[heir].zones) == 2 for heir in heirs)
    assert sum(r.total_volume() for r in routings.values()) == pytest.approx(1.0)
    for address, routing in routings.items():
        for other, peer in routings.items():
            adjacent = other != address and any(
                mine.is_neighbor(theirs)
                for mine in routing.zones for theirs in peer.zones)
            assert (other in routing.neighbor_zones) == adjacent


@pytest.mark.parametrize("dimensions", [1, 2, 3])
def test_every_hop_descends_to_the_owner_with_several_zones(dimensions):
    """Heirs that hold several zones keep greedy routing strictly
    descending."""
    network, routings, _builder = build_can_network(24, dimensions)
    for departing in (3, 10, 17):
        hand_zones_to_a_neighbor(routings, departing)
    assert any(len(routing.zones) > 1 for routing in routings.values())

    def owner_of(key):
        owners = [address for address, routing in routings.items()
                  if routing.owns(key)]
        assert len(owners) == 1
        return owners[0]

    keys = [hash_key("walk", resource) for resource in range(8)]
    assert_routes_descend(network, routings, owner_of, keys)


def test_mark_neighbor_dead_removes_from_neighbors():
    _network, routings, _builder = build_can_network(8)
    routing = routings[0]
    neighbor = routing.neighbors()[0]
    routing.mark_neighbor_dead(neighbor)
    assert neighbor not in routing.neighbors()
    routing.mark_neighbor_alive(neighbor)
    assert neighbor in routing.neighbors()


def test_can_rejects_bad_dimensions():
    network = SimulatedNetwork(FullMeshTopology(1))
    with pytest.raises(ValueError):
        CanRouting(network.node(0), dimensions=0)
    with pytest.raises(ValueError):
        CanNetworkBuilder(dimensions=0)
