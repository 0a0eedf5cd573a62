"""The next-hop indexes of Chord and CAN against the scans they replaced.

``ChordRouting._closest_preceding`` used to scan every finger slot and
``CanRouting._best_next_hop`` every neighbour ``Zone``; both now answer from
an index derived from the routing table and dropped whenever the table is
assigned.  The old scans live on here, as test-only references:

* equivalence — hypothesis drives bulk-built overlays through membership
  rebuilds (over random address subsets, rebound onto the same nodes), CAN
  zones handed to a neighbour and dead marks, and after every step the
  indexed answer must equal the reference for every key / point the node
  does not own (the index built before the step must not survive it);
* staleness — named scenarios where the next hop must change at once, and
  lookups in flight across a rebind;
* determinism — a fixed-seed query pins every simulated count to the values
  recorded before the index existed.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import JoinStrategy
from repro.dht.can import CanNetworkBuilder, CanRouting
from repro.dht.chord import ChordNetworkBuilder, ChordRouting, _in_interval
from repro.dht.naming import hash_key
from repro.dht.provider import Provider
from repro.harness import PierNetwork, SimulationConfig
from repro.stack import build_overlay
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.test_can import hand_zones_to_a_neighbor


def make_network(num_nodes):
    return SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=0.01,
                                             capacity_bytes_per_s=float("inf")))


def local_routing(node, addresses, dht):
    """``node``'s layer of an overlay built on stand-ins over ``addresses``,
    rebound onto ``node``, and the builder (as a real node assembles)."""
    builder, routings = build_overlay(dht, addresses)
    return routings[node.address].rebind(node), builder


def rebuilt(network, builder, addresses):
    """A membership change: ``builder``'s overlay over ``addresses``, built
    on another network's nodes and rebound onto ``network``'s, where each
    layer replaces the one its node ran."""
    routings = builder.build_stabilized(make_network(network.num_nodes),
                                        addresses=addresses)
    return {address: routing.rebind(network.node(address))
            for address, routing in routings.items()}


def members(num_nodes):
    """A non-empty membership drawn from ``range(num_nodes)``."""
    return st.sets(st.integers(0, num_nodes - 1), min_size=1).map(sorted)


# ------------------------------------------------------------- the references


def reference_closest_preceding(routing, ring_key):
    """The linear finger scan ``_closest_preceding`` was before the index."""
    candidates = []
    for finger in routing.fingers:
        if finger is None:
            continue
        identifier, address = finger
        if address in routing._dead or address == routing.address:
            continue
        candidates.append((identifier, address))
    if routing.successor is not None and routing.successor not in routing._dead:
        candidates.append((routing._identifier_of(routing.successor),
                           routing.successor))
    best = None
    for identifier, address in candidates:
        if _in_interval(identifier, routing.identifier, ring_key) and (
                best is None or _in_interval(identifier, best[0], ring_key)):
            best = (identifier, address)
    if best is not None:
        return best[1]
    if routing.successor is not None and routing.successor not in routing._dead:
        return routing.successor
    return None


def reference_best_next_hop(routing, point, exclude=None):
    """The nested zone loop ``_best_next_hop`` was before the flat table,
    measuring each zone with the torus metric of ``Zone.distance_to_point``."""
    best_address = None
    best_distance = float("inf")
    fallback_address = None
    fallback_distance = float("inf")
    dead = routing._dead_neighbors
    for address, zones in routing.neighbor_zones.items():
        if address in dead:
            continue
        for zone in zones:
            distance = zone.distance_to_point(point)
            if address == exclude:
                if distance < fallback_distance:
                    fallback_distance = distance
                    fallback_address = address
                continue
            if distance < best_distance:
                best_distance = distance
                best_address = address
    if best_address is not None:
        return best_address
    return fallback_address


def reference_owns_point(routing, point):
    return any(zone.contains(point) for zone in routing.zones)


# ---------------------------------------------------------- Chord equivalence


def assert_chord_index_matches(routings, keys):
    for routing in routings.values():
        for ring_key in keys:
            if routing.owns(ring_key):
                continue
            assert (routing._closest_preceding(ring_key)
                    == reference_closest_preceding(routing, ring_key)), (
                routing, ring_key)


def chord_keys(routings, key_bits, extra):
    """Every ring key when the ring is small, else the boundaries and ``extra``."""
    modulus = 1 << key_bits
    if key_bits <= 8:
        return range(modulus)
    keys = set(key % modulus for key in extra)
    for routing in routings.values():
        for delta in (-1, 0, 1):
            keys.add((routing.identifier + delta) % modulus)
    return sorted(keys)


#: Small rings force identifier collisions and wrap-around; 128 is the default.
KEY_BITS = st.sampled_from([2, 3, 4, 6, 8, 16, 128])


@given(num_nodes=st.integers(1, 64), key_bits=KEY_BITS, data=st.data())
@settings(max_examples=30, deadline=None)
def test_chord_index_matches_scan_on_bulk_rings(num_nodes, key_bits, data):
    network = make_network(num_nodes)
    routings = ChordNetworkBuilder(key_bits=key_bits).build_stabilized(network)
    keys = chord_keys(routings, key_bits,
                      data.draw(st.lists(st.integers(0, (1 << 128) - 1),
                                         max_size=20)))
    assert_chord_index_matches(routings, keys)
    addresses = st.integers(0, num_nodes - 1)
    # Dead marks land on tables whose index the check above just built.
    for victim in data.draw(st.lists(addresses, max_size=num_nodes)):
        for routing in routings.values():
            routing.mark_neighbor_dead(victim)
    assert_chord_index_matches(routings, keys)
    for survivor in data.draw(st.lists(addresses, max_size=4)):
        for routing in routings.values():
            routing.mark_neighbor_alive(survivor)
    assert_chord_index_matches(routings, keys)


@given(num_nodes=st.integers(1, 12), key_bits=KEY_BITS, data=st.data())
@settings(max_examples=40, deadline=None)
def test_chord_index_matches_scan_through_membership_rebuilds(
        num_nodes, key_bits, data):
    """Each step rebuilds the ring over a random membership, or marks one
    node dead or alive on every layer."""
    network = make_network(num_nodes)
    builder = ChordNetworkBuilder(key_bits=key_bits)
    routings = rebuilt(network, builder, data.draw(members(num_nodes)))
    keys = chord_keys(routings, key_bits, [])
    assert_chord_index_matches(routings, keys)
    addresses = st.integers(0, num_nodes - 1)
    for action in data.draw(st.lists(
            st.sampled_from(["rebuild", "dead", "alive"]), max_size=6)):
        if action == "rebuild":
            routings = rebuilt(network, builder, data.draw(members(num_nodes)))
            keys = chord_keys(routings, key_bits, [])
        else:
            address = data.draw(addresses)
            for routing in routings.values():
                getattr(routing, f"mark_neighbor_{action}")(address)
        assert_chord_index_matches(routings, keys)


def test_chord_fallbacks_successor_then_none():
    network = make_network(6)
    routings = ChordNetworkBuilder().build_stabilized(network)
    routing = routings[0]
    successor = routing.successor
    # A key just past this node: nothing precedes it, the successor takes it.
    key = (routing.identifier + 1) % (1 << routing.key_bits)
    assert routing._closest_preceding(key) == successor
    for address in range(1, 6):
        routing.mark_neighbor_dead(address)
    assert routing._closest_preceding(key) is None
    assert reference_closest_preceding(routing, key) is None
    alone = ChordRouting(make_network(1).node(0))
    assert alone._closest_preceding(5) is None  # off the ring: no successor
    alone = ChordNetworkBuilder().build_stabilized(make_network(1))[0]
    assert alone.owns(5)
    assert alone._closest_preceding(5) == alone.address  # callers drop "self"


def test_chord_fingers_on_one_identifier_keep_slot_order():
    """Neither builder makes such a table; the scan's tie-break still holds."""
    routing = ChordRouting(make_network(5).node(0), key_bits=4)

    def at(offset):
        return (routing.identifier + offset) % 16

    routing._ids.update({1: at(5), 2: at(5), 3: at(5), 4: at(9)})
    routing.fingers = [(at(5), 2), (at(5), 1), None, (at(9), 4)]
    routing.successor = 3
    for offset in range(1, 16):
        assert (routing._closest_preceding(at(offset))
                == reference_closest_preceding(routing, at(offset)))
    assert routing._closest_preceding(at(7)) == 2
    routing.mark_neighbor_dead(2)
    assert routing._closest_preceding(at(7)) == 1
    routing.mark_neighbor_dead(1)
    assert routing._closest_preceding(at(7)) == 3
    assert routing._closest_preceding(at(3)) == 3  # nothing precedes: successor


# ------------------------------------------------------------ CAN equivalence


def can_points(routings, extra=()):
    """Zone centres and corners (where distances tie) plus ``extra``."""
    points = [tuple(point) for point in extra]
    for routing in routings.values():
        for zone in routing.zones:
            points.append(zone.center())
            points.append(zone.lo)
            points.append(tuple(min(high, 0.999999) for high in zone.hi))
    return points


def assert_can_index_matches(routings, points):
    for routing in routings.values():
        excludes = [None, *routing.neighbor_zones]
        for point in points:
            owned = reference_owns_point(routing, point)
            assert routing.owns_point(point) == owned, (routing, point)
            if owned:
                continue
            for exclude in excludes:
                assert (routing._best_next_hop(point, exclude=exclude)
                        == reference_best_next_hop(routing, point, exclude)), (
                    routing, point, exclude)


def unit_points(dimensions):
    coordinate = st.floats(min_value=0.0, max_value=0.999999)
    return st.lists(st.lists(coordinate, min_size=dimensions,
                             max_size=dimensions), max_size=12)


@given(num_nodes=st.integers(1, 40), dimensions=st.integers(1, 3),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_can_index_matches_scan_on_bulk_partitions(num_nodes, dimensions, data):
    network = make_network(num_nodes)
    routings = CanNetworkBuilder(dimensions=dimensions).build_stabilized(network)
    points = can_points(routings, data.draw(unit_points(dimensions)))
    assert_can_index_matches(routings, points)
    addresses = st.integers(0, num_nodes - 1)
    for victim in data.draw(st.lists(addresses, max_size=num_nodes)):
        for routing in routings.values():
            routing.mark_neighbor_dead(victim)
    assert_can_index_matches(routings, points)
    for survivor in data.draw(st.lists(addresses, max_size=4)):
        for routing in routings.values():
            routing.mark_neighbor_alive(survivor)
    assert_can_index_matches(routings, points)


@given(num_nodes=st.integers(1, 10), dimensions=st.integers(1, 3),
       data=st.data())
@settings(max_examples=30, deadline=None)
def test_can_index_matches_scan_through_membership_rebuilds(
        num_nodes, dimensions, data):
    """Each step rebuilds over a random membership, hands one node's zones
    to a neighbour (so heirs route and own with several zones), or marks
    one node dead or alive on every layer."""
    network = make_network(num_nodes)
    builder = CanNetworkBuilder(dimensions=dimensions)
    extra = data.draw(unit_points(dimensions))
    routings = rebuilt(network, builder, data.draw(members(num_nodes)))
    assert_can_index_matches(routings, can_points(routings, extra))
    addresses = st.integers(0, num_nodes - 1)
    for action in data.draw(st.lists(
            st.sampled_from(["rebuild", "merge", "dead", "alive"]),
            max_size=6)):
        if action == "rebuild":
            routings = rebuilt(network, builder, data.draw(members(num_nodes)))
        elif action == "merge":
            if len(routings) > 1:
                hand_zones_to_a_neighbor(
                    routings, data.draw(st.sampled_from(sorted(routings))))
        else:
            address = data.draw(addresses)
            for routing in routings.values():
                getattr(routing, f"mark_neighbor_{action}")(address)
        assert_can_index_matches(routings, can_points(routings, extra))


def test_can_heir_owns_and_routes_with_several_zones():
    network = make_network(6)
    routings = CanNetworkBuilder(dimensions=2).build_stabilized(network)
    centre = routings[3].zones[0].center()
    assert_can_index_matches(routings, can_points(routings, [centre]))
    heir = routings[hand_zones_to_a_neighbor(routings, 3)]
    assert len(heir.zones) == 2
    assert heir.owns_point(centre)
    assert_can_index_matches(routings, can_points(routings, [centre]))


def test_can_only_live_neighbor_excluded_is_still_the_fallback():
    network = make_network(9)
    routings = CanNetworkBuilder(dimensions=2).build_stabilized(network)
    routing = routings[4]
    neighbors = routing.neighbors()
    assert len(neighbors) >= 2
    keep = neighbors[0]
    for address in neighbors[1:]:
        routing.mark_neighbor_dead(address)
    point = next(p for p in can_points(routings)
                 if not routing.owns_point(p))
    assert routing._best_next_hop(point, exclude=keep) == keep
    assert routing._best_next_hop(point, exclude=None) == keep
    routing.mark_neighbor_dead(keep)
    assert routing._best_next_hop(point, exclude=keep) is None
    assert routing._best_next_hop(point) is None


def test_can_squared_argmin_picks_a_closest_zone():
    """The squared-distance argmin minimises ``Zone.distance_to_point``."""
    network = make_network(25)
    routings = CanNetworkBuilder(dimensions=2).build_stabilized(network)
    for routing in routings.values():
        for point in can_points(routings):
            if routing.owns_point(point):
                continue
            chosen = routing._best_next_hop(point)
            distances = {
                address: min(zone.distance_to_point(point) for zone in zones)
                for address, zones in routing.neighbor_zones.items()
            }
            assert distances[chosen] == pytest.approx(min(distances.values()))


def test_can_squares_an_ulp_apart_tie_on_the_first_zone():
    """Zones 16 and 32 of node 12 are as far from this point as a root can
    tell, though their squares differ in the last bit: the table's first
    such zone wins, as in the scan."""
    network = make_network(37)
    routing = CanNetworkBuilder(dimensions=3).build_stabilized(network)[12]
    point = (0.0, 0.0923898878775927, 1e-09)
    (near,), (far,) = (routing.neighbor_zones[address] for address in (16, 32))
    assert near.distance_to_point(point) == far.distance_to_point(point)
    assert reference_best_next_hop(routing, point, exclude=0) == 16
    assert routing._best_next_hop(point, exclude=0) == 16


# ------------------------------------------------------------- stale indexes


def chord_next_hop(routing, ring_key):
    hop = routing._closest_preceding(ring_key)
    assert hop == reference_closest_preceding(routing, ring_key)
    return hop


def test_chord_dead_mark_changes_the_next_hop_at_once():
    network = make_network(32)
    routings = ChordNetworkBuilder().build_stabilized(network)
    source = routings[0]
    key = next(k for k in (hash_key("T", i) for i in range(100))
               if not source.owns(k))
    ring_key = source.ring_key(key)
    first = chord_next_hop(source, ring_key)
    source.mark_neighbor_dead(first)
    second = chord_next_hop(source, ring_key)
    assert second != first
    source.mark_neighbor_alive(first)
    assert chord_next_hop(source, ring_key) == first


def test_can_dead_mark_changes_the_next_hop_at_once():
    network = make_network(36)
    routings = CanNetworkBuilder(dimensions=2).build_stabilized(network)
    source = routings[0]
    point = next(p for p in (source.key_to_point(hash_key("T", i))
                             for i in range(100)) if not source.owns_point(p))
    first = source._best_next_hop(point)
    source.mark_neighbor_dead(first)
    second = source._best_next_hop(point)
    assert second != first
    assert second == reference_best_next_hop(source, point)
    source.mark_neighbor_alive(first)
    assert source._best_next_hop(point) == first


def resolved_from_everyone(network, routings, key):
    """The owners a lookup of ``key`` from every member resolves to."""
    resolved = []
    for routing in routings.values():
        routing.lookup(key, resolved.append)
    network.run_until_idle()
    assert len(resolved) == len(routings)
    return set(resolved)


def test_chord_join_between_source_and_owner_reroutes_after_the_rebuild():
    network = make_network(7)
    builder = ChordNetworkBuilder()
    routings = rebuilt(network, builder, range(6))
    joiner_id = ChordRouting(make_network(7).node(6)).identifier
    modulus = 1 << routings[0].key_bits
    # The joiner lands between its future predecessor and successor.
    on_ring = sorted((routing.identifier, a) for a, routing in routings.items())
    successor = next((a for i, a in on_ring if i > joiner_id), on_ring[0][1])
    predecessor = routings[successor].predecessor
    # A key past the joiner but before its successor: today the successor is
    # the only hop towards it, after the join the joiner precedes it.
    ring_key = (joiner_id + 1) % modulus
    assert chord_next_hop(routings[predecessor], ring_key) == successor
    routings = rebuilt(network, builder, range(7))
    source = routings[predecessor]
    assert source.successor == 6
    assert chord_next_hop(source, ring_key) == 6
    assert resolved_from_everyone(network, routings, ring_key) == {successor}
    assert resolved_from_everyone(network, routings, joiner_id) == {6}


def test_chord_leave_between_source_and_owner_reroutes_after_the_rebuild():
    network = make_network(6)
    builder = ChordNetworkBuilder()
    routings = rebuilt(network, builder, range(6))
    departing = routings[5]
    predecessor, heir = departing.predecessor, departing.successor
    ring_key = departing.identifier  # owned by the departing node today
    assert chord_next_hop(routings[predecessor], ring_key) == 5
    routings = rebuilt(network, builder, range(5))
    assert chord_next_hop(routings[predecessor], ring_key) == heir
    assert resolved_from_everyone(network, routings, ring_key) == {heir}


def test_can_join_and_leave_reroute_after_the_rebuild():
    network = make_network(6)
    builder = CanNetworkBuilder(dimensions=2)
    before = rebuilt(network, builder, range(5))
    assert_can_index_matches(before, can_points(before))
    joined = rebuilt(network, builder, range(6))
    key = next(k for k in (hash_key("T", i) for i in range(200))
               if joined[5].owns(k))
    # Whoever owned the key before the join routes it to the joiner now.
    gave = [a for a, routing in before.items() if routing.owns(key)]
    assert len(gave) == 1 and not joined[gave[0]].owns(key)
    assert resolved_from_everyone(network, joined, key) == {5}
    assert_can_index_matches(joined, can_points(joined))

    left = rebuilt(network, builder, range(5))
    assert resolved_from_everyone(network, left, key) == {gave[0]}
    assert_can_index_matches(left, can_points(left))


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_rebind_keeps_the_lookups_in_flight(dht):
    """Node 2 rebinds a rebuilt layer while 20 of its keys are routing: the
    new layer takes over the old one's pending lookups and request ids, so
    each key resolves once, at its owner, and a lookup the new layer sends
    gets a fresh id and only its own keys."""
    network = make_network(16)
    builder = (CanNetworkBuilder(dimensions=2) if dht == "can"
               else ChordNetworkBuilder())
    source = builder.build_stabilized(network)[2]
    keys = [key for key in (hash_key("flight", i) for i in range(100))
            if not source.owns(key)]
    old_keys, new_keys = keys[:20], keys[20:25]
    old, new = Counter(), Counter()
    first = source.lookup_batch(
        old_keys, lambda owner, batch: old.update((k, owner) for k in batch))
    rebound, _builder = local_routing(network.node(2), range(16), dht)
    second = rebound.lookup_batch(
        new_keys, lambda owner, batch: new.update((k, owner) for k in batch))
    assert second != first
    network.run_until_idle()
    assert old == Counter((key, builder.owner_of_key(key)) for key in old_keys)
    assert new == Counter((key, builder.owner_of_key(key)) for key in new_keys)
    assert not rebound._pending_batch_lookups


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_puts_in_flight_across_a_rebind_are_stored_once(dht):
    """Through the Provider: a put routing when node 2 rebinds, and a put
    sent right after, each store every item once, at its owner."""
    network = make_network(16)
    builder = (CanNetworkBuilder(dimensions=2) if dht == "can"
               else ChordNetworkBuilder())
    providers = {address: Provider(network.node(address), routing,
                                   sweep_period_s=0.0)
                 for address, routing in builder.build_stabilized(network).items()}
    puts = {"t": list(range(40)), "u": list(range(5))}
    providers[2].put_batch("t", [(rid, rid, 1, 80) for rid in puts["t"]],
                           lifetime=60.0)
    providers[2].rebind_routing(local_routing(network.node(2), range(16), dht)[0])
    providers[2].put_batch("u", [(rid, rid, 1, 80) for rid in puts["u"]],
                           lifetime=60.0)
    network.run_until_idle()
    for namespace, rids in puts.items():
        stored = Counter((address, item.resource_id)
                         for address, provider in providers.items()
                         for item in provider.storage.scan(namespace, network.now))
        assert stored == Counter(
            (builder.owner_of_key(hash_key(namespace, rid)), rid) for rid in rids)
    assert not providers[2].put_bounces_by_namespace


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_layer_registers_only_the_routed_batch_protocols(dht):
    """Membership changes by rebuild alone: a node runs no join, leave or
    neighbour-update protocol, only routed batches and their answers."""
    network = make_network(4)
    builder = (CanNetworkBuilder(dimensions=2) if dht == "can"
               else ChordNetworkBuilder())
    builder.build_stabilized(network)
    for address in range(4):
        node = network.node(address)
        assert set(node._handlers) == {f"{dht}.route_batch",
                                       f"{dht}.batch_lookup_reply"}
        assert set(node._bounce_handlers) == {f"{dht}.route_batch"}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_rebind_keeps_routing_correct(dht):
    """``RoutingLayer.rebind`` / ``Provider.rebind_routing`` (live membership)."""
    network = make_network(8)
    node = network.node(2)
    keys = [hash_key("T", i) for i in range(60)]

    def next_hops(routing):
        if dht == "can":
            return [routing._best_next_hop(routing.key_to_point(k)) for k in keys
                    if not routing.owns(k)]
        return [routing._closest_preceding(routing.ring_key(k)) for k in keys
                if not routing.owns(k)]

    def references(routing):
        if dht == "can":
            return [reference_best_next_hop(routing, routing.key_to_point(k))
                    for k in keys if not routing.owns(k)]
        return [reference_closest_preceding(routing, routing.ring_key(k))
                for k in keys if not routing.owns(k)]

    routing, _builder = local_routing(node, range(6), dht)
    assert routing.node is node
    assert next_hops(routing) == references(routing)
    provider = Provider(node, routing)

    # Membership grows: a fresh layer over the new address list is rebound
    # onto the same node and the Provider follows it.
    rebuilt, builder = local_routing(node, range(8), dht)
    provider.rebind_routing(rebuilt)
    assert provider.routing is rebuilt
    assert next_hops(rebuilt) == references(rebuilt)

    # Moving a layer whose index is built onto another node keeps it right.
    other = make_network(8).node(2)
    rebuilt.rebind(other)
    assert rebuilt.node is other
    assert next_hops(rebuilt) == references(rebuilt)
    for key in keys:
        assert rebuilt.owns(key) == (builder.owner_of_key(key) == 2)


# --------------------------------------------------------- determinism pins

#: Recorded at the parent commit (linear scans): 64 nodes, config seed 7,
#: workload seed 11, fig-3 symmetric-hash join through PierClient.  The
#: query id names the rehash namespace and so decides where every fragment
#: hashes to; the test fixes it to the id it was recorded under.
PINNED_QUERY_ID = 9001
PINNED = {
    # Re-recorded when CAN became a torus (3 963 messages, 1 242 590 bytes,
    # 3 366 events and 3 544 hops on the square): seam neighbours shorten
    # the paths and the multicast goes outward.  Both re-recorded when
    # relays began to forward one routed batch per next hop per delivery
    # group (CAN 3 628 messages, 1 175 864 bytes, 3 128 events; Chord 2 842,
    # 1 085 390, 2 664): lookups that arrive together leave together, and
    # the sends a group defers to its end move the link queues a little.
    # Lookup hops did not move.  All re-recorded when a lookup began to end
    # at the first node whose routing table names the owner (CAN 3 391
    # messages, 1 165 420 bytes, 3 132 events; Chord 2 721, 1 080 050,
    # 2 666): every answered key is one hop shorter, and a key whose owner
    # the origin's table names resolves there, unrecorded.  So the hop sum
    # loses one per key the owner used to answer (659 CAN, 653 Chord keys).
    # CAN re-recorded when a key's point became its own bit fields instead
    # of a salted re-hash (2 928 messages, 1 108 304 bytes, 2 618 events,
    # 1 985 hops): placement moved, so every fragment meets another owner
    # over another path (``can.route_batch`` 1 328 -> 1 345, lookup replies
    # 605 -> 584, put chunks 643 -> 631); rows and ``mc.flood`` did not move.
    "can": {"messages_sent": 2911, "bytes_delivered": 1098612,
            "events_processed": 2582, "lookup_hops": 2000},
    "chord": {"messages_sent": 2265, "bytes_delivered": 1025426,
              "events_processed": 2213, "lookup_hops": 2504 - 653},
}


def run_pinned_query(dht, **config):
    """The pinned query on a fresh deployment: ``(pier, cursor)`` when done."""
    pier = PierNetwork(SimulationConfig(num_nodes=64, dht=dht, seed=7, **config))
    workload = JoinWorkload(WorkloadConfig(num_nodes=64, s_tuples_per_node=2,
                                           seed=11))
    pier.load_relation(workload.r_relation, workload.r_by_node)
    pier.load_relation(workload.s_relation, workload.s_by_node)
    client = pier.client(catalog=workload.catalog())
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    query.query_id = PINNED_QUERY_ID
    cursor = client.query(query)
    rows = cursor.fetchall()

    def multiset(results):
        return Counter(tuple(sorted(row.items())) for row in results)

    assert len(rows) == 128
    assert multiset(rows) == multiset(workload.expected_results())
    return pier, cursor


def simulated_counts(pier):
    stats = pier.network.stats
    return {
        "messages_sent": stats.messages_sent,
        "bytes_delivered": stats.bytes_delivered,
        "events_processed": pier.network.simulator.events_processed,
        "lookup_hops": sum(sum(routing.lookup_hops_observed)
                           for routing in pier.routings.values()),
    }


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_fixed_seed_query_counts_are_pinned(dht):
    pier, _ = run_pinned_query(dht)
    assert simulated_counts(pier) == PINNED[dht]


# ------------------------------------------- determinism pins, per network mode
#
# The simulated message path (``net/``) has two delivery modes — zero-window
# groups and positive-window groups — and the link and the topology each
# have a special case (infinite bandwidth; a latency drawn from a random
# stream per call).  Each pin holds the queueing-delay sum and every row's
# arrival time on top of the counts.  A third mode, one delivery event per
# message, was deleted: no deployment ran it, and a node handled what it
# delivered outside any delivery scope, unlike every other path.
#
# The order in which one node's same-instant sends are issued follows the
# order ``StorageManager.scan`` yields stored tuples, which is the order they
# were stored in — so nothing here depends on how strings hash.  The two
# coalescing modes were recorded at the commit before delivery groups kept
# one postponable event each and have not moved since; the other three were
# re-recorded once, when the storage indexes stopped being hash-ordered sets
# (a probe ships its matches in one result message, so without coalescing
# the order fragments arrive in moves a handful of messages as well as the
# times; rows and hops do not move).  "One event per message" is "window 0"
# with the network's coalescing switched off (recorded when the Provider's
# per-item put path went): same lookup hops, one event per message.  The six
# Chord entries were re-recorded when the probe began to ship the matches of
# one arriving *chunk* in one result message (4-5 ``pier.result`` messages
# fewer of 94, 60 header bytes each, and the arrival times of the rows that
# now share a message; "cluster" draws a latency per send from one stream, so
# its later draws shift too).  Rows, lookup hops, put counts and every CAN
# entry — whose chunks hold one matching fragment each — did not move.
# All twelve were re-recorded when a multicast began to flood before it
# delivers locally: one zero-delay delivery event per node per flood (query
# and teardown: 128 events more than messages in the one-event modes, +128
# or +129 in the grouped ones), and the flood now queues ahead of a node's
# rehash puts on its uplink, which moves the queueing-delay sums.  In the
# window modes no row arrives at another time; with one event per message or
# jittered latency the queue order (or the latency each send draws) moves
# arrival times, how many fragments share a probe chunk (±1–6
# ``pier.result``) and, on Chord, how many flood duplicates are sent (±4–8
# ``mc.flood``).  Rows and lookup hops did not move.
# The six Chord entries were re-recorded when a Chord multicast went down
# the finger-interval tree instead of flooding: ``mc.flood`` fell from
# 884-888 to 126 (63 per multicast, query and teardown), and the tree is one
# 100 ms hop deeper than the flood at 64 nodes, so the last row arrives a
# hop later and which fragments share a probe chunk moves (-3 to +3
# ``pier.result``).  Rows, lookup hops, put counts and every CAN entry did
# not move.
# The grouped modes ("window 0", "window 10 ms", "infinite bandwidth") were
# re-recorded when a node began to hold the routed keys it forwards during
# one delivery group and send one ``*.route_batch`` per next hop when the
# group is done: 121-712 messages fewer, 60 header bytes each less 16 per
# extra run, and the deferred sends reorder the link queues, which moves
# queueing-delay sums and a few arrival times (all in the window modes, none
# under infinite bandwidth).  Rows and lookup hops did not move; the
# one-event-per-message and jittered-latency modes deliver (almost) every
# message alone and did not move at all.
# All eight were re-recorded when a lookup began to end at the first node
# whose routing table names the owner (the counts: see ``PINNED``).  Every
# lookup is one hop shorter, so with infinite bandwidth the first and last
# rows arrive exactly one 100 ms hop earlier (0.7 -> 0.6 and 1.8 -> 1.7 s
# on CAN, 0.6 -> 0.5 and 1.4 -> 1.3 s on Chord); the other modes move by
# about that hop plus the queueing the saved messages no longer cause.
# The four CAN entries were re-recorded when a key's point became its own
# bit fields (the counts: see ``PINNED``).  Placement moved, so the rehash
# paths did: with infinite bandwidth the first row arrives one 100 ms hop
# later (0.6 -> 0.7 s) and the last two hops sooner (1.7 -> 1.5 s); the
# other modes move by about as much, plus their queueing.

NETWORK_MODES = {
    "window 0": {},
    "window 10 ms": {"coalesce_window_s": 0.010},
    "cluster (jittered latency)": {"topology": "cluster"},
    "infinite bandwidth": {"bandwidth_bytes_per_s": None},
}
#: ``arrivals`` is (rows, first, last, sha256 of the repr of the whole tuple).
PINNED_BY_MODE = {
    ("window 0", "can"): {
        **PINNED["can"], "max_inbound_bytes": 148336,
        "total_queueing_delay": 1.3326112000000303,
        "arrivals": [128, 0.7065183999999999, 1.514502400000001,
                     "66ca305b9787f381"]},
    ("window 0", "chord"): {
        **PINNED["chord"], "max_inbound_bytes": 144516,
        "total_queueing_delay": 1.7333983999999591,
        "arrivals": [128, 0.5014688, 1.3131744000000005, "a207c7db8834e19c"]},
    ("window 10 ms", "can"): {
        "messages_sent": 2492, "bytes_delivered": 1080176,
        "events_processed": 755, "lookup_hops": 2000,
        "max_inbound_bytes": 148160, "total_queueing_delay": 1.317228800000007,
        "arrivals": [128, 0.7135327999999996, 1.5232480000000002,
                     "534af2acd1e8d9e9"]},
    ("window 10 ms", "chord"): {
        "messages_sent": 2006, "bytes_delivered": 1014062,
        "events_processed": 657, "lookup_hops": 1851,
        "max_inbound_bytes": 144372, "total_queueing_delay": 1.57259199999997,
        "arrivals": [128, 0.5060608, 1.3241408, "2a0dc3ace2fc48e7"]},
    ("cluster (jittered latency)", "can"): {
        "messages_sent": 3038, "bytes_delivered": 1104216,
        "events_processed": 3166, "lookup_hops": 2000,
        "max_inbound_bytes": 148440, "total_queueing_delay": 8.964802973246648,
        "arrivals": [128, 0.008285949585614764, 0.12130994958561465,
                     "d94a61179f7f73c9"]},
    ("cluster (jittered latency)", "chord"): {
        "messages_sent": 2335, "bytes_delivered": 1028458,
        "events_processed": 2463, "lookup_hops": 1851,
        "max_inbound_bytes": 144424, "total_queueing_delay": 8.724597280316685,
        "arrivals": [128, 0.0060954417233992165, 0.11759624172339919,
                     "48d96b9aab1c6ea7"]},
    ("infinite bandwidth", "can"): {
        "messages_sent": 2489, "bytes_delivered": 1079996,
        "events_processed": 749, "lookup_hops": 2000,
        "max_inbound_bytes": 147980, "total_queueing_delay": 0.0,
        "arrivals": [128, 0.7, 1.5000000000000002,
                     "c2271e997e0560fe"]},
    ("infinite bandwidth", "chord"): {
        "messages_sent": 2006, "bytes_delivered": 1014062,
        "events_processed": 654, "lookup_hops": 1851,
        "max_inbound_bytes": 144372, "total_queueing_delay": 0.0,
        "arrivals": [128, 0.5, 1.3, "12541fd3b9085771"]},
}


def network_mode_facts(mode, dht):
    """One ``(mode, dht)`` run of the pinned query, as comparable facts."""
    pier, cursor = run_pinned_query(dht, **NETWORK_MODES[mode])
    times = tuple(cursor.arrival_times())
    return {
        **simulated_counts(pier),
        "max_inbound_bytes": pier.network.stats.max_inbound_bytes(),
        "total_queueing_delay": pier.network.stats.total_queueing_delay,
        "arrivals": [len(times), times[0], times[-1],
                     hashlib.sha256(repr(times).encode()).hexdigest()[:16]],
    }


@pytest.mark.parametrize("mode, dht", sorted(PINNED_BY_MODE))
def test_fixed_seed_query_is_pinned_in_every_network_mode(mode, dht):
    assert network_mode_facts(mode, dht) == PINNED_BY_MODE[mode, dht]
