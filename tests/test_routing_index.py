"""The next-hop indexes of Chord and CAN against the scans they replaced.

``ChordRouting._closest_preceding`` used to scan every finger slot and
``CanRouting._best_next_hop`` every neighbour ``Zone``; both now answer from
an index derived from the routing table and dropped whenever the table is
assigned.  The old scans live on here, as test-only references:

* equivalence — hypothesis drives bulk-built and protocol-built overlays
  through joins, leaves and dead marks, and after every step the indexed
  answer must equal the reference for every key / point the node does not
  own (the index built before the step must not survive it);
* staleness — named scenarios where the next hop must change at once;
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
from repro.net.network import Network
from repro.net.topology import FullMeshTopology
from repro.workloads import JoinWorkload, WorkloadConfig


def make_network(num_nodes):
    return Network(FullMeshTopology(num_nodes, latency_s=0.01,
                                    capacity_bytes_per_s=float("inf")))


def local_routing(node, addresses, dht):
    """``node``'s layer of an overlay built on stand-ins over ``addresses``,
    rebound onto ``node``, and the builder (as a real node assembles)."""
    builder, routings = build_overlay(dht, addresses)
    return routings[node.address].rebind(node), builder


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
    """The nested zone loop ``_best_next_hop`` was before the flat table."""
    best_address = None
    best_distance = float("inf")
    fallback_address = None
    fallback_distance = float("inf")
    dead = routing._dead_neighbors
    for address, zones in routing.neighbor_zones.items():
        if address in dead:
            continue
        for zone in zones:
            lo = zone.lo
            hi = zone.hi
            distance = 0.0
            for dim, coordinate in enumerate(point):
                low = lo[dim]
                if coordinate < low:
                    delta = low - coordinate
                    distance += delta * delta
                else:
                    high = hi[dim]
                    if coordinate >= high:
                        delta = coordinate - high
                        distance += delta * delta
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
def test_chord_index_matches_scan_through_protocol_joins_and_leaves(
        num_nodes, key_bits, data):
    """Joined tables have every finger equal to the successor at join time."""
    network = make_network(num_nodes)
    routings = {a: ChordRouting(network.node(a), key_bits=key_bits)
                for a in range(num_nodes)}
    keys = chord_keys(routings, key_bits, [])
    routings[0].join(None)
    for address in range(1, num_nodes):
        routings[address].join(data.draw(st.integers(0, address - 1)))
        network.run_until_idle()
        assert_chord_index_matches(routings, keys)
    addresses = st.integers(0, num_nodes - 1)
    for step in data.draw(st.lists(
            st.tuples(st.sampled_from(["leave", "dead", "alive"]), addresses),
            max_size=6)):
        action, address = step
        if action == "leave":
            routings[address].leave()
            network.run_until_idle()
        else:
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
    alone.create_network()
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
def test_can_index_matches_scan_through_protocol_joins_and_leaves(
        num_nodes, dimensions, data):
    """Leaves hand zones over, so heirs route and own with several zones."""
    network = make_network(num_nodes)
    routings = {a: CanRouting(network.node(a), dimensions=dimensions, seed=a)
                for a in range(num_nodes)}
    extra = data.draw(unit_points(dimensions))
    routings[0].join(None)
    for address in range(1, num_nodes):
        routings[address].join(data.draw(st.integers(0, address - 1)))
        network.run_until_idle()
        assert_can_index_matches(routings,
                                 can_points(routings, extra))
    addresses = st.integers(0, num_nodes - 1)
    for step in data.draw(st.lists(
            st.tuples(st.sampled_from(["leave", "dead", "alive"]), addresses),
            max_size=6)):
        action, address = step
        if action == "leave":
            routings[address].leave()
            network.run_until_idle()
        else:
            for routing in routings.values():
                getattr(routing, f"mark_neighbor_{action}")(address)
        assert_can_index_matches(routings,
                                 can_points(routings, extra))


def build_can_by_joins(num_nodes, joined):
    """``num_nodes`` CAN layers, the first ``joined`` of them on the overlay."""
    network = make_network(num_nodes)
    routings = {a: CanRouting(network.node(a), dimensions=2, seed=a)
                for a in range(num_nodes)}
    routings[0].join(None)
    for address in range(1, joined):
        routings[address].join(0)
        network.run_until_idle()
    return network, routings


def test_can_heir_owns_and_routes_with_several_zones():
    network, routings = build_can_by_joins(6, joined=6)
    departing = routings[3]
    centre = departing.zones[0].center()
    heirs_before = {a: len(r.zones) for a, r in routings.items()}
    departing.leave()
    network.run_until_idle()
    heir = next(r for a, r in routings.items()
                if len(r.zones) > heirs_before[a])
    assert len(heir.zones) >= 2
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


def build_chord_by_joins(num_nodes, joined):
    """``num_nodes`` Chord layers, the first ``joined`` of them on the ring."""
    network = make_network(num_nodes)
    routings = {a: ChordRouting(network.node(a)) for a in range(num_nodes)}
    routings[0].join(None)
    for address in range(1, joined):
        routings[address].join(0)
        network.run_until_idle()
    return network, routings


def test_chord_join_between_source_and_owner_reroutes_without_refresh():
    network, routings = build_chord_by_joins(7, joined=6)
    joiner = routings[6]
    modulus = 1 << joiner.key_bits
    # The joiner lands between its future predecessor and successor.
    on_ring = sorted((routings[a].identifier, a) for a in range(6))
    successor = next((a for i, a in on_ring if i > joiner.identifier),
                     on_ring[0][1])
    predecessor = routings[successor].predecessor
    source = routings[predecessor]
    # A key past the joiner but before its successor: today the successor is
    # the only hop towards it, after the join the joiner precedes it.
    ring_key = (joiner.identifier + 1) % modulus
    assert chord_next_hop(source, ring_key) == successor
    joiner.join(0)
    network.run_until_idle()
    assert source.successor == joiner.address
    assert chord_next_hop(source, ring_key) == joiner.address
    resolved = []
    source.lookup(ring_key, resolved.append)
    network.run_until_idle()
    assert resolved == [successor]


def test_chord_leave_between_source_and_owner_reroutes_without_refresh():
    network, routings = build_chord_by_joins(6, joined=6)
    # The last node to join is in nobody's finger table, only a successor.
    departing = routings[5]
    source = routings[departing.predecessor]
    heir = departing.successor
    assert source.successor == departing.address
    ring_key = departing.identifier  # owned by the departing node today
    assert chord_next_hop(source, ring_key) == departing.address
    departing.leave()
    network.run_until_idle()
    assert chord_next_hop(source, ring_key) == heir
    resolved = []
    source.lookup(ring_key, resolved.append)
    network.run_until_idle()
    assert resolved == [heir]


def test_can_join_and_leave_reroute_without_refresh():
    network, routings = build_can_by_joins(6, joined=5)
    assert_can_index_matches(routings, can_points(routings))
    owned_before = {a: list(r.zones) for a, r in routings.items()}

    def reference_owns_point_before(routing, point):
        return any(zone.contains(point) for zone in owned_before[routing.address])

    joiner = routings[5]
    joiner.join(0)
    network.run_until_idle()
    centre = joiner.zones[0].center()
    # Whoever split gave the point away: it no longer owns it and routes to
    # the joiner, though its index was built before the join.
    gave = [r for r in routings.values()
            if r is not joiner and reference_owns_point_before(r, centre)]
    assert len(gave) == 1
    splitter = gave[0]
    assert not splitter.owns_point(centre)
    assert splitter._best_next_hop(centre) == joiner.address
    assert_can_index_matches(routings, can_points(routings, [centre]))

    joiner.leave()
    network.run_until_idle()
    heir = next(r for r in routings.values() if r.owns_point(centre))
    assert heir.address != 5
    assert_can_index_matches(routings, can_points(routings, [centre]))


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
    "can": {"messages_sent": 3963, "bytes_delivered": 1242590,
            "events_processed": 3366, "lookup_hops": 3544},
    "chord": {"messages_sent": 2842, "bytes_delivered": 1085390,
              "events_processed": 2664, "lookup_hops": 2504},
}


def run_pinned_query(dht, uncoalesced=False, **config):
    """The pinned query on a fresh deployment: ``(pier, cursor)`` when done.

    ``uncoalesced`` switches the freshly built network to one delivery event
    per message — a mode ``SimulationConfig`` has no field for.
    """
    pier = PierNetwork(SimulationConfig(num_nodes=64, dht=dht, seed=7, **config))
    if uncoalesced:
        pier.network.set_coalescing(None)
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
# The simulated message path (``net/``) has three delivery modes — one event
# per message, zero-window groups, positive-window groups — and the link and
# the topology each have a special case (infinite bandwidth; a latency drawn
# from a random stream per call).  Each pin holds the queueing-delay sum and
# every row's arrival time on top of the counts.
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

NETWORK_MODES = {
    "window 0": {},
    "window 10 ms": {"coalesce_window_s": 0.010},
    "one event per message": {"uncoalesced": True},
    "cluster (jittered latency)": {"topology": "cluster"},
    "infinite bandwidth": {"bandwidth_bytes_per_s": None},
}
#: ``arrivals`` is (rows, first, last, sha256 of the repr of the whole tuple).
PINNED_BY_MODE = {
    ("window 0", "can"): {
        **PINNED["can"], "max_inbound_bytes": 147012,
        "total_queueing_delay": 1.8877200000001042,
        "arrivals": [128, 1.0075904, 2.810940800000003, "c691202892bad9d4"]},
    ("window 0", "chord"): {
        **PINNED["chord"], "max_inbound_bytes": 145064,
        "total_queueing_delay": 1.8351071999999724,
        "arrivals": [128, 0.6015488, 1.4068032000000006, "6f276136d0282b7c"]},
    ("window 10 ms", "can"): {
        "messages_sent": 3960, "bytes_delivered": 1242410,
        "events_processed": 973, "lookup_hops": 3544,
        "max_inbound_bytes": 146832, "total_queueing_delay": 2.348238400000131,
        "arrivals": [128, 1.021545599999999, 2.853920000000005,
                     "310736d37aa33cb3"]},
    ("window 10 ms", "chord"): {
        "messages_sent": 2842, "bytes_delivered": 1085390,
        "events_processed": 722, "lookup_hops": 2504,
        "max_inbound_bytes": 145064, "total_queueing_delay": 1.9358751999999544,
        "arrivals": [128, 0.6066239999999997, 1.4287968000000004,
                     "8649940231346603"]},
    ("one event per message", "can"): {
        "messages_sent": 3962, "bytes_delivered": 1242530,
        "events_processed": 4090, "lookup_hops": 3544,
        "max_inbound_bytes": 146952, "total_queueing_delay": 1.9181008000001099,
        "arrivals": [128, 1.0050464000000001, 2.8108512000000028,
                     "6a01ae4c18cde9e2"]},
    ("one event per message", "chord"): {
        "messages_sent": 2845, "bytes_delivered": 1085570,
        "events_processed": 2973, "lookup_hops": 2504,
        "max_inbound_bytes": 145244, "total_queueing_delay": 2.1173535999999604,
        "arrivals": [128, 0.6015488, 1.4055136000000004, "d669572c6494f084"]},
    ("cluster (jittered latency)", "can"): {
        "messages_sent": 3961, "bytes_delivered": 1242470,
        "events_processed": 4089, "lookup_hops": 3544,
        "max_inbound_bytes": 146892, "total_queueing_delay": 8.97941318997314,
        "arrivals": [128, 0.007808582594594356, 0.12105338259459422,
                     "cab42cc6da6b0e5f"]},
    ("cluster (jittered latency)", "chord"): {
        "messages_sent": 2842, "bytes_delivered": 1085390,
        "events_processed": 2970, "lookup_hops": 2504,
        "max_inbound_bytes": 145064, "total_queueing_delay": 8.965118261435107,
        "arrivals": [128, 0.00832998237385617, 0.11871078237385613,
                     "22df9092ea98286e"]},
    ("infinite bandwidth", "can"): {
        "messages_sent": 3960, "bytes_delivered": 1242410,
        "events_processed": 954, "lookup_hops": 3544,
        "max_inbound_bytes": 146832, "total_queueing_delay": 0.0,
        "arrivals": [128, 0.9999999999999999, 2.800000000000001,
                     "bf82f474a17622a0"]},
    ("infinite bandwidth", "chord"): {
        "messages_sent": 2843, "bytes_delivered": 1085450,
        "events_processed": 704, "lookup_hops": 2504,
        "max_inbound_bytes": 145124, "total_queueing_delay": 0.0,
        "arrivals": [128, 0.6, 1.4000000000000001, "bf9ac6dcadaafc5d"]},
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
