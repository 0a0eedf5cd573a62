"""Chord multicasts go down a finger-interval tree; CAN's go outward.

A Chord multicast reaches ``n`` nodes with exactly ``n - 1`` ``mc.flood``
sends, each carrying the ring limit of the stretch its receiver covers, and
every node delivers it once.  A child that died undetected (its send
bounces) and a successor detected dead (nothing in the tree reaches the
nodes behind it) each start the repair wave, a flood, and every live node
still delivers exactly once.  Under Figure 6 churn no query leaves state behind.  CAN's
children are its live neighbours strictly farther from the origin zone's
centre: ``2n`` sends on a regular torus grid.  A node whose every strictly
closer neighbour is dead still delivers, through the flood its parents fall
back to.  A node forgets an envelope id ``DEDUP_HORIZON_S`` after first
seeing it, and suppresses a duplicate that comes earlier.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.multicast import DEDUP_HORIZON_S, MulticastService
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_fig6_recall_vs_failures import (  # noqa: E402
    STRATEGIES, build_point, run_point)


def make_network(num_nodes):
    return SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=0.1,
                                             capacity_bytes_per_s=float("inf")))


def attach_multicast(network, routings):
    """One service per node; returns them and a per-node delivery counter."""
    delivered = Counter()
    services = {}
    for address, routing in routings.items():
        service = MulticastService(network.node(address), routing)
        service.subscribe("ns", lambda *_, address=address:
                          delivered.update([address]))
        services[address] = service
    return services, delivered


def stabilised(dht, num_nodes):
    network = make_network(num_nodes)
    builder = (ChordNetworkBuilder() if dht == "chord"
               else CanNetworkBuilder(dimensions=2))
    return network, builder.build_stabilized(network)


def multicast_from(network, services, origin):
    """Send one multicast from ``origin``; return the ``mc.flood`` sends."""
    network.stats.reset()
    services[origin].multicast("ns", 1, "query")
    network.run_until_idle()
    return network.stats.protocol_messages.get(MulticastService.PROTOCOL, 0)


@pytest.mark.parametrize("num_nodes", [16, 64])
def test_a_stabilised_ring_is_covered_with_n_minus_one_sends(num_nodes):
    network, routings = stabilised("chord", num_nodes)
    services, delivered = attach_multicast(network, routings)
    for round_, origin in enumerate((0, 5, num_nodes - 1), start=1):
        assert multicast_from(network, services, origin) == num_nodes - 1
        assert delivered == Counter({address: round_ for address in routings})


def test_a_tree_copy_carries_the_limit_of_its_stretch():
    """Each child is sent the identifier of the next child; the last child
    the parent's own limit, which at the origin is its own identifier."""
    _network, routings = stabilised("chord", 16)
    origin = routings[0]
    children = origin.broadcast_children(origin.broadcast_scope())
    identifiers = [routings[child].identifier for child, _limit in children]
    assert [limit for _child, limit in children] == (
        identifiers[1:] + [origin.identifier])
    assert len(children) == len(set(children)) >= 3


@pytest.mark.parametrize("detected", [True, False],
                         ids=["dead successor", "undetected dead child"])
def test_the_repair_wave_covers_every_live_node_once(detected):
    """The origin's successor dies.  Detected, the origin cannot reach the
    nodes before its next live finger and floods; undetected, its send to
    the successor bounces and it floods.  Either way each live node
    delivers once."""
    network, routings = stabilised("chord", 32)
    services, delivered = attach_multicast(network, routings)
    origin = 3
    dead = routings[origin].successor
    network.node(dead).fail()
    if detected:
        for routing in routings.values():
            routing.mark_neighbor_dead(dead)
        assert routings[origin].broadcast_children(
            routings[origin].broadcast_scope()) is None
    sends = multicast_from(network, services, origin)
    live = [address for address in routings if address != dead]
    assert delivered == Counter({address: 1 for address in live})
    assert sends > len(live) - 1  # the repair flood came on top
    assert services[origin].flood_bounces == (0 if detected else 1)


def test_a_dead_child_deeper_in_the_tree_is_repaired_by_its_parent():
    """A relay's child dies undetected: the relay floods, the others do not
    need to, and every live node delivers once."""
    network, routings = stabilised("chord", 64)
    services, delivered = attach_multicast(network, routings)
    origin = 0
    # The last child covers the half of the ring behind the origin.
    child, limit = routings[origin].broadcast_children(
        routings[origin].broadcast_scope())[-1]
    grandchild = routings[child].broadcast_children(limit)[0][0]
    network.node(grandchild).fail()
    multicast_from(network, services, origin)
    assert delivered == Counter({address: 1 for address in routings
                                 if address != grandchild})
    assert sum(service.flood_bounces for service in services.values()) >= 1


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_fig6_chord_churn_leaves_no_query_state(seed):
    """Detected-dead successors are common at 6 %/min: without the repair
    wave, queries left state behind on the nodes behind them."""
    pier, workload, client = build_point(48, "chord", 0.06, seed)
    for strategy in STRATEGIES:
        point = run_point(pier, workload, client, strategy)
        assert point["leftover_states"] == 0, point
        assert point["hung_queries"] == 0, point


#: ``mc.flood`` sends of one CAN multicast (2-d, stabilised).  Re-recorded
#: when CAN became a torus and its multicast went outward: each node is sent
#: one copy per strictly closer neighbour, ``2n`` in all on the 4 x 4 and
#: 8 x 8 torus grids (the square's flood sent 33 and 161, each node to its
#: neighbours but one).
CAN_OUTWARD_SENDS = {16: 32, 64: 128}


@pytest.mark.parametrize("num_nodes", sorted(CAN_OUTWARD_SENDS))
def test_can_multicasts_outward_with_2n_sends(num_nodes):
    network, routings = stabilised("can", num_nodes)
    services, delivered = attach_multicast(network, routings)
    for origin in (0, 5, 11):
        assert multicast_from(network, services, origin) == (
            CAN_OUTWARD_SENDS[num_nodes])
    assert set(delivered.values()) == {3}


@pytest.mark.parametrize("detected", [True, False],
                         ids=["dead-marked", "undetected dead"])
def test_can_nodes_behind_a_dead_neighbour_still_deliver(detected):
    """On the 8 x 8 torus a node straight out from the origin along one axis
    has one strictly closer neighbour.  That neighbour dies.  Marked dead,
    it makes its parents flood (the outward rule alone never reaches the
    node behind it); undetected, the send to it bounces and the sender
    floods.  Either way every live node delivers once."""
    network, routings = stabilised("can", 64)
    services, delivered = attach_multicast(network, routings)
    origin = 0
    scope = routings[origin].broadcast_scope()

    def distance(address):
        return min(zone.distance_to_point(scope)
                   for zone in routings[address].zones)

    def closer(address):
        return [neighbor for neighbor in routings[address].neighbor_zones
                if distance(neighbor) < distance(address)]

    dead, behind = next((closer(address)[0], address) for address in routings
                        if len(closer(address)) == 1
                        and closer(address) != [origin])
    network.node(dead).fail()
    if detected:
        for routing in routings.values():
            routing.mark_neighbor_dead(dead)
        for parent in closer(dead):
            assert routings[parent].broadcast_children(scope) is None
    multicast_from(network, services, origin)
    assert delivered[behind] == 1
    assert delivered == Counter({address: 1 for address in routings
                                 if address != dead})
    bounces = sum(service.flood_bounces for service in services.values())
    assert (bounces == 0) == detected  # undetected, the flood hits it too


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_fig6_can_churn_leaves_no_query_state(seed):
    """Dead neighbours are common at 6 %/min: without the flood fallback the
    outward rule left query state behind on the nodes beyond them."""
    pier, workload, client = build_point(48, "can", 0.06, seed)
    for strategy in STRATEGIES:
        point = run_point(pier, workload, client, strategy)
        assert point["leftover_states"] == 0, point
        assert point["hung_queries"] == 0, point


def test_the_dedup_sets_stay_bounded_and_still_suppress_duplicates():
    """Thousands of multicasts a second apart leave at most a horizon's
    worth of ids per node; a copy of one seen inside the horizon is
    dropped, one past it is new again."""
    network, routings = stabilised("chord", 8)
    services, delivered = attach_multicast(network, routings)
    origins = list(routings)
    for count in range(3000):
        services[origins[count % len(origins)]].multicast("ns", count, "q")
        network.run(until=network.now + 1.0)
    network.run_until_idle()
    assert set(delivered.values()) == {3000}
    bound = int(DEDUP_HORIZON_S) + 1
    for service in services.values():
        assert 0 < len(service._seen) <= bound
        assert len(service._expiry) == len(service._seen)
        assert service._flooded <= service._seen

    late = (0, -1)  # an id no multicast takes
    copy = {"envelope": {"id": late, "origin": 0, "entries": [
        {"namespace": "ns", "resource_id": -1, "item": "q"}]},
        "payload_bytes": 10, "scope": routings[1].identifier}
    assert services[1]._first_sight(late)
    network.run(until=network.now + DEDUP_HORIZON_S - 1.0)
    network.node(1).deliver(Message(0, 1, MulticastService.PROTOCOL,
                                    payload=copy, payload_bytes=10))
    network.run_until_idle()
    assert delivered[1] == 3000  # inside the horizon: suppressed
    network.run(until=network.now + 2.0)
    network.node(1).deliver(Message(0, 1, MulticastService.PROTOCOL,
                                    payload=copy, payload_bytes=10))
    network.run_until_idle()
    assert delivered[1] == 3001  # past it: forgotten, delivered again
