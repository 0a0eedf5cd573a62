"""Relays merge the routed lookups of one delivery group, and nothing else moves.

While a node handles one delivery group it holds the keys it forwards per
next hop and sends one ``*.route_batch`` per next hop when the group is
done.  That may only change how many messages carry the keys: every key
must reach the owner the builder places it at, in the number of hops an
offline walk of each layer's hop rules from its origin takes
(:func:`tests.reference.walk_lookup`), and every hop of every lookup must
still be a run of its own.  A lookup ends at the first node whose routing
table names the owner, one hop before the owner itself.  Checked on a
bulk-built 64-node CAN and a 64-node Chord ring under a 10 ms window.
Pairwise latencies differ, so lookups that are a different number of hops
from their origins meet in one batch.
"""

import pytest

from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology
from tests.reference import walk_lookup

NUM_NODES = 64
KEYS_PER_NODE = 12


class SpreadTopology(FullMeshTopology):
    """A full mesh whose pairwise latencies spread over 10-90 ms."""

    def latency_between(self, src, dst):
        return 0.0 if src == dst else 0.010 * (1 + (7 * src + 13 * dst) % 9)


def keys_of(origin):
    return [hash_key("oracle", (origin, i)) for i in range(KEYS_PER_NODE)]


def resolve_from_every_node(dht, window):
    """Every node looks up its own keys at t = 0: ``(answers, routings,
    relayed)``, ``answers[(origin, key)] = (owner, hops)`` as the origin
    heard it, ``relayed`` every routed batch delivered."""
    network = SimulatedNetwork(
        SpreadTopology(NUM_NODES, capacity_bytes_per_s=1_000_000.0),
        coalesce_window_s=window)
    builder = CanNetworkBuilder(dimensions=2) if dht == "can" else ChordNetworkBuilder()
    routings = builder.build_stabilized(network)
    answers = {}
    relayed = []
    for origin, routing in routings.items():
        node = network.node(origin)
        reply, relay = routing.PROTOCOL_BATCH_LOOKUP_REPLY, routing.PROTOCOL_ROUTE_BATCH
        on_reply, on_relay = node._handlers[reply], node._handlers[relay]

        def heard(node, message, origin=origin, handler=on_reply):
            payload = message.payload
            for key in payload["keys"]:
                assert (origin, key) not in answers  # one answer per key
                answers[origin, key] = (payload["owner"], payload["hops"])
            handler(node, message)

        def relaying(node, message, handler=on_relay):
            relayed.append(message)
            handler(node, message)

        node.replace_handler(reply, heard)
        node.replace_handler(relay, relaying)
    for origin, routing in routings.items():
        # Keys the origin or a neighbour owns resolve before lookup_batch
        # returns, with no message.
        synchronous = []
        routing.lookup_batch(keys_of(origin),
                             lambda owner, keys: synchronous.append((owner, keys)))
        for owner, keys in synchronous:
            for key in keys:
                answers[origin, key] = (owner, 0)
    network.run_until_idle()
    assert len(answers) == NUM_NODES * KEYS_PER_NODE
    assert all(answers[origin, key][0] == builder.owner_of_key(key)
               for origin, key in answers)
    assert not any(routing._pending_batch_lookups for routing in routings.values())
    assert not any(routing._outbox for routing in routings.values())
    return answers, routings, relayed


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_merging_at_relays_keeps_every_owner_and_hop_count(dht):
    answers, routings, relayed = resolve_from_every_node(dht, 0.010)
    walked, forwards = {}, 0
    for origin in routings:
        owners, count = walk_lookup(routings, origin, keys_of(origin))
        walked.update({(origin, key): answer for key, answer in owners.items()})
        forwards += count
    assert answers == walked
    # Each hop of each lookup is still one run; merging only packs the runs
    # that meet at a relay into fewer messages.
    runs = [run for message in relayed for run in message.payload["runs"]]
    assert len(runs) == forwards
    assert len(relayed) < forwards
    # Lookups a different number of hops from their origins shared batches.
    assert any(len({run[2] for run in message.payload["runs"]}) > 1
               for message in relayed)


def owner_answers_path_length(routings, origin, key):
    """Hops a lookup of ``key`` takes when only the owner may answer it:
    ``_next_hop`` from node to node until one owns the key."""
    address, came_from, hops = origin, None, 0
    coord = routings[origin]._coordinate(key)
    while not routings[address]._owns_coordinate(coord):
        address, came_from = routings[address]._next_hop(coord, came_from), address
        hops += 1
    return hops


def routed_keys(relayed):
    """``(origin, key)`` of every key a routed batch carried."""
    sent = set()
    for message in relayed:
        keys, start = message.payload["keys"], 0
        for origin, _request_id, _hops, count in message.payload["runs"]:
            sent.update((origin, key) for key in keys[start:start + count])
            start += count
    return sent


def names_owner(routing, owner):
    """Whether the table ``_owner_in_table`` reads may name ``owner``: every
    live CAN neighbour, but only Chord's successor."""
    if hasattr(routing, "neighbor_zones"):
        return owner in routing.neighbors()
    return owner == routing.successor


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_lookup_ends_one_hop_before_its_owner(dht):
    answers, routings, relayed = resolve_from_every_node(dht, 0.010)
    sent = routed_keys(relayed)
    named_at_origin = 0
    for (origin, key), (owner, hops) in answers.items():
        if owner == origin:
            assert hops == 0
            continue
        length = owner_answers_path_length(routings, origin, key)
        # The node one hop before the owner names it: one hop fewer.
        assert hops == length - 1, (origin, key)
        if names_owner(routings[origin], owner):
            # Owned by an origin neighbour: answered with no message at all.
            assert hops == 0 and (origin, key) not in sent
            named_at_origin += 1
        else:
            assert hops >= 1 and (origin, key) in sent
    assert named_at_origin > 0
