"""The rules one routed hop applies to each key of a ``*.route_batch``.

A key the relay owns is answered to the origin, a key past the hop limit or
without a way on is answered *unresolved*, any other key is forwarded.  A
one-key batch and a larger one are handled in different shapes, so every
rule is checked on both, on CAN and on Chord.
"""

import pytest

from repro.dht.api import BatchLookupState
from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.net.network import Network
from repro.net.topology import FullMeshTopology

NUM_NODES = 36
ORIGIN = 0
REQUEST_ID = 77
BATCH_SIZES = [1, 3]


def build(dht):
    network = Network(FullMeshTopology(NUM_NODES, latency_s=0.02,
                                       capacity_bytes_per_s=float("inf")))
    builder = CanNetworkBuilder(dimensions=2) if dht == "can" else ChordNetworkBuilder()
    return network, builder.build_stabilized(network), builder


def keys_owned_by_neither(builder, *addresses, count):
    keys = (hash_key("hop", i) for i in range(10_000))
    return [key for key in keys
            if builder.owner_of_key(key) not in addresses][:count]


def await_answers(routing, keys):
    """A pending lookup of ``keys`` at ``routing``, as a relay would see it."""
    answers = {"resolved": [], "unresolved": []}
    routing._pending_batch_lookups[REQUEST_ID] = BatchLookupState(
        lambda owner, resolved: answers["resolved"].append((owner, resolved)),
        len(keys), on_unresolved=answers["unresolved"].append)
    return answers


def inject_route_batch(network, routing, relay, keys, coords, hops):
    network.node(ORIGIN).send(
        relay, routing.PROTOCOL_ROUTE_BATCH,
        payload={"keys": keys, "coords": coords, "origin": ORIGIN,
                 "request_id": REQUEST_ID},
        payload_bytes=routing.ROUTE_HOP_BYTES * len(keys), hops=hops)


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_batch_at_the_hop_limit_is_answered_unresolved(dht, size):
    network, routings, builder = build(dht)
    origin = routings[ORIGIN]
    relay = origin.neighbors()[0]
    keys = keys_owned_by_neither(builder, ORIGIN, relay, count=size)
    answers = await_answers(origin, keys)
    inject_route_batch(network, origin, relay, keys,
                       [origin._coordinate(key) for key in keys],
                       hops=origin.MAX_ROUTE_HOPS)
    network.run_until_idle()
    assert answers == {"resolved": [], "unresolved": [keys]}
    assert REQUEST_ID not in origin._pending_batch_lookups
    messages = network.stats.protocol_messages
    assert messages[origin.PROTOCOL_ROUTE_BATCH] == 1  # the injected one
    assert messages[origin.PROTOCOL_BATCH_LOOKUP_REPLY] == 1


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_batch_with_mismatched_arrays_is_answered_unresolved_whole(dht, size):
    network, routings, builder = build(dht)
    origin = routings[ORIGIN]
    relay = origin.neighbors()[0]
    keys = keys_owned_by_neither(builder, ORIGIN, relay, count=size)
    answers = await_answers(origin, keys)
    coords = [origin._coordinate(key) for key in keys + keys[:1]]
    inject_route_batch(network, origin, relay, keys, coords, hops=1)
    network.run_until_idle()
    assert answers == {"resolved": [], "unresolved": [keys]}
    assert REQUEST_ID not in origin._pending_batch_lookups
    assert network.stats.protocol_messages[origin.PROTOCOL_ROUTE_BATCH] == 1


def keys_through(builder, routing, first_hop, count):
    """Keys whose greedy path leaves ``routing`` through ``first_hop``."""
    keys = []
    for i in range(10_000):
        key = hash_key("detour", i)
        owner = builder.owner_of_key(key)
        if (owner not in (routing.address, first_hop)
                and routing._next_hop(routing._coordinate(key)) == first_hop):
            keys.append(key)
            if len(keys) == count:
                return keys
    raise AssertionError(f"fewer than {count} keys route via {first_hop}")


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_bounced_batch_is_rerouted_around_the_dead_neighbour(dht, size):
    network, routings, builder = build(dht)
    origin = routings[ORIGIN]
    dead = origin._next_hop(origin._coordinate(hash_key("detour", 0)))
    keys = keys_through(builder, origin, dead, size)
    network.fail_node(dead)
    resolved = {}
    origin.lookup_batch(keys, lambda owner, owned: resolved.update(
        dict.fromkeys(owned, owner)))
    network.run_until_idle()
    # The origin heard the bounce and stepped around the dead node (later
    # relays may bounce off it too, before they learn of it).
    assert dead not in origin.neighbors()
    assert network.stats.messages_dropped >= 1
    assert resolved == {key: builder.owner_of_key(key) for key in keys}
    assert not origin._pending_batch_lookups
