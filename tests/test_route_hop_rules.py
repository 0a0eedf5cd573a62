"""The rules one routed hop applies to each key of a ``*.route_batch``.

A key the relay owns is answered to the origin, a key past the hop limit or
without a way on is answered *unresolved*, any other key is forwarded.  A
one-key batch and a larger one are handled in different shapes, so every
rule is checked on both, on CAN and on Chord.  A batch can carry the keys of
several lookups, one run each; the rules apply per run, and each run is
answered to its own origin.
"""

import pytest

from repro.dht.api import BatchLookupState
from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.net.network import SimulatedNetwork
from repro.net.node import Node
from repro.net.topology import FullMeshTopology

NUM_NODES = 36
ORIGIN = 0
REQUEST_ID = 77
#: The second lookup of a two-run batch: its origin and request id.
OTHER, OTHER_REQUEST_ID = 5, 78
BATCH_SIZES = [1, 3]


def build(dht):
    network = SimulatedNetwork(FullMeshTopology(NUM_NODES, latency_s=0.02,
                                                capacity_bytes_per_s=float("inf")))
    builder = CanNetworkBuilder(dimensions=2) if dht == "can" else ChordNetworkBuilder()
    return network, builder.build_stabilized(network), builder


def keys_owned_by_neither(builder, *addresses, count):
    keys = (hash_key("hop", i) for i in range(10_000))
    return [key for key in keys
            if builder.owner_of_key(key) not in addresses][:count]


def await_answers(routing, keys, request_id=REQUEST_ID):
    """A pending lookup of ``keys`` at ``routing``, as a relay would see it."""
    answers = {"resolved": [], "unresolved": []}
    routing._pending_batch_lookups[request_id] = BatchLookupState(
        lambda owner, resolved: answers["resolved"].append((owner, resolved)),
        len(keys), on_unresolved=answers["unresolved"].append)
    return answers


def inject_route_batch(network, routing, relay, keys, runs):
    """Send ``relay`` a routed batch from ORIGIN; ``runs`` as on the wire,
    one ``(origin, request_id, hops, count)`` per lookup."""
    network.node(ORIGIN).send(
        relay, routing.PROTOCOL_ROUTE_BATCH,
        payload={"keys": keys, "runs": runs},
        payload_bytes=routing.ROUTE_HOP_BYTES * len(keys),
        hops=max(run[2] for run in runs))


def one_run(keys, hops):
    return [(ORIGIN, REQUEST_ID, hops, len(keys))]


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_batch_at_the_hop_limit_is_answered_unresolved(dht, size):
    network, routings, builder = build(dht)
    origin = routings[ORIGIN]
    relay = origin.neighbors()[0]
    keys = keys_owned_by_neither(builder, ORIGIN, relay, count=size)
    answers = await_answers(origin, keys)
    inject_route_batch(network, origin, relay, keys,
                       one_run(keys, origin.MAX_ROUTE_HOPS))
    network.run_until_idle()
    assert answers == {"resolved": [], "unresolved": [keys]}
    assert REQUEST_ID not in origin._pending_batch_lookups
    messages = network.stats.protocol_messages
    assert messages[origin.PROTOCOL_ROUTE_BATCH] == 1  # the injected one
    assert messages[origin.PROTOCOL_BATCH_LOOKUP_REPLY] == 1


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_batch_with_more_keys_than_its_run_counts_is_answered_unresolved_whole(
        dht, size):
    network, routings, builder = build(dht)
    origin = routings[ORIGIN]
    relay = origin.neighbors()[0]
    keys = keys_owned_by_neither(builder, ORIGIN, relay, count=size + 1)
    answers = await_answers(origin, keys[:size])
    inject_route_batch(network, origin, relay, keys, one_run(keys[:size], 1))
    network.run_until_idle()
    assert answers == {"resolved": [], "unresolved": [keys[:size]]}
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


# ------------------------------------------------- two lookups in one batch


def two_lookups(dht, size):
    """A relay next to ORIGIN, and a pending lookup at ORIGIN and at OTHER
    of ``size`` keys each, none owned by the three."""
    network, routings, builder = build(dht)
    origin, other = routings[ORIGIN], routings[OTHER]
    relay = next(address for address in origin.neighbors() if address != OTHER)
    keys = keys_owned_by_neither(builder, ORIGIN, OTHER, relay, count=2 * size)
    first, second = keys[:size], keys[size:]
    return (network, routings, builder, relay, first, second,
            await_answers(origin, first), await_answers(other, second,
                                                        OTHER_REQUEST_ID))


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_run_past_the_hop_limit_is_answered_while_the_other_is_forwarded(dht, size):
    (network, routings, builder, relay, first, second,
     first_answers, second_answers) = two_lookups(dht, size)
    origin = routings[ORIGIN]
    keys = first + second
    inject_route_batch(network, origin, relay, keys,
                       [(ORIGIN, REQUEST_ID, origin.MAX_ROUTE_HOPS, size),
                        (OTHER, OTHER_REQUEST_ID, 1, size)])
    network.run_until_idle()
    assert first_answers == {"resolved": [], "unresolved": [first]}
    assert second_answers["unresolved"] == []
    assert {key: owner for owner, owned in second_answers["resolved"]
            for key in owned} == {key: builder.owner_of_key(key) for key in second}
    other = routings[OTHER]
    assert not origin._pending_batch_lookups and not other._pending_batch_lookups
    # The forwarded run kept its own count: the relay is its second hop.
    assert min(other.lookup_hops_observed) >= 2
    assert network.stats.protocol_messages[origin.PROTOCOL_ROUTE_BATCH] > 1


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_disagreeing_run_counts_are_answered_unresolved_to_every_origin(dht, size):
    (network, routings, builder, relay, first, second,
     first_answers, second_answers) = two_lookups(dht, size)
    origin = routings[ORIGIN]
    keys = first + second
    inject_route_batch(network, origin, relay, keys,
                       [(ORIGIN, REQUEST_ID, 1, size),
                        (OTHER, OTHER_REQUEST_ID, 1, size + 1)])
    network.run_until_idle()
    assert first_answers == {"resolved": [], "unresolved": [first]}
    assert second_answers == {"resolved": [], "unresolved": [second]}
    messages = network.stats.protocol_messages
    assert messages[origin.PROTOCOL_ROUTE_BATCH] == 1  # nothing was routed
    assert messages[origin.PROTOCOL_BATCH_LOOKUP_REPLY] == 2


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_bounced_two_run_batch_reroutes_both_runs(dht, size):
    network, routings, builder = build(dht)
    origin, other = routings[ORIGIN], routings[OTHER]
    dead = origin._next_hop(origin._coordinate(hash_key("detour", 0)))
    assert dead != OTHER
    keys = [key for key in keys_through(builder, origin, dead, 2 * size + 4)
            if builder.owner_of_key(key) != OTHER][:2 * size]
    first, second = keys[:size], keys[size:]
    first_answers = await_answers(origin, first)
    second_answers = await_answers(other, second, OTHER_REQUEST_ID)
    network.fail_node(dead)
    # ORIGIN relays OTHER's lookup and forwards its own, merged, to ``dead``.
    origin._send_route_batch(dead, keys, [(ORIGIN, REQUEST_ID, 1, size),
                                          (OTHER, OTHER_REQUEST_ID, 2, size)])
    network.run_until_idle()
    assert dead not in origin.neighbors()
    for answers, wanted in ((first_answers, first), (second_answers, second)):
        assert answers["unresolved"] == []
        assert {key: owner for owner, owned in answers["resolved"]
                for key in owned} == {key: builder.owner_of_key(key)
                                      for key in wanted}
    assert not origin._pending_batch_lookups and not other._pending_batch_lookups


# ------------------------------------------------------- what a batch carries


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_routed_batch_carries_keys_and_runs_only(dht, monkeypatch):
    """Every hop derives a key's coordinate from the key, so no coordinate
    travels: a ``*.route_batch`` is its ``keys`` and its ``runs``, charged
    ``ROUTE_HOP_BYTES`` per key and ``RUN_BYTES`` per run after the first."""
    network, routings, builder = build(dht)
    origin = routings[ORIGIN]
    batches = []
    send = Node.send

    def recording_send(self, dst, protocol, payload=None, payload_bytes=0, hops=0):
        if protocol == origin.PROTOCOL_ROUTE_BATCH:
            batches.append((payload, payload_bytes))
        return send(self, dst, protocol, payload, payload_bytes, hops)

    monkeypatch.setattr(Node, "send", recording_send)
    keys = [hash_key("carry", i) for i in range(200)]
    resolved = {}
    for address in (ORIGIN, OTHER):
        routings[address].lookup_batch(keys, lambda owner, owned: resolved.update(
            dict.fromkeys(owned, owner)))
    network.run_until_idle()
    assert resolved == {key: builder.owner_of_key(key) for key in keys}
    assert batches and any(len(payload["runs"]) > 1 for payload, _ in batches)
    for payload, payload_bytes in batches:
        assert list(payload) == ["keys", "runs"]
        keys, runs = payload["keys"], payload["runs"]
        assert len(keys) == sum(run[3] for run in runs)
        assert payload_bytes == (origin.ROUTE_HOP_BYTES * len(keys)
                                 + origin.RUN_BYTES * (len(runs) - 1))
