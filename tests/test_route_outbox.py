"""Relays merge the routed lookups of one delivery group, and nothing else moves.

While a node handles one delivery group it holds the keys it forwards per
next hop and sends one ``*.route_batch`` per next hop when the group is
done.  That may only change how many messages carry the keys: every key
must reach the owner the builder places it at, in the number of hops an
offline walk of each layer's ``_next_hop`` from its origin takes
(:func:`tests.reference.walk_lookup`), and every hop of every lookup must
still be a run of its own.  Checked on a bulk-built 64-node CAN and a
64-node Chord ring under a 10 ms window.  Pairwise latencies differ, so
lookups that are a different number of hops from their origins meet in one
batch.
"""

import pytest

from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.net.network import Network
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
    network = Network(SpreadTopology(NUM_NODES, capacity_bytes_per_s=1_000_000.0),
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
        keys = keys_of(origin)
        routing.lookup_batch(keys, lambda owner, keys: None)
        for key in keys:
            if routing.owns(key):
                answers[origin, key] = (origin, 0)
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
