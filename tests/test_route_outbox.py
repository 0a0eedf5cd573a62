"""Relays merge the routed lookups of one delivery group, and nothing else moves.

While a node handles one coalesced delivery group it holds the keys it
forwards per next hop and sends one ``*.route_batch`` per next hop when the
group is done.  That may only change how many messages carry the keys: every
key must reach the same owner in the same number of hops as when each
message is delivered alone.  The oracle is the uncoalesced run of the same
lookups, on a bulk-built 64-node CAN and a 64-node Chord ring.  Pairwise
latencies differ, so lookups that are a different number of hops from their
origins meet in one batch.
"""

import pytest

from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.net.network import Network
from repro.net.topology import FullMeshTopology

NUM_NODES = 64
KEYS_PER_NODE = 12


class SpreadTopology(FullMeshTopology):
    """A full mesh whose pairwise latencies spread over 10-90 ms."""

    def latency_between(self, src, dst):
        return 0.0 if src == dst else 0.010 * (1 + (7 * src + 13 * dst) % 9)


def resolve_from_every_node(dht, window):
    """Every node looks up its own keys at t = 0: ``(answers, network,
    mixed)``, ``answers[(origin, key)] = (owner, hops)`` as the origin heard
    it, ``mixed`` the routed batches delivered with runs of unequal hops."""
    network = Network(SpreadTopology(NUM_NODES, capacity_bytes_per_s=1_000_000.0),
                      coalesce_window_s=window)
    builder = CanNetworkBuilder(dimensions=2) if dht == "can" else ChordNetworkBuilder()
    routings = builder.build_stabilized(network)
    answers = {}
    mixed = []
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

        def relayed(node, message, handler=on_relay):
            if len({run[2] for run in message.payload["runs"]}) > 1:
                mixed.append(message)
            handler(node, message)

        node.replace_handler(reply, heard)
        node.replace_handler(relay, relayed)
    for origin, routing in routings.items():
        keys = [hash_key("oracle", (origin, i)) for i in range(KEYS_PER_NODE)]
        routing.lookup_batch(keys, lambda owner, keys: None)
        for key in keys:
            if routing.owns(key):
                answers[origin, key] = (origin, 0)
    network.run_until_idle()
    assert len(answers) == NUM_NODES * KEYS_PER_NODE
    assert all(answers[origin, key][0] == builder.owner_of_key(key)
               for origin, key in answers)
    assert not any(routing._pending_batch_lookups for routing in routings.values())
    return answers, network, mixed


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_merging_at_relays_keeps_every_owner_and_hop_count(dht):
    alone, alone_network, _ = resolve_from_every_node(dht, None)
    merged, merged_network, mixed = resolve_from_every_node(dht, 0.010)
    assert merged == alone
    assert (sum(hops for _owner, hops in merged.values())
            == sum(hops for _owner, hops in alone.values()))
    route_batch = f"{dht}.route_batch"
    assert (merged_network.stats.protocol_messages[route_batch]
            < alone_network.stats.protocol_messages[route_batch])
    # Lookups a different number of hops from their origins shared batches.
    assert mixed
