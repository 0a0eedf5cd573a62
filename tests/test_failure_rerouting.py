"""Tests for transport bounce notifications and routing around failed nodes."""

import pytest

from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology
from tests.reference import answering_owner


def build(num_nodes, kind="can"):
    network = SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=0.02,
                                                capacity_bytes_per_s=float("inf")))
    if kind == "can":
        builder = CanNetworkBuilder(dimensions=2)
    else:
        builder = ChordNetworkBuilder()
    routings = builder.build_stabilized(network)
    return network, routings, builder


# -------------------------------------------------------------------- bounce


def test_bounce_handler_invoked_for_failed_destination():
    network = SimulatedNetwork(FullMeshTopology(3, latency_s=0.05,
                                                capacity_bytes_per_s=float("inf")))
    bounced = []
    network.node(0).register_bounce_handler("app", lambda node, msg: bounced.append(msg.dst))
    network.node(1).register_handler("app", lambda node, msg: None)
    network.fail_node(1)
    network.node(0).send(1, "app", payload="x")
    network.run_until_idle()
    assert bounced == [1]
    # The bounce arrives after roughly a round trip, not instantly.
    assert network.now == pytest.approx(0.10, abs=1e-6)


def test_no_bounce_without_registered_handler():
    network = SimulatedNetwork(FullMeshTopology(2, latency_s=0.05,
                                                capacity_bytes_per_s=float("inf")))
    network.node(1).register_handler("app", lambda node, msg: None)
    network.fail_node(1)
    network.node(0).send(1, "app")
    network.run_until_idle()  # nothing to assert beyond "does not crash"
    assert network.stats.messages_dropped == 1


def test_bounce_not_delivered_to_dead_sender():
    network = SimulatedNetwork(FullMeshTopology(2, latency_s=0.05,
                                                capacity_bytes_per_s=float("inf")))
    bounced = []
    network.node(0).register_bounce_handler("app", lambda node, msg: bounced.append(1))
    network.node(1).register_handler("app", lambda node, msg: None)
    network.fail_node(1)
    network.node(0).send(1, "app")
    network.fail_node(0)
    network.run_until_idle()
    assert bounced == []


# ----------------------------------------------------------- CAN re-routing


def test_can_lookup_routes_around_failed_intermediate_node():
    network, routings, builder = build(36, "can")
    # Pick a key owned by a far-away node, then fail some other nodes that
    # are neither the source nor the owner; the lookup must still resolve.
    key = hash_key("T", 17)
    owner = builder.owner_of_key(key)
    # Fail a couple of nodes that are neither the source, its direct
    # neighbours, nor the owner; the greedy path re-routes around them via
    # the bounce mechanism.  (If *all* of a node's neighbours fail, greedy
    # routing legitimately dead-ends — that loss is what the recall
    # experiment quantifies.)
    protected = {0, owner} | set(routings[0].neighbors())
    victims = [address for address in range(36) if address not in protected][:2]
    for victim in victims:
        network.fail_node(victim)
    results = []
    routings[0].lookup(key, results.append)
    network.run_until_idle()
    assert results == [owner]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_lookup_to_failed_owner_names_it_or_nothing_never_a_wrong_owner(dht):
    """The contract: a lookup names the true owner or nothing, never a live
    node that is not the owner.

    While the owner's failure is undetected, the node one hop before it
    names it from its routing table without contacting it, so every lookup
    names that true owner (before lookups ended there, none got a reply).
    Once every node has marked it dead, no table names it and no live node
    owns its keys: no lookup gets a reply."""
    network, routings, builder = build(25, dht)
    key = hash_key("T", 3)
    owner = builder.owner_of_key(key)
    network.fail_node(owner)
    origins = [address for address in routings if address != owner]
    for origin in origins:
        results = []
        routings[origin].lookup(key, results.append)
        network.run_until_idle()
        assert results == [owner], origin

    for routing in routings.values():
        routing.mark_neighbor_dead(owner)
    for origin in origins:
        results = []
        routings[origin].lookup(key, results.append)
        network.run_until_idle()
        # Soft-state semantics: no reply rather than a wrong owner.
        assert results == [], origin


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_and_get_to_an_undetected_failed_owner_bounce_and_mark_it_dead(dht):
    """A put to the named, dead owner bounces and counts as a lost put; a
    get bounces, and its retry's fresh lookup names the same owner (only the
    origin has marked it dead), so the get completes empty without a second
    request, and the origin has marked the owner dead."""
    network, routings, builder = build(25, dht)
    providers = providers_on(network, routings)
    owner = builder.owner_of_key(hash_key("T", 3))
    origin = next(address for address, routing in routings.items()
                  if address != owner and owner in routing.neighbors())
    network.fail_node(owner)
    get_requests = get_requests_sent_by(network.node(origin))
    provider = providers[origin]
    provider.put("T", 3, None, {"v": 1}, item_bytes=50)
    results = []
    provider.get("T", 3, results.append, scope=1)
    network.run_until_idle()
    assert provider.put_bounces_by_namespace == {"T": 1}
    assert results == [[]]
    assert get_requests == [owner]
    assert provider.scope_report(1)["failed"] == 1
    assert owner not in routings[origin].neighbors()


def providers_on(network, routings):
    from repro.dht.provider import Provider

    return {address: Provider(network.node(address), routing, sweep_period_s=0.0)
            for address, routing in routings.items()}


def get_requests_sent_by(node):
    """The destinations of the ``prov.get_batch`` requests ``node`` sends
    from now on, in order."""
    from repro.dht.provider import Provider

    destinations = []
    send = node.send

    def counting_send(dst, protocol, *args, **kwargs):
        if protocol == Provider.PROTOCOL_GET_BATCH:
            destinations.append(dst)
        return send(dst, protocol, *args, **kwargs)

    node.send = counting_send
    return destinations


def test_a_retry_that_names_the_bounced_owner_again_fails_at_once():
    """The owner is dead, undetected, and outside the origin's CAN table:
    the relay that names it has not learnt of its death, so a retry through
    it would bounce off the same owner.  The retry fails the get instead:
    exactly one request goes to the dead owner."""
    network, routings, builder = build(25, "can")
    owner, origin = 1, 2
    assert owner not in routings[origin].neighbors()
    rid = next(rid for rid in range(10_000)
               if builder.owner_of_key(hash_key("T", rid)) == owner
               and answering_owner(routings[origin], routings[origin]._coordinate(
                   hash_key("T", rid))) is None)
    provider = providers_on(network, routings)[origin]
    network.fail_node(owner)
    get_requests = get_requests_sent_by(network.node(origin))
    results = []
    provider.get("T", rid, results.append, scope=1)
    network.run_until_idle()
    assert results == [[]]
    assert get_requests == [owner]
    assert provider.scope_report(1) == {
        "issued": 1, "completed": 0, "failed": 1, "pending": 0}


def test_a_retry_that_names_another_owner_is_sent():
    """The overlay is rebuilt over the live members while the request to
    the dead owner is in flight: the retry's lookup names the key's new
    owner, and the get asks it."""
    network, routings, builder = build(25, "can")
    owner = 1
    live = [address for address in range(25) if address != owner]
    stand_ins = SimulatedNetwork(FullMeshTopology(25, latency_s=0.02,
                                                  capacity_bytes_per_s=float("inf")))
    rebuilder = CanNetworkBuilder(dimensions=2)
    rebuilt = rebuilder.build_stabilized(stand_ins, addresses=live)
    rid = next(rid for rid in range(10_000)
               if builder.owner_of_key(hash_key("T", rid)) == owner)
    heir = rebuilder.owner_of_key(hash_key("T", rid))
    origin = next(address for address in live if address != heir)
    providers = providers_on(network, routings)
    network.fail_node(owner)
    get_requests = get_requests_sent_by(network.node(origin))
    results = []
    providers[origin].get("T", rid, results.append, scope=1)
    while not get_requests:
        network.simulator.run(max_events=1)
    for address, routing in rebuilt.items():
        providers[address].rebind_routing(routing.rebind(network.node(address)))
    network.run_until_idle()
    assert get_requests == [owner, heir]
    assert results == [[]]  # the heir holds nothing under the key yet
    assert providers[origin].scope_report(1) == {
        "issued": 1, "completed": 1, "failed": 0, "pending": 0}


def test_can_marks_bounced_neighbor_dead():
    network, routings, builder = build(16, "can")
    source = routings[0]
    victim = source.neighbors()[0]
    network.fail_node(victim)
    # Any lookup that would transit the victim bounces and marks it dead.
    for resource in range(20):
        source.lookup(hash_key("U", resource), lambda owner: None)
    network.run_until_idle()
    assert victim not in source.neighbors() or victim not in source._dead_neighbors


# --------------------------------------------------------- Chord re-routing


def test_chord_lookup_routes_around_failed_intermediate_node():
    network, routings, builder = build(30, "chord")
    key = hash_key("T", 77)
    owner = builder.owner_of_key(key)
    victims = [address for address in range(30) if address not in (0, owner)][:5]
    for victim in victims:
        network.fail_node(victim)
    results = []
    routings[0].lookup(key, results.append)
    network.run_until_idle()
    # The lookup either reaches the true owner or, if the ring segment was
    # cut, is dropped — it must never report a node that does not own the key.
    assert results in ([owner], [])


def test_provider_put_survives_intermediate_failures():
    """End-to-end: a put routed around failed intermediates still lands at its owner."""
    from repro.dht.provider import Provider

    network, routings, builder = build(30, "can")
    providers = {
        address: Provider(network.node(address), routings[address], sweep_period_s=0.0)
        for address in range(30)
    }
    key_owner = builder.owner_of_key(hash_key("tbl", "the-key"))
    protected = {0, key_owner} | set(routings[0].neighbors())
    victims = [address for address in range(30) if address not in protected][:2]
    for victim in victims:
        network.fail_node(victim)
    providers[0].put("tbl", "the-key", None, {"v": 1}, item_bytes=50)
    network.run_until_idle()
    assert providers[key_owner].get_local("tbl", "the-key")
