"""A renewal round goes straight to the owner each item was last put at.

The publisher's renewal agent records, per tracked item, the node that took
it — where a fast load placed it, or where a routed put or renewal went —
and renews it there with no overlay lookup.  The receiver renews only what it
both holds live and still ``owns``; everything else it names missing, and
the publisher puts those items again through the routed put, which records
the new owner.  A renewal that bounces off a dead owner is restored the same
way.  Covered on CAN and Chord.
"""

from collections import Counter

import pytest

from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.dht.provider import RENEW_ITEM_BYTES, Provider
from repro.dht.storage import StoredItem
from repro.net.message import HEADER_BYTES
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology
from repro.stack import build_overlay
from tests.conftest import build_pier, build_workload
from tests.test_batch_apis import tap_put_chunks

NODES = 16
PUBLISHER = 0
LIFETIME_S = 60.0
LATENCY_S = 0.02
ENTRIES = [(f"key-{i}", {"v": i}) for i in range(60)]
ROUTED = ("can.route_batch", "can.batch_lookup_reply",
          "chord.route_batch", "chord.batch_lookup_reply")


def routed_messages(network):
    return sum(network.stats.protocol_messages.get(protocol, 0)
               for protocol in ROUTED)


def owner_of(routings, key):
    """The one node whose routing layer owns ``key``."""
    owners = [address for address, routing in routings.items()
              if routing.owns(key)]
    assert len(owners) == 1
    return owners[0]


def owners_recorded(agents, routings):
    """Whether every tracked record names the owner the routing layers do."""
    return all(record.owner == owner_of(routings, hash_key(
        record.namespace, record.resource_id))
        for agent in agents for record in agent.records.values())


def loaded_pier(dht, fast=True):
    """A 16-node deployment whose every node tracks its share of R and S."""
    pier = build_pier(NODES, dht=dht)
    workload = build_workload(NODES)
    for address, provider in pier.providers.items():
        # Created, not started: a fast=False load runs until idle.
        pier.renewal_agents[address] = provider.make_renewal_agent(30.0)
    for relation, rows in ((workload.r_relation, workload.r_by_node),
                           (workload.s_relation, workload.s_by_node)):
        pier.load_relation(relation, rows, lifetime=LIFETIME_S, fast=fast,
                           track_renewal=True)
    return pier


def renew_round(pier):
    pier.network.stats.reset()
    for agent in pier.renewal_agents.values():
        agent.renew_all()
    pier.run_until_idle()
    return pier.network.stats


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_round_after_a_fast_load_is_one_direct_chunk_per_owner(dht):
    pier = loaded_pier(dht)
    assert owners_recorded(pier.renewal_agents.values(), pier.routings)
    groups = {(address, record.namespace, record.lifetime, record.owner)
              for address, agent in pier.renewal_agents.items()
              for record in agent.records.values()
              if record.owner != address}
    before = {address: {(item.resource_id, item.instance_id): item.expires_at
                        for namespace in ("R", "S")
                        for item in provider.storage.scan(namespace, pier.now)}
              for address, provider in pier.providers.items()}
    pier.run(until=pier.now + 1.0)

    stats = renew_round(pier)

    # No lookup: one renewal chunk per remote owner, and no item was missing.
    assert stats.protocol_messages == {"prov.put_chunk": len(groups)}
    for address, provider in pier.providers.items():
        for namespace in ("R", "S"):
            for item in provider.storage.scan(namespace, pier.now):
                triple = (item.resource_id, item.instance_id)
                assert item.expires_at > before[address][triple]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_fast_false_load_learns_its_owners_in_the_first_round(dht):
    pier = loaded_pier(dht, fast=False)
    # The keys a publisher owns itself resolved before they were tracked.
    assert not owners_recorded(pier.renewal_agents.values(), pier.routings)
    renew_round(pier)
    assert owners_recorded(pier.renewal_agents.values(), pier.routings)
    stats = renew_round(pier)
    assert routed_messages(pier.network) == 0
    assert "prov.renew_missing" not in stats.protocol_messages


# --------------------------------------------- a message-level deployment


def deployment(dht, joiners=0):
    """``NODES`` stabilised nodes with Providers (and room for ``joiners``
    more); node 0 has put ``ENTRIES`` under instance 900 and tracks them."""
    network = SimulatedNetwork(FullMeshTopology(NODES + joiners, latency_s=LATENCY_S,
                                                capacity_bytes_per_s=float("inf")))
    builder = CanNetworkBuilder(dimensions=2) if dht == "can" else ChordNetworkBuilder()
    routings = builder.build_stabilized(network, addresses=range(NODES))
    providers = {address: Provider(network.node(address), routing,
                                   sweep_period_s=0.0)
                 for address, routing in routings.items()}
    agent = providers[PUBLISHER].make_renewal_agent(refresh_period=30.0)
    for rid, value in ENTRIES:
        agent.track("t", rid, 900, value, LIFETIME_S, 80)
    providers[PUBLISHER].put_batch(
        "t", [(rid, value, 900, 80) for rid, value in ENTRIES],
        lifetime=LIFETIME_S)
    network.run_until_idle()
    return network, routings, providers, agent


def join(network, dht, routings, providers):
    """A node joins the way a real cluster admits one (``repro.node``): every
    member rebuilds the overlay over the grown address list, rebinds its
    layer and its Provider to it, and hands the items it no longer owns to
    their new owners (one clock here, so no lifetime needs rebasing)."""
    address = len(routings)
    builder, rebuilt = build_overlay(dht, range(address + 1))
    for member, routing in rebuilt.items():
        node = network.node(member)
        routings[member] = routing.rebind(node)
        if member in providers:
            providers[member].rebind_routing(routing)
        else:
            providers[member] = Provider(node, routing, sweep_period_s=0.0)
    for member, provider in providers.items():
        moving = provider.storage.extract(
            lambda key, routing=provider.routing: not routing.owns(key))
        owners = builder.owners_of_keys([item.key for item in moving])
        for item, owner in zip(moving, owners):
            providers[owner].storage.store(item)
    return address


def tap_puts(providers):
    """Count, per (node, resourceID), the value-carrying chunks stored."""
    puts = Counter()
    for address, provider in providers.items():
        def store_chunk(payload, address=address, store=provider.store_chunk):
            if "values" in payload:
                puts.update((address, rid) for rid in payload["resource_ids"])
            store(payload)

        provider.store_chunk = store_chunk
    return puts


def expiry(providers, rid):
    return [(address, item.expires_at) for address, provider in providers.items()
            for item in provider.storage.scan("t", -float("inf"))
            if item.resource_id == rid]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_keys_a_join_moves_are_restored_once_and_then_renewed_directly(dht):
    network, routings, providers, agent = deployment(dht, joiners=1)
    assert owners_recorded([agent], routings)
    before = {rid: agent.records[("t", rid, 900)].owner for rid, _value in ENTRIES}
    joiner = join(network, dht, routings, providers)
    moved = {rid: owner_of(routings, hash_key("t", rid))
             for rid, _value in ENTRIES}
    moved = {rid: owner for rid, owner in moved.items() if owner != before[rid]}
    assert joiner in moved.values()  # the hand-off carried items to the joiner
    puts = tap_puts(providers)

    network.stats.reset()
    agent.renew_all()
    network.run_until_idle()
    # Each moved item is named missing once (by message when its old owner is
    # not the publisher) and put again once, at its new owner.
    named = [rid for rid in moved if before[rid] != PUBLISHER]
    replies = network.stats.protocol_messages.get("prov.renew_missing", 0)
    assert network.stats.bytes_for_protocol("prov.renew_missing") == (
        HEADER_BYTES * replies + RENEW_ITEM_BYTES * len(named))
    assert puts == Counter((owner, rid) for rid, owner in moved.items())
    assert owners_recorded([agent], routings)

    puts.clear()
    network.stats.reset()
    agent.renew_all()
    network.run_until_idle()
    assert routed_messages(network) == 0 and not puts
    assert "prov.renew_missing" not in network.stats.protocol_messages

    found = {}
    providers[3].get_batch("t", [rid for rid, _value in ENTRIES],
                           lambda results: found.update(results))
    network.run_until_idle()
    assert {rid: [item.value for item in items] for rid, items in found.items()} == {
        rid: [value] for rid, value in ENTRIES}
    assert not providers[PUBLISHER].put_bounces_by_namespace


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_live_copy_at_a_non_owner_is_not_renewed(dht):
    network, routings, providers, agent = deployment(dht)
    rid, value = next((rid, value) for rid, value in ENTRIES
                      if agent.records[("t", rid, 900)].owner != PUBLISHER)
    key = hash_key("t", rid)
    owner = agent.records[("t", rid, 900)].owner
    stranger = next(address for address in routings
                    if address not in (owner, PUBLISHER))
    # A copy a put left at a node that has since stopped owning the key.
    providers[stranger].storage.store(StoredItem(
        "t", rid, 900, value, key, network.now + LIFETIME_S, network.now,
        PUBLISHER, 80))
    agent.records[("t", rid, 900)].owner = stranger
    [(_, stale_expiry)] = expiry({stranger: providers[stranger]}, rid)
    [(_, owned_expiry)] = expiry({owner: providers[owner]}, rid)
    puts = tap_puts(providers)

    network.run(until=network.now + 1.0)
    agent.renew_all()
    network.run_until_idle()

    assert network.stats.protocol_messages["prov.renew_missing"] == 1
    assert puts == Counter({(owner, rid): 1})  # restored at the owner, ...
    assert expiry({stranger: providers[stranger]}, rid) == [(stranger, stale_expiry)]
    [(_, renewed)] = expiry({owner: providers[owner]}, rid)
    assert renewed > owned_expiry            # ... the stray copy left alone
    assert agent.records[("t", rid, 900)].owner == owner


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_renewal_to_an_owner_that_died_undetected_is_restored(dht):
    network, routings, providers, agent = deployment(dht)
    by_owner = Counter(record.owner for record in agent.records.values()
                       if record.owner != PUBLISHER)
    owner = by_owner.most_common(1)[0][0]
    held = {record.resource_id for record in agent.records.values()
            if record.owner == owner}
    puts = tap_puts(providers)
    died = []

    def die(destination):
        # The process dies as the renewal leaves and comes back empty, under
        # the same identity, before the bounce reaches the publisher.
        if destination == owner and not died:
            died.append(owner)
            network.fail_node(owner)
            providers[owner].handle_node_failure()
            network.simulator.schedule(1.5 * LATENCY_S, network.recover_node, owner)

    tap_put_chunks(network, PUBLISHER, on_send=die)
    agent.renew_all()
    network.run_until_idle()

    assert network.stats.messages_dropped == 1
    assert puts == Counter((owner, rid) for rid in held)
    assert not providers[PUBLISHER].put_bounces_by_namespace
    values = dict(ENTRIES)
    assert {item.resource_id: item.value for item in providers[owner].lscan("t")} == {
        rid: values[rid] for rid in held}
