"""Renewal by name and its repair path (paper Table 3 ``renew``).

A renewal round ships ``(resourceID, instanceID)`` pairs in a value-less
``prov.put_chunk``; the owner extends what it holds live and names the rest
in one ``prov.renew_missing`` reply, and the publisher's renewal agent puts
exactly those items again, values and all.  Covered on CAN and Chord.
"""

from collections import Counter

import pytest

from repro.core.stats import STATS_NAMESPACE
from repro.dht.naming import hash_key
from repro.dht.provider import RENEW_ITEM_BYTES
from repro.net.message import HEADER_BYTES
from tests.test_batch_apis import ENTRIES, build_network, tap_put_chunks

PUBLISHER = 0
LIFETIME_S = 60.0


def published(dht, lifetime=LIFETIME_S):
    """A deployment whose node 0 has put and tracks ``ENTRIES`` under id 900."""
    network, providers, builder = build_network(dht)
    publisher = providers[PUBLISHER]
    agent = publisher.make_renewal_agent(refresh_period=30.0)
    publisher.put_batch("t", [(rid, value, 900, 80) for rid, value in ENTRIES],
                        lifetime=lifetime)
    for rid, value in ENTRIES:
        agent.track("t", rid, 900, value, lifetime, 80)
    network.run_until_idle()
    return network, providers, builder, agent


def tap(providers, namespace="t"):
    """Record, per node, the triples of every value-carrying chunk it stores
    and of every ``newData`` upcall it makes."""
    puts, announced = Counter(), Counter()
    for address, provider in providers.items():
        def store_chunk(payload, address=address, store=provider.store_chunk):
            if "values" in payload:
                puts.update((address, rid, iid) for rid, iid in zip(
                    payload["resource_ids"], payload["instance_ids"]))
            store(payload)

        provider.store_chunk = store_chunk
        provider.on_new_data(namespace, lambda items, address=address: announced.update(
            (address, item.resource_id, item.instance_id) for item in items))
    return puts, announced


def remote_owner(builder):
    """The owner other than the publisher holding most of ``ENTRIES``, and
    the resource ids it holds."""
    by_owner = {}
    for rid, _value in ENTRIES:
        owner = builder.owner_of_key(hash_key("t", rid))
        if owner != PUBLISHER:
            by_owner.setdefault(owner, []).append(rid)
    return max(by_owner.items(), key=lambda pair: len(pair[1]))


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_failure_free_round_renews_by_name_and_puts_nothing(dht):
    network, providers, builder, agent = published(dht)
    puts, announced = tap(providers)
    network.stats.reset()
    before = {address: {item.resource_id: item.expires_at
                        for item in provider.storage.scan("t", network.now)}
              for address, provider in providers.items()}
    assert agent.renew_all() == len(ENTRIES)
    network.run_until_idle()

    assert not puts and not announced
    assert "prov.renew_missing" not in network.stats.protocol_messages
    remote = sum(1 for rid, _value in ENTRIES
                 if builder.owner_of_key(hash_key("t", rid)) != PUBLISHER)
    # 16 B per renewed name over the header: no value crossed the network.
    chunks = network.stats.protocol_messages["prov.put_chunk"]
    assert network.stats.bytes_for_protocol("prov.put_chunk") == (
        HEADER_BYTES * chunks + RENEW_ITEM_BYTES * remote)
    for address, provider in providers.items():
        for item in provider.storage.scan("t", network.now):
            assert item.expires_at > before[address][item.resource_id]
            assert item.value == dict(ENTRIES)[item.resource_id]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_an_owner_that_lost_its_store_gets_exactly_the_lost_records_again(dht):
    network, providers, builder, agent = published(dht)
    owner, lost = remote_owner(builder)
    network.fail_node(owner)
    providers[owner].handle_node_failure()
    network.recover_node(owner)
    puts, announced = tap(providers)
    network.stats.reset()
    agent.renew_all()
    network.run_until_idle()

    expected = Counter((owner, rid, 900) for rid in lost)
    assert puts == expected           # live items got no put ...
    assert announced == expected      # ... and each lost one is news once
    # Each lost item is named once, in a reply per renewal chunk it was in.
    replies = network.stats.protocol_messages["prov.renew_missing"]
    assert network.stats.bytes_for_protocol("prov.renew_missing") == (
        HEADER_BYTES * replies + RENEW_ITEM_BYTES * len(lost))
    values = dict(ENTRIES)
    for rid in lost:
        [item] = providers[owner].get_local("t", rid)
        assert (item.value, item.size_bytes, item.instance_id) == (values[rid], 80, 900)
    assert not providers[PUBLISHER].put_bounces_by_namespace


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_an_expired_but_unswept_item_counts_as_missing(dht):
    network, providers, builder, agent = published(dht, lifetime=5.0)
    owner, lost = remote_owner(builder)
    network.simulator.schedule(6.0, lambda: None)  # past the lifetime, no sweep
    network.run_until_idle()
    # Still in the owner's index: nothing has expired it yet.
    assert {item.resource_id for item in providers[owner].storage.scan(
        "t", -float("inf"))} == set(lost)
    puts, announced = tap(providers)
    agent.renew_all()
    network.run_until_idle()

    owners = {rid: builder.owner_of_key(hash_key("t", rid)) for rid, _v in ENTRIES}
    everything = Counter((owners[rid], rid, 900) for rid, _value in ENTRIES)
    assert puts == everything and announced == everything
    assert sum(provider.storage.count("t", network.now)
               for provider in providers.values()) == len(ENTRIES)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_an_untracked_statistics_partial_is_not_resurrected(dht):
    """The owner purged a dead publisher's partial and the publisher stopped
    tracking it while the renewal was in flight: the missing reply finds no
    record, so nothing is put and the data tuples are unaffected."""
    network, providers, builder, agent = published(dht)
    stats_rid = next(f"R@{i}" for i in range(1000)
                     if builder.owner_of_key(hash_key(STATS_NAMESPACE, f"R@{i}"))
                     != PUBLISHER)
    providers[PUBLISHER].put(STATS_NAMESPACE, stats_rid, 901, {"rows": 3},
                             lifetime=LIFETIME_S)
    agent.track(STATS_NAMESPACE, stats_rid, 901, {"rows": 3}, LIFETIME_S, 80)
    network.run_until_idle()
    stats_owner = builder.owner_of_key(hash_key(STATS_NAMESPACE, stats_rid))
    assert providers[stats_owner].storage.purge_publisher(STATS_NAMESPACE, PUBLISHER) == 1
    puts, _announced = tap(providers, STATS_NAMESPACE)

    agent.renew_all()                            # the round leaves ...
    assert agent.untrack_namespace(STATS_NAMESPACE) == 1  # ... then the failure
    network.run_until_idle()

    assert network.stats.protocol_messages["prov.renew_missing"] >= 1
    assert not puts
    assert all(provider.storage.count(STATS_NAMESPACE) == 0
               for provider in providers.values())
    assert sum(provider.storage.count("t", network.now)
               for provider in providers.values()) == len(ENTRIES)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_renewal_chunk_with_disagreeing_arrays_is_dropped_whole(dht):
    network, providers, builder, _agent = published(dht)
    owner, held = remote_owner(builder)
    before = {item.resource_id: item for item in providers[owner].lscan("t")}
    network.node(PUBLISHER).send(owner, "prov.put_chunk", payload={
        "namespace": "t", "resource_ids": held, "instance_ids": [900] * (len(held) - 1),
        "keys": [hash_key("t", rid) for rid in held], "lifetime": 1e6,
        "publisher": PUBLISHER,
    }, payload_bytes=RENEW_ITEM_BYTES * len(held))
    network.run_until_idle()

    assert providers[owner].put_bounces_by_namespace == {"t": len(held)}
    assert {item.resource_id: item for item in providers[owner].lscan("t")} == before
    assert "prov.renew_missing" not in network.stats.protocol_messages


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_missing_reply_with_disagreeing_arrays_is_dropped_whole(dht):
    network, providers, builder, _agent = published(dht)
    owner, held = remote_owner(builder)
    puts, _announced = tap(providers)
    network.node(owner).send(PUBLISHER, "prov.renew_missing", payload={
        "namespace": "t", "resource_ids": held, "instance_ids": [900] * (len(held) + 1),
    }, payload_bytes=RENEW_ITEM_BYTES * len(held))
    network.run_until_idle()

    assert providers[PUBLISHER].put_bounces_by_namespace == {"t": len(held)}
    assert not puts


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_node_without_an_agent_counts_missing_items_as_lost_puts(dht):
    network, providers, builder = build_network(dht)
    renewer = providers[PUBLISHER]
    renewer.renew_batch("t", [rid for rid, _value in ENTRIES], [900] * len(ENTRIES))
    network.run_until_idle()
    assert renewer.put_bounces_by_namespace == {"t": len(ENTRIES)}
    assert all(len(provider.storage) == 0 for provider in providers.values())


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_bounced_and_unroutable_renewals_are_counted_like_puts(dht):
    """A renewal sent as its owner dies bounces; one whose only possible hop
    is known dead cannot be routed.  Both count their items as lost puts.

    The hop must be known dead: while it is not, the publisher's table names
    it as the owner, and the renewal is sent there directly and bounces."""
    _network, _providers, builder = build_network(dht)
    owner, held = remote_owner(builder)
    network, providers, _builder = build_network(dht)
    tap_put_chunks(network, PUBLISHER, on_send=network.fail_node)
    providers[PUBLISHER].renew_batch("t", held, [900] * len(held))
    network.run_until_idle()
    assert not network.node(owner).alive
    assert providers[PUBLISHER].put_bounces_by_namespace == {"t": len(held)}

    network, providers, builder = build_network(dht, num_nodes=2)
    remote = [rid for rid, _value in ENTRIES
              if builder.owner_of_key(hash_key("t", rid)) == 1]
    network.fail_node(1)
    providers[0].routing.mark_neighbor_dead(1)  # detected: no hop is left
    providers[0].make_renewal_agent(30.0)  # node 0's own keys: missing, untracked
    providers[0].renew_batch("t", [rid for rid, _value in ENTRIES], [900] * len(ENTRIES))
    network.run_until_idle()
    assert remote and providers[0].put_bounces_by_namespace == {"t": len(remote)}


def test_both_renewal_payloads_round_trip_through_the_wire_codec():
    from tests.test_wire_codec import wire_message
    from tests.test_wire_fuzz import same

    renewal = {
        "namespace": "ns", "resource_ids": [("composite", 9), "s", 7, 2**70],
        "instance_ids": [5, 2**40, 7, 8],
        "keys": [hash_key("ns", rid) for rid in [("composite", 9), "s", 7, 2**70]],
        "lifetime": 60.0, "publisher": 3,
    }
    missing = {"namespace": "ns", "resource_ids": [("composite", 9), 2**70],
               "instance_ids": [5, 8]}
    for protocol, payload in (("prov.put_chunk", renewal),
                              ("prov.renew_missing", missing)):
        restored = wire_message(protocol, payload)
        assert same(restored.payload, payload) and restored.protocol == protocol
