"""Tests for the batched message path: DHT batch APIs and network coalescing.

The contract under test: batched operations are *semantically identical* to
their scalar equivalents — same stored items, same ``newData`` callbacks,
same ``get`` results — while collapsing per-item messages into per-
destination messages.  Covered for both CAN and Chord, including a node
failing mid-batch.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.dht.api import RoutingLayer
from repro.dht.can import CanNetworkBuilder, CanRouting
from repro.dht.chord import ChordNetworkBuilder, ChordRouting
from repro.dht.naming import hash_key
from repro.dht.provider import Provider
from repro.net.network import Network
from repro.net.topology import FullMeshTopology


def build_network(dht="can", num_nodes=16, latency=0.02,
                  coalesce_window_s=0.0, capacity=math.inf,
                  request_timeout_s=None):
    network = Network(
        FullMeshTopology(num_nodes, latency_s=latency,
                         capacity_bytes_per_s=capacity),
        coalesce_window_s=coalesce_window_s,
    )
    if dht == "can":
        builder = CanNetworkBuilder(dimensions=2)
    else:
        builder = ChordNetworkBuilder()
    routings = builder.build_stabilized(network)
    providers = {
        address: Provider(network.node(address), routings[address],
                          sweep_period_s=0.0, request_timeout_s=request_timeout_s)
        for address in range(num_nodes)
    }
    return network, providers, builder


ENTRIES = [(f"key-{i}", {"v": i}) for i in range(20)]


def collect_stored(providers, namespace):
    stored = {}
    for provider in providers.values():
        for resource_id, _value in ENTRIES:
            for item in provider.get_local(namespace, resource_id):
                stored.setdefault(resource_id, []).append(item.value)
    return stored


# ----------------------------------------------------------- put_batch


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_equals_sequential_puts(dht):
    """Batched puts land the same items at the same owners as scalar puts."""
    net_a, prov_a, _ = build_network(dht)
    prov_a[0].put_batch("t", ENTRIES, item_bytes=64)
    net_a.run_until_idle()

    net_b, prov_b, _ = build_network(dht)
    for resource_id, value in ENTRIES:
        prov_b[0].put("t", resource_id, None, value, item_bytes=64)
    net_b.run_until_idle()

    stored_batched = collect_stored(prov_a, "t")
    stored_scalar = collect_stored(prov_b, "t")
    assert stored_batched == stored_scalar
    assert len(stored_batched) == len(ENTRIES)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_items_land_at_key_owners(dht):
    network, providers, builder = build_network(dht)
    providers[3].put_batch("t", ENTRIES)
    network.run_until_idle()
    for resource_id, value in ENTRIES:
        owner = builder.owner_of_key(hash_key("t", resource_id))
        values = [item.value for item in providers[owner].get_local("t", resource_id)]
        assert values == [value]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_fires_new_data_per_item(dht):
    """Every item of a batch fires its own newData callback on its owner."""
    network, providers, _builder = build_network(dht)
    arrivals = []
    for provider in providers.values():
        provider.on_new_data(
            "t", lambda items: arrivals.extend(item.resource_id for item in items))
    providers[0].put_batch("t", ENTRIES)
    network.run_until_idle()
    assert sorted(arrivals) == sorted(rid for rid, _v in ENTRIES)


def test_put_batch_returns_aligned_instance_ids():
    network, providers, _builder = build_network()
    ids = providers[0].put_batch("t", ENTRIES)
    assert len(ids) == len(ENTRIES)
    assert len(set(ids)) == len(ids)
    # Explicit instance ids in entries are honoured.
    ids2 = providers[0].put_batch("t", [("k", "v", 777)])
    assert ids2 == [777]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_uses_fewer_messages_than_scalar_puts(dht):
    net_a, prov_a, _ = build_network(dht)
    prov_a[0].put_batch("t", ENTRIES)
    net_a.run_until_idle()

    net_b, prov_b, _ = build_network(dht)
    for resource_id, value in ENTRIES:
        prov_b[0].put("t", resource_id, None, value)
    net_b.run_until_idle()

    assert net_a.stats.messages_sent < net_b.stats.messages_sent
    # The put traffic itself is one message per destination, not per item.
    batched_puts = net_a.stats.protocol_messages.get("prov.put_chunk", 0)
    scalar_puts = net_b.stats.protocol_messages.get("prov.put_chunk", 0)
    assert 0 < batched_puts < scalar_puts


# ------------------------------------------------------ mid-batch failure


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_survives_mid_batch_node_failure(dht):
    """A destination dying mid-batch loses only its own items.

    The batch is issued, then one owner node fails before delivery; items
    routed to live owners must still be stored and fire newData, and the
    simulation must drain without errors.
    """
    network, providers, builder = build_network(dht)
    owners = {rid: builder.owner_of_key(hash_key("t", rid)) for rid, _v in ENTRIES}
    publisher = 0
    victim = next(owner for owner in owners.values() if owner != publisher)

    arrivals = []
    for provider in providers.values():
        provider.on_new_data(
            "t", lambda items: arrivals.extend(item.resource_id for item in items))

    providers[publisher].put_batch("t", ENTRIES)
    network.fail_node(victim)
    network.run_until_idle()

    survivors = sorted(rid for rid, owner in owners.items() if owner != victim)
    if dht == "can":
        # CAN's greedy geometry routes around the dead node, so every item
        # not owned by the victim still lands and fires newData.
        assert sorted(arrivals) == survivors
    else:
        # A dead Chord successor breaks the ring until stabilisation, so
        # items routed through it may be lost in transit (soft-state
        # semantics; renewal repairs them) — but nothing may arrive at the
        # victim, every arrival must be a survivor, and the publisher's
        # locally-owned items never cross the network at all.
        assert set(arrivals) <= set(survivors)
        local = [rid for rid, owner in owners.items() if owner == publisher]
        assert set(local) <= set(arrivals)
    for resource_id, owner in owners.items():
        items = providers[owner].get_local("t", resource_id)
        if owner == victim:
            assert items == []
        elif dht == "can":
            assert len(items) == 1
        else:
            assert len(items) == (1 if resource_id in arrivals else 0)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_unroutable_batch_entries_release_pending_state(dht):
    """Keys that become unroutable are reported unresolved, freeing origin state.

    A dropped entry must not leave the origin's batch bookkeeping (and its
    captured item payloads) pinned forever — the unresolved reply decrements
    the pending counter even though no items can be delivered.
    """
    network, providers, builder = build_network(dht, num_nodes=2)
    publisher = 0
    other = 1
    remote_entries = [
        (rid, value) for rid, value in ENTRIES
        if builder.owner_of_key(hash_key("t", rid)) == other
    ]
    assert remote_entries, "need at least one remotely-owned key"
    providers[publisher].put_batch("t", remote_entries)
    network.fail_node(other)
    network.run_until_idle()
    # The only possible hop is dead: items are lost (soft-state semantics)
    # but the origin's pending batch state must be fully released.
    assert providers[publisher].routing._pending_batch_lookups == {}
    for rid, _value in remote_entries:
        assert providers[other].get_local("t", rid) == []


# ---------------------------------------------------------- one put path


def tap_put_chunks(network, address, on_send=None):
    """Record ``(dst, payload_bytes)`` of every prov.put_chunk ``address`` sends."""
    node = network.node(address)
    sent = []
    original = node.send

    def send(dst, protocol, payload=None, payload_bytes=0, hops=0):
        if protocol == "prov.put_chunk":
            sent.append((dst, payload_bytes))
            if on_send is not None:
                on_send(dst)
        return original(dst, protocol, payload, payload_bytes, hops)

    node.send = send
    return sent


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_every_put_front_end_travels_as_put_chunk(dht):
    """put, renew, put_batch, put_chunk (owner-routed and targeted) and a
    renewal round all use the one wire format."""
    network, providers, _builder = build_network(dht)
    publisher = providers[0]
    instance_id = publisher.put("t", "key-0", None, "v", lifetime=60.0)
    publisher.renew("t", "key-0", instance_id, lifetime=60.0)
    publisher.put_batch("t", ENTRIES, lifetime=60.0)
    rids = [rid for rid, _v in ENTRIES]
    publisher.put_chunk("t", rids, rids, lifetime=60.0)
    publisher.put_chunk("t", rids, rids, lifetime=60.0, target=5)
    agent = publisher.make_renewal_agent(refresh_period=30.0)
    for rid, value in ENTRIES:
        agent.track("t", rid, 900, value, lifetime=60.0, size_bytes=80)
    assert agent.renew_all() == len(ENTRIES)
    network.run_until_idle()

    put_protocols = {protocol for protocol in network.stats.protocol_messages
                     if protocol.startswith("prov.put")}
    assert put_protocols == {"prov.put_chunk"}
    for removed in ("batching", "put_direct", "put_direct_batch"):
        assert not hasattr(publisher, removed)


def run_puts(dht, publisher, put):
    """``put(provider)`` on a fresh deployment; what was stored, announced, sent."""
    network, providers, _builder = build_network(dht)
    announced = Counter()
    for address, provider in providers.items():
        provider.on_new_data(
            "t", lambda items, address=address: announced.update(
                (address, item.resource_id, item.instance_id, item.value)
                for item in items))
    sent = tap_put_chunks(network, publisher)
    put(providers[publisher])
    network.run_until_idle()
    stored = {
        (address, item.resource_id, item.instance_id, item.value,
         item.size_bytes, item.publisher)
        for address, provider in providers.items()
        for item in provider.lscan("t")
    }
    return stored, announced, sent


PUT_ENTRIES = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]),        # resource id
              st.integers(0, 9),                                 # value
              st.sampled_from([None, None, 7, 8]),               # instance id
              st.sampled_from([40, 40, 100])),                   # size
    max_size=12)


@pytest.mark.parametrize("dht", ["can", "chord"])
@settings(max_examples=20, deadline=None)
@given(entries=PUT_ENTRIES, publisher=st.integers(0, 15))
def test_put_front_ends_are_equivalent(dht, entries, publisher):
    """put_batch == the same entries as sequential puts == put_chunk (where
    put_chunk can say the same thing: fresh instance ids, one size)."""

    def batch(provider):
        ids = provider.put_batch("t", entries, lifetime=60.0)
        # Renewing live triples announces nothing new.
        provider.renew_batch("t", [rid for rid, *_rest in entries], ids,
                             lifetime=60.0)

    def scalar(provider):
        ids = [provider.put("t", rid, instance_id, value, lifetime=60.0,
                            item_bytes=size)
               for rid, value, instance_id, size in entries]
        for (rid, *_rest), instance_id in zip(entries, ids):
            provider.renew("t", rid, instance_id, lifetime=60.0)

    stored, announced, _sent = run_puts(dht, publisher, batch)
    assert (stored, announced) == run_puts(dht, publisher, scalar)[:2]
    # Every stored triple was announced exactly once, on the node holding it.
    assert sorted(key[:3] for key in announced.elements()) == sorted(
        item[:3] for item in stored)

    uniform = [(rid, value) for rid, value, _instance_id, _size in entries]
    as_batch = run_puts(dht, publisher, lambda provider: provider.put_batch(
        "t", uniform, lifetime=60.0, item_bytes=64))
    as_chunk = run_puts(dht, publisher, lambda provider: provider.put_chunk(
        "t", [rid for rid, _v in uniform], [value for _r, value in uniform],
        lifetime=60.0, item_bytes=64))
    assert as_batch == as_chunk
    assert sum(size for _dst, size in as_batch[2]) == 64 * sum(
        1 for item in as_batch[0] if item[0] != publisher)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_puts_to_a_dead_owner_are_counted_once_per_item(dht):
    """The owner dies with the put in flight: every front-end reports the
    lost items through the one per-namespace counter."""
    publisher = 0
    _network, _providers, builder = build_network(dht)
    owners = Counter(builder.owner_of_key(hash_key("t", rid))
                     for rid, _v in ENTRIES)
    del owners[publisher]
    victim, _count = owners.most_common(1)[0]
    doomed = [(rid, value) for rid, value in ENTRIES
              if builder.owner_of_key(hash_key("t", rid)) == victim]
    assert len(doomed) >= 2

    def lost(put):
        network, providers, _builder = build_network(dht)
        tap_put_chunks(network, publisher, on_send=network.fail_node)
        put(providers[publisher])
        network.run_until_idle()
        assert list(providers[victim].lscan("t")) == []
        return providers[publisher].put_bounces_by_namespace

    assert lost(lambda provider: provider.put(
        "t", doomed[0][0], None, doomed[0][1])) == {"t": 1}
    assert lost(lambda provider: provider.put_batch("t", doomed)) == {
        "t": len(doomed)}
    assert lost(lambda provider: provider.put_chunk(
        "t", [rid for rid, _v in doomed], [value for _r, value in doomed],
    )) == {"t": len(doomed)}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_unroutable_put_keys_are_counted_as_lost_items(dht):
    """The only other node is dead, so its keys cannot be routed at all."""
    rids = [rid for rid, _v in ENTRIES]
    for put in (lambda provider: provider.put_batch("t", ENTRIES),
                lambda provider: provider.put_chunk("t", rids, rids),
                lambda provider: [provider.put("t", rid, None, rid)
                                  for rid in rids]):
        network, providers, builder = build_network(dht, num_nodes=2)
        remote = [rid for rid in rids
                  if builder.owner_of_key(hash_key("t", rid)) == 1]
        assert remote
        network.fail_node(1)
        put(providers[0])
        network.run_until_idle()
        assert providers[0].put_bounces_by_namespace == {"t": len(remote)}


# ------------------------------------------------------------- get_batch


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_batch_returns_per_id_results(dht):
    network, providers, _builder = build_network(dht)
    providers[1].put_batch("t", ENTRIES)
    network.run_until_idle()

    results = {}
    providers[0].get_batch("t", [rid for rid, _v in ENTRIES] + ["missing"],
                           results.update)
    network.run_until_idle()

    assert set(results) == {rid for rid, _v in ENTRIES} | {"missing"}
    assert results["missing"] == []
    for resource_id, value in ENTRIES:
        assert [item.value for item in results[resource_id]] == [value]


def test_get_batch_groups_requests_by_owner():
    network, providers, _builder = build_network("can")
    providers[1].put_batch("t", ENTRIES)
    network.run_until_idle()
    network.stats.reset()

    results = {}
    providers[0].get_batch("t", [rid for rid, _v in ENTRIES],
                           results.update)
    network.run_until_idle()

    # Requests are grouped per owner as resolutions arrive.  An owner can be
    # reached by more than one route sub-batch (one request per reply wave),
    # so the count may slightly exceed the distinct-owner floor — but it must
    # stay far below one request per resourceID.
    requests = network.stats.protocol_messages.get("prov.get_batch", 0)
    assert 0 < requests < len(ENTRIES) * 0.75
    assert len(results) == len(ENTRIES)


# ------------------------------------------------- the get_batch upcall
#
# ``callback(results)`` fires once per owner reply, once for the locally owned
# ids and once per group of ids that fails, with ``[(resource_id, items), ...]``
# in request order.  Whatever happens to the request, every distinct id it
# named is handed over exactly once.


def loaded_network(dht, **kwargs):
    """A deployment holding ``ENTRIES`` and the ids node 0 asks for.

    The request repeats ids, mixes ids node 0 owns with remote ones and names
    one nobody published.
    """
    network, providers, builder = build_network(dht, **kwargs)
    providers[1].put_batch("t", ENTRIES)
    network.run_until_idle()
    rids = [rid for rid, _v in ENTRIES]
    requested = rids[::-1] + ["missing"] + rids[:5]
    owners = {rid: builder.owner_of_key(hash_key("t", rid))
              for rid in requested}
    assert 0 in owners.values() and len(set(owners.values())) > 3
    return network, providers, requested, owners


def assert_upcall_contract(upcalls, requested, answered=None):
    """Each id of ``answered`` (default: all) once, request order per upcall."""
    position = {rid: i for i, rid in enumerate(dict.fromkeys(requested))}
    seen = [rid for results in upcalls for rid, _items in results]
    wanted = position if answered is None else answered
    assert sorted(seen, key=position.__getitem__) == sorted(
        wanted, key=position.__getitem__)
    for results in upcalls:
        assert results, "an upcall carries at least one id"
        order = [position[rid] for rid, _items in results]
        assert order == sorted(order)
    return {rid: items for results in upcalls for rid, items in results}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_batch_makes_one_upcall_per_owner_reply(dht):
    network, providers, requested, owners = loaded_network(dht)
    upcalls = []
    providers[0].get_batch("t", requested, upcalls.append, scope=3)
    local = [rid for rid in dict.fromkeys(requested) if owners[rid] == 0]
    # Locally owned ids never wait on the overlay: one upcall, at once.
    assert [[rid for rid, _items in results] for results in upcalls] == [local]
    network.stats.reset()
    network.run_until_idle()

    found = assert_upcall_contract(upcalls, requested)
    assert found["missing"] == []
    for rid, value in ENTRIES:
        assert [item.value for item in found[rid]] == [value]
        assert {(item.namespace, item.resource_id, item.publisher)
                for item in found[rid]} == {("t", rid, 1)}
    replies = network.stats.protocol_messages["prov.get_batch_reply"]
    assert len(upcalls) == replies + 1 < len(set(requested))
    for results in upcalls:  # a reply is one owner's share
        assert len({owners[rid] for rid, _items in results}) == 1
    report = providers[0].scope_report(3)
    assert (report["issued"], report["completed"], report["failed"],
            report["pending"]) == (len(set(requested)),) * 2 + (0, 0)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_batch_upcalls_when_lookups_dead_end(dht):
    network, providers, requested, owners = loaded_network(dht)
    network.fail_nodes(providers[0].routing.neighbors())
    upcalls = []
    providers[0].get_batch("t", requested, upcalls.append, scope=3)
    network.run_until_idle()
    found = assert_upcall_contract(upcalls, requested)
    remote = [rid for rid in found if owners[rid] != 0]
    assert remote and all(found[rid] == [] for rid in remote)
    assert providers[0].scope_report(3)["failed"] == len(remote)
    assert providers[0].pending_get_count() == 0


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_batch_upcalls_when_an_owner_bounces(dht):
    network, providers, requested, owners = loaded_network(dht)
    victim = Counter(owner for owner in owners.values() if owner).most_common(1)[0][0]
    upcalls = []
    providers[0].get_batch("t", requested, upcalls.append, scope=3)
    network.fail_node(victim)  # after the request was issued, before it lands
    network.run_until_idle()
    found = assert_upcall_contract(upcalls, requested)
    for rid, value in ENTRIES:
        # An id of another owner may have been routed through the victim.
        values = [item.value for item in found[rid]]
        assert values == [] if owners[rid] == victim else values in ([], [value])
    assert any(found[rid] for rid in found)
    report = providers[0].scope_report(3)
    assert report["completed"] + report["failed"] == len(set(requested))
    assert report["failed"] and report["pending"] == 0


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_batch_upcalls_after_a_relay_swallowed_the_lookup(dht):
    """No bounce, no reply: only the timeout sees it, and the retry answers
    every id the first attempt had not — once."""
    network, providers, requested, owners = loaded_network(
        dht, request_timeout_s=2.0)
    provider = providers[0]
    route_batch = provider.routing.PROTOCOL_ROUTE_BATCH
    relays = provider.routing.neighbors()
    for address in relays:
        network.node(address).replace_handler(route_batch, lambda *_: None)
    upcalls = []
    provider.get_batch("t", requested, upcalls.append, scope=3)
    network.run(until=network.now + 1.0)
    assert len(upcalls) == 1  # the local ids
    for address in relays:
        network.node(address).replace_handler(
            route_batch, providers[address].routing._on_route_batch)
    network.run(until=network.now + 3.0)
    found = assert_upcall_contract(upcalls, requested)
    for rid, value in ENTRIES:
        assert [item.value for item in found[rid]] == [value]
    assert provider.pending_get_count() == 0


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_batch_makes_no_upcall_after_cancel_pending(dht):
    network, providers, requested, owners = loaded_network(dht)
    upcalls = []
    providers[0].get_batch("t", requested, upcalls.append, scope=3)
    local = [rid for rid in dict.fromkeys(requested) if owners[rid] == 0]
    assert providers[0].cancel_pending(3) == len(set(requested)) - len(local)
    network.run_until_idle()
    assert_upcall_contract(upcalls, requested, answered=local)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_hands_over_the_items_alone(dht):
    network, providers, requested, owners = loaded_network(dht)
    answers = {}
    for rid in dict.fromkeys(requested):
        providers[0].get("t", rid, lambda items, rid=rid: answers.setdefault(
            rid, []).append([item.value for item in items]))
    network.run_until_idle()
    expected = {rid: [[value]] for rid, value in ENTRIES}
    expected["missing"] = [[]]
    assert answers == expected


# ------------------------------------------- scalar front-ends of the one lane

#: Origins the scalar calls are issued from, round robin.
FRONT_END_ORIGINS = (0, 13, 27, 41, 58)


def front_end_trace(dht):
    """Owners, hop counts and traffic totals of scalar ``lookup``/``get``/``put``.

    A 64-node deployment on finite links (so arrival times depend on every
    byte sent before them), seeded keys, calls issued round robin from five
    origins.  Each phase reports ``(messages_sent, bytes_delivered,
    time of the last arrival)``.
    """
    rng = random.Random(2203)
    network, providers, builder = build_network(dht, num_nodes=64,
                                                capacity=1_000_000.0)
    origins = itertools.cycle(FRONT_END_ORIGINS)
    protocols = set()

    def phase_totals():
        network.run_until_idle()
        stats = network.stats
        totals = (stats.messages_sent, stats.bytes_delivered,
                  round(network.now, 9))
        protocols.update(stats.protocol_messages)
        stats.reset()
        return totals

    def fetch(namespace, entries):
        """One ``get`` per entry; every one answered once, with its value."""
        fetched = []
        for rid, _value in entries:
            providers[next(origins)].get(
                namespace, rid, lambda items, rid=rid: fetched.append(
                    (rid, [item.value for item in items])))
        totals = phase_totals()
        assert sorted(fetched) == sorted((rid, [value]) for rid, value in entries)
        return totals

    keys = [hash_key("pin", rng.randrange(10 ** 9)) for _ in range(200)]
    resolved = []
    for key in keys:
        providers[next(origins)].routing.lookup(
            key, lambda owner, key=key: resolved.append((key, owner)))
    lookups = phase_totals()
    assert sorted(resolved) == sorted(
        (key, builder.owner_of_key(key)) for key in keys)
    owners = dict(resolved)
    hops = [hop for origin in FRONT_END_ORIGINS
            for hop in providers[origin].routing.lookup_hops_observed]

    loaded = [(rng.randrange(10 ** 9), i) for i in range(200)]
    providers[1].put_batch("pin", loaded, item_bytes=75)
    phase_totals()
    gets = fetch("pin", loaded)

    published = [(rng.randrange(10 ** 9), i) for i in range(50)]
    for rid, value in published:
        providers[next(origins)].put("pin2", rid, None, value, item_bytes=90)
    puts = phase_totals()
    next(origins)  # every get comes from another origin than its put did
    gets_of_puts = fetch("pin2", published)
    return {
        "owners": [owners[key] for key in keys], "hops": hops,
        "lookups": lookups, "gets": gets, "puts": puts,
        "gets_of_puts": gets_of_puts,
    }, protocols


#: :func:`front_end_trace` as recorded at the last commit that had a scalar
#: lane of its own under ``lookup``, ``get`` and ``put`` (``can.route`` /
#: ``can.lookup_reply``, ``prov.get`` / ``prov.get_reply`` and their Chord
#: twins).  The phase totals are (messages sent, bytes delivered, time of the
#: last arrival).
FRONT_END_PINS = {
    "can": {
        "owners": [
            11, 57, 16, 39, 16, 5, 41, 42, 63, 13, 37, 41, 35, 27, 61, 39, 23,
            52, 1, 9, 20, 50, 34, 46, 16, 51, 55, 45, 22, 6, 34, 35, 13, 17, 1,
            43, 12, 3, 43, 19, 41, 19, 5, 16, 52, 1, 57, 37, 0, 40, 53, 13, 34,
            54, 46, 14, 49, 52, 3, 22, 34, 30, 0, 16, 50, 34, 11, 29, 43, 36,
            14, 43, 11, 6, 3, 29, 25, 25, 22, 52, 16, 46, 60, 3, 18, 16, 15, 2,
            57, 39, 45, 37, 54, 54, 22, 23, 62, 52, 20, 61, 33, 27, 37, 40, 32,
            9, 14, 22, 61, 54, 52, 10, 61, 15, 42, 9, 30, 50, 11, 47, 18, 11,
            40, 12, 57, 38, 56, 5, 27, 36, 60, 53, 20, 31, 49, 18, 48, 36, 36,
            21, 26, 3, 58, 37, 12, 62, 27, 31, 45, 20, 35, 51, 34, 19, 36, 18,
            20, 15, 23, 37, 21, 44, 1, 6, 35, 13, 33, 60, 1, 61, 41, 52, 42,
            55, 38, 54, 34, 39, 32, 20, 38, 13, 6, 61, 27, 27, 30, 60, 39, 11,
            4, 16, 42, 4, 1, 16, 36, 29, 2, 51
        ],
        "hops": [
            1, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 7,
            7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 9, 9, 10, 10, 11, 11, 12, 13, 1, 1,
            2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5,
            5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 7, 7, 8, 1, 2, 2, 2, 2, 2, 3, 3,
            3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6,
            7, 7, 7, 7, 7, 8, 8, 9, 9, 9, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 4,
            5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 9, 9, 9,
            9, 10, 10, 10, 11, 11, 1, 2, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 5,
            5, 5, 5, 5, 5, 5, 5, 6, 6, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 9, 9, 9,
            10, 10, 10
        ],
        "lookups": (1265, 126500, 0.2865),
        "gets": (1647, 175590, 0.945893),
        "puts": (338, 36200, 1.227643),
        "gets_of_puts": (401, 43530, 1.531813),
    },
    "chord": {
        "owners": [
            41, 58, 58, 25, 2, 8, 8, 34, 22, 43, 56, 3, 24, 28, 52, 60, 51, 1,
            34, 58, 1, 42, 22, 28, 55, 39, 49, 33, 44, 42, 41, 45, 9, 42, 60,
            9, 19, 36, 60, 42, 1, 51, 47, 37, 18, 63, 33, 2, 44, 21, 58, 8, 11,
            25, 13, 18, 22, 33, 16, 58, 47, 40, 24, 42, 60, 9, 16, 0, 2, 58,
            34, 2, 61, 47, 16, 25, 59, 42, 49, 11, 47, 55, 13, 2, 55, 40, 9,
            10, 44, 36, 25, 25, 18, 51, 13, 32, 1, 2, 51, 44, 62, 32, 9, 8, 1,
            14, 49, 38, 7, 28, 49, 47, 62, 16, 49, 28, 28, 50, 34, 21, 41, 44,
            7, 60, 47, 42, 28, 7, 56, 58, 28, 37, 47, 34, 49, 22, 28, 59, 62,
            14, 51, 60, 40, 25, 28, 60, 28, 44, 14, 1, 59, 1, 60, 47, 52, 33,
            55, 22, 8, 42, 49, 60, 42, 22, 55, 58, 54, 40, 52, 25, 34, 28, 9,
            0, 7, 59, 8, 47, 25, 5, 32, 55, 22, 36, 28, 22, 34, 37, 58, 63, 49,
            42, 58, 51, 36, 39, 2, 24, 14, 14
        ],
        "hops": [
            2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
            4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 7, 1, 2, 2, 2,
            2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4,
            4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 2, 2, 2, 3, 3, 3, 3, 3,
            3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5,
            5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 1, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 4,
            4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
            5, 5, 5, 5, 5, 5, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
            4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6
        ],
        "lookups": (965, 96500, 0.1644),
        "gets": (1330, 143725, 0.537619),
        "puts": (294, 31850, 0.718869),
        "gets_of_puts": (348, 38300, 0.900839),
    },
}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_scalar_front_ends_cost_what_the_scalar_lanes_did(dht):
    """``lookup`` is a ``lookup_batch`` of one and ``get`` a ``get_batch`` of
    one: same owners, same hop counts, same messages, bytes and arrival
    times as the lanes they replaced, over the batch protocols only."""
    trace, protocols = front_end_trace(dht)
    assert trace == FRONT_END_PINS[dht]
    assert protocols == {f"{dht}.route_batch", f"{dht}.batch_lookup_reply",
                         "prov.get_batch", "prov.get_batch_reply",
                         "prov.put_chunk"}
    # A DHT's share of a lookup is its geometry hooks, nothing else.
    for layer in (CanRouting, ChordRouting):
        assert layer.lookup is RoutingLayer.lookup
        assert layer.lookup_batch is RoutingLayer.lookup_batch


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_dead_ended_get_and_put_are_reported_without_a_timeout(dht):
    """Every first hop is dead and no timeout is armed: the unresolved report
    completes the get empty (it is not left waiting for a reply) and counts
    the put as lost."""
    network, providers, builder = build_network(dht)
    provider = providers[0]
    assert provider.request_timeout_s is None
    network.fail_nodes(provider.routing.neighbors())
    remote = next(rid for rid, _v in ENTRIES
                  if builder.owner_of_key(hash_key("t", rid)) != 0)
    results = []
    provider.get("t", remote, results.append, scope=7)
    provider.put("t", remote, None, "v")
    assert results == [] and provider.pending_get_count() == 1
    network.run_until_idle()
    assert results == [[]]
    assert provider.put_bounces_by_namespace == {"t": 1}
    assert provider.scope_report(7)["failed"] == 1
    assert provider.pending_get_count() == 0
    assert provider.routing._pending_batch_lookups == {}


# ------------------------------------------------------- multicast_batch


def test_multicast_batch_delivers_every_entry_everywhere():
    network, providers, _builder = build_network("can")
    received = {address: [] for address in providers}
    for address, provider in providers.items():
        for namespace in ("ns-a", "ns-b"):
            provider.on_multicast(
                namespace,
                lambda ns, rid, item, origin, address=address:
                    received[address].append((ns, rid, item)),
            )
    providers[0].multicast_batch(
        [("ns-a", "r1", "alpha"), ("ns-b", "r2", "beta")], payload_bytes=100
    )
    network.run_until_idle()
    expected = [("ns-a", "r1", "alpha"), ("ns-b", "r2", "beta")]
    for address in providers:
        assert received[address] == expected


def test_multicast_batch_floods_once_not_per_entry():
    net_a, prov_a, _ = build_network("can")
    for provider in prov_a.values():
        provider.on_multicast("ns", lambda *args: None)
    prov_a[0].multicast_batch([("ns", i, i) for i in range(5)])
    net_a.run_until_idle()

    net_b, prov_b, _ = build_network("can")
    for provider in prov_b.values():
        provider.on_multicast("ns", lambda *args: None)
    for i in range(5):
        prov_b[0].multicast("ns", i, i)
    net_b.run_until_idle()

    flood_batched = net_a.stats.protocol_messages.get("mc.flood", 0)
    flood_scalar = net_b.stats.protocol_messages.get("mc.flood", 0)
    assert flood_batched * 5 == flood_scalar


# ------------------------------------------------- network-level coalescing


def test_zero_window_coalescing_preserves_delivery_semantics():
    """Same-instant sends to one destination arrive once each, in order."""
    network_plain = Network(FullMeshTopology(4, latency_s=0.05))
    network_coal = Network(FullMeshTopology(4, latency_s=0.05),
                           coalesce_window_s=0.0)
    for network in (network_plain, network_coal):
        log = []
        network.node(1).register_handler(
            "test.proto", lambda node, msg: log.append(msg.payload))
        for i in range(10):
            network.node(0).send(1, "test.proto", payload=i, payload_bytes=100)
        network.run_until_idle()
        assert log == list(range(10))
    # Identical byte accounting in both modes.
    assert (network_coal.stats.inbound_bytes[1]
            == network_plain.stats.inbound_bytes[1])
    # ...but far fewer events in the coalesced network.
    assert (network_coal.simulator.events_processed
            < network_plain.simulator.events_processed)
    assert network_coal.messages_coalesced == 9


def test_positive_window_coalesces_across_sources():
    """With a window, staggered sends from many sources share delivery events."""
    network = Network(FullMeshTopology(6, latency_s=0.05),
                      coalesce_window_s=0.010)
    log = []
    network.node(5).register_handler(
        "test.proto", lambda node, msg: log.append(msg.src))
    for src in range(4):
        network.simulator.schedule(
            src * 0.002,
            lambda src=src: network.node(src).send(5, "test.proto",
                                                   payload_bytes=50))
    network.run_until_idle()
    assert sorted(log) == [0, 1, 2, 3]
    assert network.messages_coalesced == 3
    assert network.batches_flushed == 1


def test_coalescing_drops_and_bounces_per_message_on_dead_node():
    network = Network(FullMeshTopology(4, latency_s=0.05),
                      coalesce_window_s=0.0)
    bounced = []
    network.node(0).register_bounce_handler(
        "test.proto", lambda node, msg: bounced.append(msg.payload))
    for i in range(3):
        network.node(0).send(2, "test.proto", payload=i, payload_bytes=10)
    network.fail_node(2)
    network.run_until_idle()
    assert bounced == [0, 1, 2]
    assert network.stats.messages_dropped == 3


# ------------------------------------------------ simulator ready-lane path


def test_zero_delay_events_fire_in_fifo_order_after_heap_events():
    from repro.net.simulator import Simulator

    sim = Simulator()
    order = []

    def spawn():
        order.append("heap")
        sim.schedule(0.0, order.append, "ready-1")
        sim.schedule(0.0, order.append, "ready-2")

    sim.schedule(1.0, spawn)
    sim.schedule(1.0, order.append, "heap-later")
    sim.run_until_idle()
    # Heap events at the same timestamp predate ready-lane events.
    assert order == ["heap", "heap-later", "ready-1", "ready-2"]


def test_ready_lane_events_survive_max_events_interruption():
    from repro.net.simulator import Simulator

    sim = Simulator()
    order = []

    def spawn():
        order.append("first")
        for label in ("a", "b", "c"):
            sim.schedule(0.0, order.append, label)

    sim.schedule(1.0, spawn)
    sim.run(max_events=2)
    assert order == ["first", "a"]
    sim.run_until_idle()
    assert order == ["first", "a", "b", "c"]


def test_ready_lane_events_can_be_cancelled():
    from repro.net.simulator import Simulator

    sim = Simulator()
    fired = []

    def spawn():
        handle = sim.schedule(0.0, fired.append, "cancelled")
        sim.schedule(0.0, fired.append, "kept")
        handle.cancel()

    sim.schedule(1.0, spawn)
    sim.run_until_idle()
    assert fired == ["kept"]
