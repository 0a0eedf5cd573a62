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
from repro.dht.provider import REQUEST_TIMEOUT_S, Provider
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology
from tests.reference import answering_owner


def build_network(dht="can", num_nodes=16, latency=0.02,
                  coalesce_window_s=0.0, capacity=math.inf,
                  request_timeout_s=None):
    network = SimulatedNetwork(
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
    network, providers, builder = build_network("can")
    providers[1].put_batch("t", ENTRIES)
    network.run_until_idle()
    network.stats.reset()

    results = {}
    providers[0].get_batch("t", [rid for rid, _v in ENTRIES],
                           results.update)
    network.run_until_idle()

    # Requests are grouped per owner as resolutions arrive: one per remote
    # owner at least.  An owner reached by more than one route sub-batch is
    # asked once per path (CAN's greedy next hop sends one source's keys for
    # one owner along different paths when their points differ), which here
    # costs three more.
    floor = len({builder.owner_of_key(hash_key("t", rid))
                 for rid, _v in ENTRIES} - {0})
    requests = network.stats.protocol_messages.get("prov.get_batch", 0)
    assert floor <= requests <= floor + 3
    assert len(results) == len(ENTRIES)


# ------------------------------------------------- the get_batch upcall
#
# ``callback(results)`` fires once per owner reply, once for the locally owned
# ids and once per group of ids that fails, with ``[(resource_id, items), ...]``
# in request order.  Whatever happens to the request, every distinct id it
# named is handed over exactly once.


def loaded_network(dht, **kwargs):
    """A deployment holding ``entries`` and the ids node 0 asks for.

    ``entries`` are ``ENTRIES`` and, where node 0 owns none of those, the
    first further ``key-<i>`` it owns.  The request repeats ids, mixes ids
    node 0 owns with remote ones and names one nobody published.
    """
    network, providers, builder = build_network(dht, **kwargs)

    def owner(rid):
        return builder.owner_of_key(hash_key("t", rid))

    entries = list(ENTRIES)
    if all(owner(rid) != 0 for rid, _v in entries):
        local = next(f"key-{i}" for i in itertools.count(len(entries))
                     if owner(f"key-{i}") == 0)
        entries.append((local, {"v": len(entries)}))
    providers[1].put_batch("t", entries)
    network.run_until_idle()
    rids = [rid for rid, _v in entries]
    requested = rids[::-1] + ["missing"] + rids[:5]
    owners = {rid: owner(rid) for rid in requested}
    assert 0 in owners.values() and len(set(owners.values())) > 3
    return network, providers, entries, requested, owners


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
    network, providers, entries, requested, owners = loaded_network(dht)
    upcalls = []
    providers[0].get_batch("t", requested, upcalls.append, scope=3)
    local = [rid for rid in dict.fromkeys(requested) if owners[rid] == 0]
    # Locally owned ids never wait on the overlay: one upcall, at once.
    assert [[rid for rid, _items in results] for results in upcalls] == [local]
    network.stats.reset()
    network.run_until_idle()

    found = assert_upcall_contract(upcalls, requested)
    assert found["missing"] == []
    for rid, value in entries:
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
    network, providers, _entries, requested, owners = loaded_network(dht)
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
    network, providers, entries, requested, owners = loaded_network(dht)
    victim = Counter(owner for owner in owners.values() if owner).most_common(1)[0][0]
    upcalls = []
    providers[0].get_batch("t", requested, upcalls.append, scope=3)
    network.fail_node(victim)  # after the request was issued, before it lands
    network.run_until_idle()
    found = assert_upcall_contract(upcalls, requested)
    for rid, value in entries:
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
    network, providers, entries, requested, owners = loaded_network(
        dht, request_timeout_s=REQUEST_TIMEOUT_S)
    provider = providers[0]
    route_batch = provider.routing.PROTOCOL_ROUTE_BATCH
    relays = provider.routing.neighbors()
    for address in relays:
        network.node(address).replace_handler(route_batch, lambda *_: None)
    upcalls = []
    issued_at = network.now
    provider.get_batch("t", requested, upcalls.append, scope=3)
    network.run(until=issued_at + 1.0)
    # Only the ids the origin resolves itself are answered: those it owns
    # and those whose owner its routing table names (asked directly).
    routing = provider.routing
    resolved_at_origin = {
        rid for rid in owners
        if answering_owner(routing, routing._coordinate(hash_key("t", rid))) is not None}
    assert {rid for results in upcalls for rid, _items in results} == (
        resolved_at_origin)
    assert resolved_at_origin != set(owners)  # the rest were swallowed
    for address in relays:
        network.node(address).replace_handler(
            route_batch, providers[address].routing._on_route_batch)
    network.run(until=issued_at + REQUEST_TIMEOUT_S - 0.5)
    assert {rid for results in upcalls for rid, _items in results} == (
        resolved_at_origin)
    network.run(until=issued_at + REQUEST_TIMEOUT_S + 2.0)
    found = assert_upcall_contract(upcalls, requested)
    for rid, value in entries:
        assert [item.value for item in found[rid]] == [value]
    assert provider.pending_get_count() == 0


@pytest.mark.parametrize("seconds", [0.0, -1.0, math.nan])
def test_a_provider_refuses_a_request_timeout_that_is_not_positive(seconds):
    """The timeout also reaches a joiner in the founder's ``mem`` frame:
    the Provider checks it, not only the node CLI."""
    network, providers, _builder = build_network()
    with pytest.raises(ValueError, match="positive"):
        Provider(network.node(0), providers[0].routing,
                 request_timeout_s=seconds)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_churn_deployment_bounds_a_get_its_owner_never_answers(dht):
    """A churn deployment arms the get timeout a real node arms: an owner
    that takes the request and never replies costs the get its retries, and
    then the get completes empty instead of waiting for ever."""
    from repro.dht.provider import REQUEST_RETRIES
    from repro.harness.experiment import ChurnConfig, PierNetwork, SimulationConfig

    pier = PierNetwork(SimulationConfig(num_nodes=16, dht=dht,
                                        churn=ChurnConfig()))
    provider = pier.providers[0]
    assert provider.request_timeout_s == REQUEST_TIMEOUT_S
    rid = next(rid for rid, _v in ENTRIES
               if pier.builder.owner_of_key(hash_key("t", rid)) != 0)
    owner = pier.builder.owner_of_key(hash_key("t", rid))
    asked = []
    pier.network.node(owner).replace_handler(
        Provider.PROTOCOL_GET_BATCH, lambda _node, message: asked.append(message))
    results = []
    issued_at = pier.now
    provider.get("t", rid, results.append, scope=5)
    pier.run(until=issued_at + REQUEST_TIMEOUT_S * (REQUEST_RETRIES + 1) - 0.5)
    assert results == [] and provider.pending_get_count() == 1
    pier.run(until=issued_at + REQUEST_TIMEOUT_S * (REQUEST_RETRIES + 1) + 5.0)
    assert results == [[]]
    assert len(asked) == REQUEST_RETRIES + 1
    assert provider.scope_report(5) == {
        "issued": 1, "completed": 0, "failed": 1, "pending": 0}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_batch_makes_no_upcall_after_cancel_pending(dht):
    network, providers, _entries, requested, owners = loaded_network(dht)
    upcalls = []
    providers[0].get_batch("t", requested, upcalls.append, scope=3)
    local = [rid for rid in dict.fromkeys(requested) if owners[rid] == 0]
    assert providers[0].cancel_pending(3) == len(set(requested)) - len(local)
    network.run_until_idle()
    assert_upcall_contract(upcalls, requested, answered=local)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_get_hands_over_the_items_alone(dht):
    network, providers, entries, requested, owners = loaded_network(dht)
    answers = {}
    for rid in dict.fromkeys(requested):
        providers[0].get("t", rid, lambda items, rid=rid: answers.setdefault(
            rid, []).append([item.value for item in items]))
    network.run_until_idle()
    expected = {rid: [[value]] for rid, value in entries}
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


def one_hop_shorter(hops):
    """Hop counts once a lookup ends at the node whose table names the owner:
    a one-hop lookup resolves at its origin, unrecorded, and every other is
    one hop shorter."""
    return [hop - 1 for hop in hops if hop > 1]


#: :func:`front_end_trace` as recorded at the last commit that had a scalar
#: lane of its own under ``lookup``, ``get`` and ``put`` (``can.route`` /
#: ``can.lookup_reply``, ``prov.get`` / ``prov.get_reply`` and their Chord
#: twins), then re-recorded where noted.  The phase totals are (messages
#: sent, bytes delivered, time of the last arrival).
FRONT_END_PINS = {
    "can": {
        # Re-recorded when a key's CAN point became its own bit fields
        # instead of a salted re-hash: placement moved, so the owners, the
        # paths to them and every phase total moved with it.  Hop counts are
        # recorded as lookups end now, one hop before the owner.
        "owners": [
            48, 5, 4, 46, 51, 42, 62, 28, 21, 38, 0, 44, 17, 32,
            31, 15, 12, 3, 9, 16, 22, 13, 16, 49, 51, 39, 53, 62,
            3, 13, 52, 63, 31, 13, 26, 26, 31, 0, 14, 8, 19, 13,
            33, 25, 18, 20, 58, 55, 23, 16, 0, 43, 61, 46, 45, 7,
            4, 62, 46, 1, 15, 23, 17, 24, 11, 14, 42, 45, 54, 16,
            24, 38, 19, 10, 45, 59, 41, 9, 48, 60, 15, 38, 61, 35,
            54, 7, 31, 39, 22, 0, 46, 59, 18, 8, 61, 44, 7, 50,
            24, 3, 35, 41, 31, 63, 22, 36, 53, 58, 52, 37, 33, 26,
            57, 63, 32, 48, 32, 3, 8, 0, 37, 18, 36, 27, 11, 9,
            53, 37, 0, 4, 36, 9, 31, 31, 48, 1, 48, 44, 39, 33,
            24, 27, 23, 46, 36, 31, 36, 2, 36, 22, 41, 18, 15, 52,
            14, 58, 38, 16, 59, 25, 53, 14, 13, 17, 35, 1, 9, 23,
            30, 42, 29, 49, 30, 40, 53, 57, 46, 36, 59, 3, 45, 39,
            4, 4, 48, 17, 10, 28, 0, 0, 32, 9, 17, 29, 20, 35, 38,
            1, 53, 49
        ],
        "hops": [
            1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4,
            4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 7, 7, 1,
            1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3,
            3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 6, 1,
            1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3,
            3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5,
            5, 6, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3,
            3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5,
            6, 6, 6, 7, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3,
            3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5,
            6, 6, 6, 6, 6
        ],
        "lookups": (612, 72120, 0.162816),
        "gets": (979, 119319, 0.549894),
        "puts": (227, 26444, 0.731156),
        "gets_of_puts": (271, 31608, 0.912746),
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
        "hops": one_hop_shorter([
            2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
            4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 7, 1, 2, 2, 2,
            2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4,
            4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 2, 2, 2, 3, 3, 3, 3, 3,
            3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5,
            5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 1, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 4,
            4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
            5, 5, 5, 5, 5, 5, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
            4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6
        ]),
        # Re-recorded with the per-delivery outbox, and again for lookups
        # that end one hop before their owner, as CAN's totals above (from
        # 618 / 81 232 / 0.164136, 1 003 / 129 337 / 0.536668,
        # 250 / 29 914 / 0.717874 and 310 / 36 628 / 0.899726).
        "lookups": (524, 65896, 0.144036),
        "gets": (914, 114389, 0.476007),
        "puts": (214, 25586, 0.637113),
        "gets_of_puts": (272, 32156, 0.798865),
    },
}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_scalar_front_ends_cost_what_the_scalar_lanes_did(dht):
    """``lookup`` is a ``lookup_batch`` of one and ``get`` a ``get_batch`` of
    one: same owners as the lanes they replaced, over the batch protocols
    only, and their hop counts until lookups began to end one hop before the
    owner (``one_hop_shorter``).  The traffic totals matched those lanes too
    until relays began to merge the lookups of one delivery group; they are
    pinned at what the merged batches send."""
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
    """Same-instant sends to one destination arrive once each, in order,
    each charged as a message of its own, by one delivery event."""
    network = SimulatedNetwork(FullMeshTopology(4, latency_s=0.05,
                                                capacity_bytes_per_s=16_000.0))
    log = []
    network.node(1).register_handler(
        "test.proto", lambda node, msg: log.append((msg.payload, network.now)))
    for i in range(10):
        network.node(0).send(1, "test.proto", payload=i, payload_bytes=100)
    network.run_until_idle()
    # 160 B per message (60 header + 100 payload) at 16 000 B/s: the link
    # serves one every 10 ms, the group is handed over when the last is.
    assert log == [(i, pytest.approx(0.15)) for i in range(10)]
    assert network.stats.inbound_bytes[1] == 10 * 160
    assert network.stats.messages_delivered == 10
    assert network.stats.total_queueing_delay == pytest.approx(
        sum(0.010 * i for i in range(10)))
    assert network.simulator.events_processed == 1
    assert network.messages_coalesced == 9


def test_positive_window_coalesces_across_sources():
    """With a window, staggered sends from many sources share delivery events."""
    network = SimulatedNetwork(FullMeshTopology(6, latency_s=0.05),
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
    network = SimulatedNetwork(FullMeshTopology(4, latency_s=0.05),
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
