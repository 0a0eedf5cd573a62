"""The ``newData`` contract: one upcall per subscriber per stored chunk.

Whatever front-end published it — ``put``, ``put_batch``, ``put_chunk``,
``put_chunk(target=)``, a chunk the publisher owns itself — the owner stores
an arriving chunk and then hands each subscriber the chunk's newly live items
in chunk order, once.  A renewal announces nothing, a triple repeated inside
a chunk is new once, and the subscriber list is snapshotted per chunk.
"""

import pytest

from repro.dht.naming import hash_key
from tests.test_batch_apis import ENTRIES, build_network


def watch(providers, namespace="t"):
    """Tap what every node stores and what it announces.

    Returns ``(chunks, upcalls)``: per address, the ``(resource_id,
    instance_id)`` list of every chunk stored and of every upcall made.
    """
    chunks = {address: [] for address in providers}
    upcalls = {address: [] for address in providers}
    for address, provider in providers.items():
        def store_chunk(payload, address=address, store=provider.store_chunk):
            chunks[address].append(
                list(zip(payload["resource_ids"], payload["instance_ids"])))
            store(payload)

        provider.store_chunk = store_chunk
        provider.on_new_data(
            namespace, lambda items, address=address: upcalls[address].append(
                [(item.resource_id, item.instance_id) for item in items]))
    return chunks, upcalls


def new_items_per_chunk(stored_chunks):
    """The contract, chunk by chunk: triples not live before, once, in order."""
    live, expected = set(), []
    for chunk in stored_chunks:
        new = list(dict.fromkeys(t for t in chunk if t not in live))
        live.update(chunk)
        if new:
            expected.append(new)
    return expected


def local_rids(builder, address, count):
    owned = (f"own-{i}" for i in range(10_000)
             if builder.owner_of_key(hash_key("t", f"own-{i}")) == address)
    return [next(owned) for _ in range(count)]


RIDS = [rid for rid, _value in ENTRIES]
FRONT_ENDS = {
    "put": lambda provider, builder: [
        provider.put("t", rid, None, value) for rid, value in ENTRIES[:5]],
    "put_batch": lambda provider, builder: provider.put_batch("t", ENTRIES),
    "put_batch with a repeated triple": lambda provider, builder: provider.put_batch(
        "t", [("k", "v", 7), ("k", "v", 7), ("k", "w", 8), ("j", "v", 7)]),
    "put_chunk": lambda provider, builder: provider.put_chunk("t", RIDS, RIDS),
    "put_chunk(target=)": lambda provider, builder: provider.put_chunk(
        "t", RIDS, RIDS, target=5),
    "locally owned chunk": lambda provider, builder: provider.put_chunk(
        "t", local_rids(builder, 0, 6), list(range(6))),
}


@pytest.mark.parametrize("dht", ["can", "chord"])
@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_one_upcall_per_stored_chunk_in_chunk_order(dht, front_end):
    network, providers, builder = build_network(dht)
    chunks, upcalls = watch(providers)
    instance_ids = FRONT_ENDS[front_end](providers[0], builder)
    network.run_until_idle()

    assert sum(map(len, chunks.values())) > 0
    for address in providers:
        assert upcalls[address] == new_items_per_chunk(chunks[address])
    # Every stored triple was announced exactly once, on the node holding it.
    announced = sorted(t for calls in upcalls.values() for call in calls for t in call)
    assert announced == sorted({t for stored in chunks.values()
                                for chunk in stored for t in chunk})
    assert {iid for _rid, iid in announced} == set(instance_ids)
    if front_end == "put_chunk(target=)":
        assert not any(calls for address, calls in upcalls.items() if address != 5)
        assert sum(map(len, upcalls[5])) == len(RIDS)
    if front_end == "locally owned chunk":
        assert network.stats.protocol_messages.get("prov.put_chunk", 0) == 0
        assert len(upcalls[0]) == 1 and len(upcalls[0][0]) == 6


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_a_renewal_round_announces_nothing(dht):
    network, providers, _builder = build_network(dht)
    publisher = providers[0]
    agent = publisher.make_renewal_agent(refresh_period=30.0)
    for rid, value in ENTRIES:
        agent.track("t", rid, 900, value, lifetime=60.0, size_bytes=80)
    publisher.put_batch("t", [(rid, value, 900) for rid, value in ENTRIES],
                        lifetime=60.0)
    network.run_until_idle()
    chunks, upcalls = watch(providers)
    assert agent.renew_all() == len(ENTRIES)
    publisher.renew("t", ENTRIES[0][0], 900, lifetime=60.0)
    network.run_until_idle()
    assert sum(map(len, chunks.values())) > 1  # the round did arrive ...
    assert not any(upcalls.values())           # ... and was news to no one


def subscribe_quitter(provider, seen, late):
    """A subscriber that, on its first chunk, leaves and enrols ``late``."""
    def quitter(items):
        seen.extend(items)
        assert provider.off_new_data("t", quitter)
        provider.on_new_data("t", late.extend)

    provider.on_new_data("t", quitter)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_unsubscribing_inside_the_upcall_costs_nobody_a_chunk(dht):
    """Regression: the upcall iterated the live subscriber list, so a
    subscriber removing itself made the next one miss an item per node."""
    network, providers, _builder = build_network(dht, num_nodes=4)
    first, second, late = [], [], []
    for provider in providers.values():
        subscribe_quitter(provider, first, late)
        provider.on_new_data("t", second.extend)
    providers[0].put_batch("t", [(f"key-{i}", i) for i in range(40)])
    network.run_until_idle()
    assert len(second) == 40
    # The quitter saw each node's first chunk; its replacement, subscribed
    # during that round, was first called for the next chunk to arrive.
    assert first and len(first) + len(late) == 40
    providers[1].put_batch("t", [(f"more-{i}", i) for i in range(40)])
    network.run_until_idle()
    assert len(second) == 80
    assert sorted(map(id, first + late)) == sorted(map(id, second))


def test_a_subscriber_removed_mid_round_still_gets_that_chunk():
    """The subscriber list is snapshotted per chunk: removal takes effect
    with the next one."""
    network, providers, builder = build_network(num_nodes=4)
    owner = providers[builder.owner_of_key(hash_key("t", "x"))]
    victim_saw = []

    def remover(items):
        owner.off_new_data("t", victim_saw.extend)

    owner.on_new_data("t", remover)
    owner.on_new_data("t", victim_saw.extend)
    providers[1].put("t", "x", None, "first")
    network.run_until_idle()
    providers[1].put("t", "x", None, "second")
    network.run_until_idle()
    assert [item.value for item in victim_saw] == ["first"]
    assert owner.new_data_callback_count("t") == 1
