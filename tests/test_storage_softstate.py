"""Unit tests for the storage manager and soft-state renewal."""

import math

import pytest

from repro.dht.storage import StorageManager, StoredItem
from repro.exceptions import StorageError
from repro.harness import PierNetwork, SimulationConfig
from repro.workloads import JoinWorkload, WorkloadConfig


def make_item(namespace="ns", resource="r1", instance=1, value="v", expires=100.0,
              key=0, publisher=None, size=50):
    return StoredItem(
        namespace=namespace, resource_id=resource, instance_id=instance,
        value=value, key=key, expires_at=expires, publisher=publisher,
        size_bytes=size,
    )


# ---------------------------------------------------------------- store/get


def test_store_and_retrieve():
    storage = StorageManager()
    storage.store(make_item(value="hello"))
    items = storage.retrieve("ns", "r1", now=0.0)
    assert len(items) == 1
    assert items[0].value == "hello"


def test_retrieve_returns_all_instances_of_same_resource():
    storage = StorageManager()
    storage.store(make_item(instance=1, value="a"))
    storage.store(make_item(instance=2, value="b"))
    values = {item.value for item in storage.retrieve("ns", "r1", now=0.0)}
    assert values == {"a", "b"}


def test_store_same_triple_overwrites():
    storage = StorageManager()
    storage.store(make_item(instance=1, value="old"))
    storage.store(make_item(instance=1, value="new"))
    items = storage.retrieve("ns", "r1", now=0.0)
    assert len(items) == 1
    assert items[0].value == "new"


def test_retrieve_unknown_resource_is_empty():
    storage = StorageManager()
    assert storage.retrieve("ns", "missing", now=0.0) == []


def test_store_rejects_non_items():
    storage = StorageManager()
    with pytest.raises(StorageError):
        storage.store({"not": "an item"})


# -------------------------------------------------------------------- remove


def test_remove_specific_instance():
    storage = StorageManager()
    storage.store(make_item(instance=1))
    storage.store(make_item(instance=2))
    assert storage.remove("ns", "r1", instance_id=1) == 1
    assert len(storage.retrieve("ns", "r1", now=0.0)) == 1


def test_remove_all_instances_of_resource():
    storage = StorageManager()
    storage.store(make_item(instance=1))
    storage.store(make_item(instance=2))
    assert storage.remove("ns", "r1") == 2
    assert storage.retrieve("ns", "r1", now=0.0) == []


def test_remove_missing_returns_zero():
    storage = StorageManager()
    assert storage.remove("ns", "nothing") == 0


# ---------------------------------------------------------------------- scan


def test_scan_iterates_only_requested_namespace():
    storage = StorageManager()
    storage.store(make_item(namespace="a", resource="x", instance=1))
    storage.store(make_item(namespace="b", resource="y", instance=2))
    assert {item.namespace for item in storage.scan("a", now=0.0)} == {"a"}
    assert storage.count("a") == 1
    assert storage.namespaces() == ["a", "b"]


def test_scan_skips_and_purges_expired_items():
    storage = StorageManager()
    storage.store(make_item(resource="fresh", instance=1, expires=100.0))
    storage.store(make_item(resource="stale", instance=2, expires=10.0))
    live = list(storage.scan("ns", now=50.0))
    assert [item.resource_id for item in live] == ["fresh"]
    assert len(storage) == 1  # the stale item was dropped during the scan


def test_scan_and_retrieve_return_insertion_order():
    """Read order is first-store order — never the hash order of the keys
    (strings hash differently in every interpreter) — for ``store`` and
    ``store_batch`` alike, and across a remove followed by a re-store."""
    storage = StorageManager()
    names = ["zeta", "alpha", "mu", "beta", "omega", "chi", "eta", "psi"]
    storage.store_batch([make_item(resource=name, instance=i)
                         for i, name in enumerate(names[:5])])
    for i, name in enumerate(names[5:], start=5):
        storage.store(make_item(resource=name, instance=i))
    for i, tag in enumerate(["third", "first", "second"], start=100):
        storage.store(make_item(resource="mu", instance=i, value=tag))

    def scanned():
        return [(item.resource_id, item.instance_id)
                for item in storage.scan("ns", now=0.0)]

    def retrieved():
        return [item.value for item in storage.retrieve("ns", "mu", now=0.0)]

    in_order = list(zip(names, range(8))) + [("mu", 100), ("mu", 101), ("mu", 102)]
    assert scanned() == in_order
    assert retrieved() == ["v", "third", "first", "second"]

    # An overwrite (renewal) keeps the item's place ...
    storage.store(make_item(resource="alpha", instance=1, value="renewed"))
    assert scanned() == in_order
    # ... a removed item leaves no gap, and re-storing it appends.
    assert storage.remove("ns", "mu", 100) == 1
    assert storage.remove("ns", "zeta") == 1
    storage.store(make_item(resource="mu", instance=100, value="third"))
    storage.store(make_item(resource="zeta", instance=0))
    assert scanned() == in_order[1:8] + in_order[9:] + [("mu", 100), ("zeta", 0)]
    assert retrieved() == ["v", "first", "second", "third"]


# ----------------------------------------------------------------- soft state


def test_expire_items_drops_only_expired():
    storage = StorageManager()
    storage.store(make_item(resource="a", instance=1, expires=10.0))
    storage.store(make_item(resource="b", instance=2, expires=100.0))
    assert storage.expire_items(now=50.0) == 1
    assert len(storage) == 1


def test_retrieve_hides_expired_items():
    storage = StorageManager()
    storage.store(make_item(expires=5.0))
    assert storage.retrieve("ns", "r1", now=10.0) == []


def test_item_not_expired_exactly_at_deadline():
    item = make_item(expires=5.0)
    assert not item.is_expired(5.0)
    assert item.is_expired(5.0001)


# ----------------------------------------------------------------- migration


def test_extract_and_store_batch_move_items_by_key_predicate():
    storage = StorageManager()
    storage.store(make_item(resource="low", instance=1, key=10))
    storage.store(make_item(resource="high", instance=2, key=1000))
    moved = storage.extract(lambda key: key >= 500)
    assert [item.resource_id for item in moved] == ["high"]
    assert len(storage) == 1

    other = StorageManager()
    other.store_batch(moved)
    assert other.retrieve("ns", "high", now=0.0)


def test_clear_drops_everything():
    storage = StorageManager()
    storage.store(make_item(instance=1))
    storage.store(make_item(instance=2, resource="other"))
    assert storage.clear() == 2
    assert len(storage) == 0
    assert storage.namespaces() == []


# ------------------------------------------------------------- expiry heap


def test_count_uses_index_without_materializing(monkeypatch):
    storage = StorageManager()
    for i in range(5):
        storage.store(make_item(resource=f"r{i}", instance=i, expires=10.0 + i))
    # count() must not iterate items: poison scan to prove it is unused.
    monkeypatch.setattr(storage, "scan",
                        lambda *a, **k: (_ for _ in ()).throw(AssertionError))
    assert storage.count("ns") == 5
    assert storage.count("ns", now=12.5) == 2   # expires 13.0 and 14.0 survive
    assert storage.count("missing", now=0.0) == 0


def test_expiry_work_proportional_to_expired_not_store_size():
    storage = StorageManager()
    for i in range(200):
        storage.store(make_item(resource=f"live{i}", instance=i, expires=1000.0))
    storage.store(make_item(resource="stale", instance=999, expires=1.0))
    assert storage.expire_items(now=5.0) == 1
    assert len(storage) == 200
    # Nothing left to expire: repeated sweeps pop nothing.
    assert storage.expire_items(now=5.0) == 0


def test_renewal_keeps_item_past_original_deadline():
    storage = StorageManager()
    storage.store(make_item(instance=1, expires=10.0))
    storage.store(make_item(instance=1, expires=50.0))  # renewal overwrite
    assert storage.expire_items(now=20.0) == 0          # old heap entry is stale
    assert len(storage.retrieve("ns", "r1", now=20.0)) == 1
    assert storage.expire_items(now=60.0) == 1


def test_shortened_lifetime_expires_at_new_deadline():
    storage = StorageManager()
    storage.store(make_item(instance=1, expires=50.0))
    storage.store(make_item(instance=1, expires=10.0))
    assert storage.retrieve("ns", "r1", now=20.0) == []


def test_heap_compaction_preserves_expiry_behaviour():
    storage = StorageManager()
    for i in range(300):
        storage.store(make_item(resource=f"r{i}", instance=i, expires=100.0))
    for i in range(250):
        storage.remove("ns", f"r{i}")
    # Trigger the lazy compaction path and verify expiry still works.
    storage.expire_items(now=0.0)
    assert len(storage) == 50
    assert storage.expire_items(now=200.0) == 50
    assert len(storage) == 0


def test_store_batch_matches_sequential_stores():
    batched = StorageManager()
    sequential = StorageManager()
    items = [make_item(namespace=f"n{i % 2}", resource=f"r{i % 3}", instance=i,
                       expires=10.0 * (i + 1)) for i in range(12)]
    batched.store_batch(items)
    for item in items:
        sequential.store(make_item(namespace=item.namespace,
                                   resource=item.resource_id,
                                   instance=item.instance_id,
                                   expires=item.expires_at))
    assert len(batched) == len(sequential)
    assert batched.namespaces() == sequential.namespaces()
    for namespace in batched.namespaces():
        assert batched.count(namespace) == sequential.count(namespace)
    batched.expire_items(now=45.0)
    sequential.expire_items(now=45.0)
    assert len(batched) == len(sequential)


def test_store_batch_returns_the_items_of_triples_not_live_before():
    storage = StorageManager()
    storage.store(make_item(instance=1, expires=10.0))
    renewal, other = make_item(instance=1, value="renewed"), make_item(instance=2)
    first, repeat = make_item(instance=3, value="a"), make_item(instance=3, value="b")
    fresh = storage.store_batch([renewal, other, first, repeat])
    assert len(fresh) == 2 and fresh[0] is other and fresh[1] is first
    # The last item of a repeated triple is what stays stored.
    assert [item.value for item in storage.retrieve("ns", "r1", now=5.0)] == [
        "renewed", "v", "b"]
    # An expired triple is not live: once expiry ran, storing it is new again.
    storage.store(make_item(instance=4, expires=10.0))
    storage.expire_items(now=11.0)
    again = make_item(instance=4, expires=50.0)
    assert storage.store_batch([again]) == [again]


# ------------------------------------------------------------ renewal pin
#
# The write path end to end: 32-node deployments whose every publisher runs
# a renewal agent, one refresh period long, with a fresh short-lived
# ``put_batch`` published at its start.  The fixed-seed query pins cover
# reads; this one holds the routed puts, the renewal storm (names only, no
# values: every owner still holds what it is asked to renew) and expiry.
# The fast load records every owner, so the storm is one direct chunk per
# (publisher, namespace, lifetime, owner) and no lookup: only the fresh
# put_batch routes (CAN 2 947 -> 704 messages, Chord 2 201 -> 557, when the
# storm still resolved every key; prov.put_chunk fell 682 -> 611 on CAN, one
# chunk per owner instead of one per resolution wave).
# CAN was re-recorded when it became a torus (704 messages, 72 616 bytes,
# 450 events, 261 hops, last store at 1.0019 s on the square): hops fell by
# a fifth and the last fresh item is stored 0.2 s sooner, but the fresh
# batch's keys bound for the antipodal row or column of the 8 x 4 grid
# split between the two ways round, so 4 more ``can.route_batch`` and 5
# more lookup replies and put chunks (+14 messages).

RENEWAL_PINS = {
    # Re-recorded when a lookup began to end at the node whose routing table
    # names the owner (CAN 718 messages, 71 296 bytes, 459 events, 59
    # ``can.route_batch`` and 43 replies; Chord 557, 60 508, 390, 36 and 18):
    # the fresh put's keys resolve one hop sooner, so the hop sum loses one
    # per key an owner used to answer (64 CAN, 62 Chord keys) and the last
    # fresh item is stored one 100 ms hop earlier.  Renewals take no lookup.
    # CAN re-recorded when a key's point became its own bit fields instead
    # of a salted re-hash (693 messages, 67 044 bytes, 139 hops, 38
    # ``can.route_batch``, 39 replies, 616 put chunks, last store at
    # 0.7016864 s): placement moved, so the load's and the fresh put's keys
    # meet other owners over other paths; the period's events did not move.
    "can": {"messages_sent": 684, "bytes_delivered": 65784,
            "events_processed": 426, "lookup_hops": 128,
            "protocol_messages": {"can.batch_lookup_reply": 37,
                                  "can.route_batch": 40,
                                  "prov.put_chunk": 607},
            "fresh_stored": 64, "fresh_expired": 64,
            "last_store_time": 0.70128},
    "chord": {"messages_sent": 542, "bytes_delivered": 57128,
              "events_processed": 374, "lookup_hops": 201 - 62,
              "protocol_messages": {"chord.batch_lookup_reply": 18,
                                    "chord.route_batch": 21,
                                    "prov.put_chunk": 503},
              "fresh_stored": 64, "fresh_expired": 64,
              "last_store_time": 0.5025248000000001},
}


def renewal_period_facts(dht):
    """One refresh period of the pinned deployment, as comparable facts."""
    pier = PierNetwork(SimulationConfig(num_nodes=32, dht=dht, seed=7,
                                        sweep_period_s=5.0))
    workload = JoinWorkload(WorkloadConfig(num_nodes=32, s_tuples_per_node=2,
                                           seed=11))
    pier.start_renewal_agents(30.0)
    for relation, rows in ((workload.r_relation, workload.r_by_node),
                           (workload.s_relation, workload.s_by_node)):
        pier.load_relation(relation, rows, lifetime=60.0, track_renewal=True)
    entries = [(rid, {"id": rid}, None, 100) for rid in range(64)]
    pier.provider(3).put_batch("fresh", entries, lifetime=15.0)
    pier.run(until=10.0)
    fresh = [item for provider in pier.providers.values()
             for item in provider.storage.scan("fresh", -math.inf)]
    pier.run(until=40.0)
    left = sum(len(provider.storage.scan("fresh", -math.inf))
               for provider in pier.providers.values())
    stats = pier.network.stats
    return {
        "messages_sent": stats.messages_sent,
        "bytes_delivered": stats.bytes_delivered,
        "events_processed": pier.network.simulator.events_processed,
        "lookup_hops": sum(sum(routing.lookup_hops_observed)
                           for routing in pier.routings.values()),
        "protocol_messages": dict(sorted(stats.protocol_messages.items())),
        "fresh_stored": len(fresh),
        "fresh_expired": len(fresh) - left,
        "last_store_time": max(item.stored_at for item in fresh),
    }


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_renewal_period_is_pinned(dht):
    assert renewal_period_facts(dht) == RENEWAL_PINS[dht]
