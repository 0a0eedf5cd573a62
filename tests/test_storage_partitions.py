"""The namespace-partitioned store against the flat-index store it replaced.

``tests/reference/storage.py`` is the storage manager as it was before every
namespace got a partition of its own: one global triple-keyed dict plus two
ordered key-set indexes and a per-item ``has_instance`` probe.  A state
machine drives both through every operation at random times with the *same*
``StoredItem`` objects and compares each answer by identity and order —
so scan order, bucket order, overwrite-keeps-position, expiry, the heap's
stale count, ``store_batch``'s fresh list (the ``newData`` rule) and
``renew_batch``'s missing list all have to match.  Separate guards count the
Python calls a purge and a scan make.
"""

from __future__ import annotations

import math
import sys

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dht.storage import StorageManager, StoredItem
from tests.reference.storage import StorageManager as ReferenceStorage

NAMESPACES = ["a", "b", "c"]
namespaces = st.sampled_from(NAMESPACES)
# ``1`` and ``True`` are one resource id to a dict; both stores must agree.
resources = st.sampled_from([0, 1, True, "x", "y", ("t", 2), None, 2.5])
instances = st.integers(min_value=0, max_value=3)
publishers = st.sampled_from([None, 1, 2])
item_specs = st.tuples(namespaces, resources, instances,
                       st.sampled_from([0.0, 1.0, 5.0, 20.0]),  # lifetime
                       publishers, st.integers(min_value=0, max_value=9))


def ids(items):
    return [id(item) for item in items]


class StoreEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = StorageManager()
        self.reference = ReferenceStorage()
        for storage in (self.store, self.reference):  # compact within a run
            storage._COMPACT_FLOOR = 4
        self.now = 0.0
        self.made = 0

    def make(self, spec):
        namespace, resource, instance, lifetime, publisher, key = spec
        self.made += 1
        return StoredItem(namespace, resource, instance, self.made, key,
                          self.now + lifetime, self.now, publisher)

    @rule(step=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def advance(self, step):
        self.now += step

    @rule(spec=item_specs)
    def store_one(self, spec):
        item = self.make(spec)
        self.store.store(item)
        self.reference.store(item)

    @rule(specs=st.lists(item_specs, max_size=6), expire_first=st.booleans())
    def store_batch(self, specs, expire_first):
        items = [self.make(spec) for spec in specs]
        if expire_first:  # what the Provider does for a subscribed namespace
            assert (self.store.expire_items(self.now)
                    == self.reference.expire_items(self.now))
        expected = {}
        for item in items:
            triple = (item.namespace, item.resource_id, item.instance_id)
            # Migration stores without expiring: whatever is stored is live.
            live = (self.reference.has_instance(*triple, self.now) if expire_first
                    else triple in self.reference._items)
            if not live:
                expected.setdefault(triple, item)
        self.reference.store_batch(items)
        assert ids(self.store.store_batch(items)) == ids(expected.values())

    @rule(namespace=namespaces,
          pairs=st.lists(st.tuples(resources, instances), max_size=5),
          lifetime=st.sampled_from([0.0, 1.0, 5.0, 20.0]))
    def renew_batch(self, namespace, pairs, lifetime):
        # The reference has no renew: a live triple is overwritten by the
        # record the store made, so both hold the same object afterwards.
        old = [self.reference._items.get((namespace, *pair)) for pair in pairs]
        times = [item and (item.expires_at, item.stored_at) for item in old]
        missing = self.store.renew_batch(
            namespace, [rid for rid, _iid in pairs], [iid for _rid, iid in pairs],
            self.now + lifetime, self.now)
        assert missing == [index for index, item in enumerate(old)
                           if item is None or item.expires_at < self.now]
        for index, (pair, item) in enumerate(zip(pairs, old)):
            if index in missing:
                continue
            renewed = self.store._partitions[namespace].items[pair]
            # Whoever holds the old record does not see it change.
            assert renewed is not item and (item.expires_at, item.stored_at) == times[index]
            assert (renewed.value, renewed.publisher, renewed.key) == (
                item.value, item.publisher, item.key)
            assert renewed.resource_id is item.resource_id  # 1 renews True
            assert (renewed.expires_at, renewed.stored_at) == (
                self.now + lifetime, self.now)
            self.reference.store(renewed)

    @rule(namespace=namespaces, resource=resources)
    def retrieve(self, namespace, resource):
        assert (ids(self.store.retrieve(namespace, resource, self.now))
                == ids(self.reference.retrieve(namespace, resource, self.now)))

    @rule(namespace=namespaces)
    def scan(self, namespace):
        assert (ids(self.store.scan(namespace, self.now))
                == ids(self.reference.scan(namespace, self.now)))

    @rule(namespace=namespaces, at_now=st.booleans())
    def count(self, namespace, at_now):
        now = self.now if at_now else None
        assert self.store.count(namespace, now) == self.reference.count(namespace, now)

    @rule(namespace=namespaces, resource=resources,
          instance=st.one_of(st.none(), instances))
    def remove(self, namespace, resource, instance):
        assert (self.store.remove(namespace, resource, instance)
                == self.reference.remove(namespace, resource, instance))

    @rule(namespace=namespaces)
    def purge_namespace(self, namespace):
        assert (self.store.purge_namespace(namespace)
                == self.reference.purge_namespace(namespace))

    @rule(namespace=namespaces, publisher=publishers)
    def purge_publisher(self, namespace, publisher):
        assert (self.store.purge_publisher(namespace, publisher)
                == self.reference.purge_publisher(namespace, publisher))

    @rule()
    def expire_items(self):
        assert (self.store.expire_items(self.now)
                == self.reference.expire_items(self.now))

    @rule(threshold=st.integers(min_value=0, max_value=10), reinstall=st.booleans())
    def extract(self, threshold, reinstall):
        moved = self.store.extract(lambda key: key >= threshold)
        moved_reference = self.reference.extract(lambda key: key >= threshold)
        # Each namespace's items leave in first-store order; how namespaces
        # interleave in the list is not part of the contract.
        for namespace in NAMESPACES:
            assert (ids(item for item in moved if item.namespace == namespace)
                    == ids(item for item in moved_reference
                           if item.namespace == namespace))
        assert len(moved) == len(moved_reference)
        if reinstall:
            self.store.store_batch(moved)
            self.reference.store_batch(moved_reference)

    @rule()
    def clear(self):
        assert self.store.clear() == self.reference.clear()

    @invariant()
    def stores_agree(self):
        store, reference = self.store, self.reference
        assert len(store) == len(reference)
        assert store.namespaces() == reference.namespaces()
        assert len(store._expiry_heap) == len(reference._expiry_heap)
        assert store._heap_stale == reference._heap_stale
        for namespace in NAMESPACES:  # -inf: read without expiring anything
            assert store.count(namespace) == reference.count(namespace)
            assert (ids(store.scan(namespace, -math.inf))
                    == ids(reference.scan(namespace, -math.inf)))


StoreEquivalence.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None, derandomize=True)
TestStoreEquivalence = StoreEquivalence.TestCase


# ------------------------------------------------------------ cost guards


def _filled(count: int) -> StorageManager:
    storage = StorageManager()
    storage.store_batch(StoredItem("query", i % 7, i, i, 0, 100.0)
                        for i in range(count))
    storage.store(StoredItem("base", 0, 0, 0, 0, 100.0))
    return storage


def _profile_events(call) -> int:
    """Python and builtin calls made while ``call()`` runs."""
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        call()
    finally:
        sys.setprofile(None)
    return sum(event in ("call", "c_call") for event in events)


def test_purging_a_namespace_makes_no_per_item_calls():
    small, large = _filled(10), _filled(2_000)
    assert (_profile_events(lambda: small.purge_namespace("query"))
            == _profile_events(lambda: large.purge_namespace("query")))
    assert len(large) == 1 and large.namespaces() == ["base"]
    # Its heap entries went stale at once, and expire past them cleanly.
    assert large.expire_items(now=200.0) == 1 and len(large) == 0


def test_scan_and_retrieve_make_no_per_item_calls():
    small, large = _filled(10), _filled(2_000)
    for storage in (small, large):
        assert len(storage.scan("query", 0.0)) == len(storage) - 1
    assert (_profile_events(lambda: small.scan("query", 0.0))
            == _profile_events(lambda: large.scan("query", 0.0)))
    assert (_profile_events(lambda: small.retrieve("query", 3, 0.0))
            == _profile_events(lambda: large.retrieve("query", 3, 0.0)))
