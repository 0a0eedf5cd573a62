"""Storage manager: per-node temporary storage of DHT items (paper Table 2).

The paper expects nothing more of the storage manager than main-memory
performance that keeps up with the network, and uses a main-memory
implementation; so do we.  Items are named by the ``(namespace, resourceID,
instanceID)`` triple and carry an expiry time for soft state.

Every namespace owns one partition: an insertion-ordered ``{(resourceID,
instanceID): item}`` dict plus ``{resourceID: {instanceID: item}}`` buckets.
Both keep first-store order (an overwrite keeps the item's place), so chunk
row order, rehash key order and same-instant send order downstream never
depend on how strings hash.  ``scan`` returns a snapshot of the partition (one
C-level copy) and ``retrieve`` a copy of one bucket, so a consumer may store
or remove while it iterates.  PIER's queries live in temporary namespaces
dropped whole at teardown: ``purge_namespace`` detaches the partition and
empties it, with no Python work per item.

Expiry is driven by a lazily-compacted min-heap of ``(expires_at, seq,
partition, (resourceID, instanceID))`` entries: :meth:`StorageManager.expire_items`
pops only entries whose deadline has passed, so every read path runs it first
and then serves straight from the partitions — the work done is proportional
to what expired, never to the store size.  An entry goes stale when its item
is overwritten (renewal) or removed, or its partition is purged; the stale
check is one ``dict.get`` on the partition the entry names.  Stale entries are
skipped on pop and the heap is rebuilt once they outnumber the live items.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import StorageError

SlotKey = Tuple[Any, int]


@dataclass
class StoredItem:
    """One item held by the storage manager.

    Attributes
    ----------
    namespace, resource_id, instance_id:
        The DHT naming triple (paper Section 3.2.3).
    value:
        Application payload (typically a tuple or a Bloom filter).
    key:
        The flat DHT key derived from ``(namespace, resource_id)``; kept so
        a membership change can decide which items migrate.
    expires_at:
        Virtual time after which the item is no longer visible (soft state).
    stored_at:
        Virtual time at which the item was (last) stored or renewed.
    publisher:
        Address of the publishing node (recall metric, renewal bookkeeping).
    size_bytes:
        Wire size used when the item is shipped between nodes.
    """

    namespace: str
    resource_id: Any
    instance_id: int
    value: Any
    key: int
    expires_at: float
    stored_at: float = 0.0
    publisher: Optional[int] = None
    size_bytes: int = 100

    def is_expired(self, now: float) -> bool:
        """Whether the item's lifetime has elapsed."""
        return now > self.expires_at


class _Partition:
    """One namespace's items, in first-store order, and its buckets."""

    __slots__ = ("namespace", "items", "buckets")

    def __init__(self, namespace: str) -> None:
        self.namespace = namespace
        self.items: Dict[SlotKey, StoredItem] = {}
        self.buckets: Dict[Any, Dict[int, StoredItem]] = {}


class StorageManager:
    """Main-memory store partitioned by namespace, with an expiry heap."""

    #: Minimum garbage before a heap rebuild is worth considering.
    _COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self._partitions: Dict[str, _Partition] = {}
        #: Min-heap of ``(expires_at, seq, partition, slot_key)``; ``seq``
        #: breaks ties so partitions and resource ids are never compared.
        self._expiry_heap: List[Tuple[float, int, _Partition, SlotKey]] = []
        self._heap_seq = itertools.count()
        #: Heap entries no longer backed by a live ``(key, expires_at)`` pair;
        #: every live item has exactly one live entry.
        self._heap_stale = 0

    def __len__(self) -> int:
        return len(self._expiry_heap) - self._heap_stale

    # ------------------------------------------------------------------ core

    def store(self, item: StoredItem) -> None:
        """Insert or overwrite an item (paper Table 2 ``store``)."""
        if not isinstance(item, StoredItem):
            raise StorageError(f"can only store StoredItem instances, got {type(item)!r}")
        partition = self._partitions.get(item.namespace)
        if partition is None:
            partition = self._partitions[item.namespace] = _Partition(item.namespace)
        key = (item.resource_id, item.instance_id)
        if key in partition.items:
            self._heap_stale += 1  # the overwritten item's heap entry
        partition.items[key] = item
        partition.buckets.setdefault(item.resource_id, {})[item.instance_id] = item
        heapq.heappush(self._expiry_heap,
                       (item.expires_at, next(self._heap_seq), partition, key))

    def store_batch(self, items: Iterable[StoredItem]) -> List[StoredItem]:
        """Insert many items in one pass; returns the ones that are new.

        An item is new when its triple was not live before the call: a
        renewal is not new, and of a triple repeated within the batch only
        the first item is (the last one is what stays stored).  This is the
        Provider's ``newData`` rule, so a stored chunk needs no per-item
        membership probe of its own.
        """
        if not isinstance(items, list):  # a chunk arrives as a list
            items = list(items)
        for item in items:  # validate up front: never mutate a partial batch
            if not isinstance(item, StoredItem):
                raise StorageError(
                    f"can only store StoredItem instances, got {type(item)!r}"
                )
        heap, seq = self._expiry_heap, self._heap_seq
        fresh: List[StoredItem] = []
        partition = None
        for item in items:
            if partition is None or partition.namespace != item.namespace:
                partition = self._partitions.get(item.namespace)
                if partition is None:
                    partition = self._partitions[item.namespace] = _Partition(
                        item.namespace)
                stored, buckets = partition.items, partition.buckets
            key = (item.resource_id, item.instance_id)
            if key in stored:
                self._heap_stale += 1
            else:
                fresh.append(item)
            stored[key] = item
            bucket = buckets.get(item.resource_id)
            if bucket is None:
                bucket = buckets[item.resource_id] = {}
            bucket[item.instance_id] = item
            heapq.heappush(heap, (item.expires_at, next(seq), partition, key))
        return fresh

    def renew_batch(self, namespace: str, resource_ids: Iterable[Any],
                    instance_ids: Iterable[int], expires_at: float,
                    now: float) -> List[int]:
        """Extend named items' lifetimes as an overwrite would; returns the
        indices of the triples not live (absent, or expired but not swept)."""
        partition = self._partitions.get(namespace)
        stored = partition.items if partition else {}
        missing: List[int] = []
        for index, key in enumerate(zip(resource_ids, instance_ids)):
            item = stored.get(key)
            if item is None or item.expires_at < now:
                missing.append(index)
                continue
            item = StoredItem(namespace, item.resource_id, item.instance_id, item.value,
                              item.key, expires_at, now, item.publisher, item.size_bytes)
            stored[key] = partition.buckets[key[0]][key[1]] = item
            self._heap_stale += 1
            heapq.heappush(self._expiry_heap, (expires_at, next(self._heap_seq), partition, key))
        return missing

    def retrieve(self, namespace: str, resource_id: Any, now: float) -> List[StoredItem]:
        """All live items matching ``(namespace, resourceID)`` (``retrieve``)."""
        self.expire_items(now)
        partition = self._partitions.get(namespace)
        bucket = partition.buckets.get(resource_id) if partition else None
        return list(bucket.values()) if bucket else []

    def remove(self, namespace: str, resource_id: Any,
               instance_id: Optional[int] = None) -> int:
        """Remove matching item(s); returns the number removed (``remove``)."""
        partition = self._partitions.get(namespace)
        if partition is None:
            return 0
        if instance_id is None:
            keys = [(resource_id, iid)
                    for iid in partition.buckets.get(resource_id, ())]
        else:
            keys = [key for key in [(resource_id, instance_id)]
                    if key in partition.items]
        for key in keys:
            self._remove(partition, key)
        return len(keys)

    def _remove(self, partition: _Partition, key: SlotKey) -> None:
        """Drop one stored item of ``partition`` (the partition too, if empty)."""
        del partition.items[key]
        self._heap_stale += 1  # the removed item's heap entry lingers
        bucket = partition.buckets[key[0]]
        del bucket[key[1]]
        if not bucket:
            del partition.buckets[key[0]]
        if not partition.items:
            del self._partitions[partition.namespace]

    # ------------------------------------------------------------- iteration

    def scan(self, namespace: str, now: float) -> List[StoredItem]:
        """The live items of a namespace, in first-store order (``lscan``).

        Expiry runs once up front; the result is a snapshot (one C-level
        copy), so consumers may store or remove while iterating it.
        """
        self.expire_items(now)
        partition = self._partitions.get(namespace)
        return list(partition.items.values()) if partition else []

    def namespaces(self) -> List[str]:
        """Namespaces that currently hold at least one item."""
        return sorted(self._partitions)

    def count(self, namespace: str, now: Optional[float] = None) -> int:
        """Number of items in a namespace (live items only when ``now`` given)."""
        if now is not None:
            self.expire_items(now)
        partition = self._partitions.get(namespace)
        return len(partition.items) if partition else 0

    def purge_namespace(self, namespace: str) -> int:
        """Remove every item of ``namespace``; returns the number removed.

        Query teardown uses this to reclaim temporary per-query namespaces
        (rehash fragments, Bloom filters, partial aggregates) without
        waiting for their soft-state lifetimes to elapse.  The partition is
        detached and emptied: its heap entries turn stale at once.
        """
        partition = self._partitions.pop(namespace, None)
        if partition is None:
            return 0
        removed = len(partition.items)
        self._heap_stale += removed
        partition.items.clear()
        partition.buckets.clear()
        return removed

    def purge_publisher(self, namespace: str, publisher: int) -> int:
        """Drop every item of ``namespace`` published by ``publisher``.

        Failure-aware soft-state purge: when a node's failure is detected,
        state it published into control namespaces (statistics, catalog
        partials) describes data that died with it — purging immediately
        stops a dead publisher's partials from poisoning planning decisions
        until their lifetime happens to elapse.  Returns the number removed.
        """
        partition = self._partitions.get(namespace)
        if partition is None:
            return 0
        keys = [key for key, item in partition.items.items()
                if item.publisher == publisher]
        for key in keys:
            self._remove(partition, key)
        return len(keys)

    # ------------------------------------------------------------- soft state

    def expire_items(self, now: float) -> int:
        """Drop every expired item; returns the number dropped.

        Pops the expiry heap only while its head deadline has passed, so the
        cost is O(dropped · log n) plus any stale entries consumed along the
        way — independent of how many live items the store holds.
        """
        heap = self._expiry_heap
        dropped = 0
        while heap and heap[0][0] < now:
            expires_at, _seq, partition, key = heapq.heappop(heap)
            item = partition.items.get(key)
            if item is None or item.expires_at != expires_at:
                self._heap_stale -= 1  # consumed a stale entry
                continue
            self._remove(partition, key)
            self._heap_stale -= 1  # ... but its entry was just popped
            dropped += 1
        # More stale entries than live items (heap = live + stale).
        if (self._heap_stale > self._COMPACT_FLOOR
                and 2 * self._heap_stale > len(heap)):
            self._compact_heap()
        return dropped

    def _compact_heap(self) -> None:
        """Rebuild the expiry heap from live items only (lazy compaction)."""
        self._expiry_heap = [
            (item.expires_at, next(self._heap_seq), partition, key)
            for partition in self._partitions.values()
            for key, item in partition.items.items()
        ]
        heapq.heapify(self._expiry_heap)
        self._heap_stale = 0

    # ------------------------------------------------------------- migration

    def extract(self, predicate: Callable[[int], bool]) -> List[StoredItem]:
        """Remove and return items whose DHT key satisfies ``predicate``.

        Used by a real node to hand items to their new owners after a
        membership change rebuilt its overlay (:mod:`repro.node`); each
        namespace's items come out in first-store order.
        """
        moving = [(partition, key, item)
                  for partition in self._partitions.values()
                  for key, item in partition.items.items()
                  if predicate(item.key)]
        for partition, key, _item in moving:
            self._remove(partition, key)
        return [item for _partition, _key, item in moving]

    def clear(self) -> int:
        """Drop everything (used when a node fails); returns items dropped."""
        dropped = len(self)
        self._partitions.clear()
        self._expiry_heap.clear()
        self._heap_stale = 0
        return dropped
