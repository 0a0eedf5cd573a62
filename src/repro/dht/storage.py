"""Storage manager: per-node temporary storage of DHT items (paper Table 2).

The paper expects nothing more of the storage manager than main-memory
performance that keeps up with the network, and uses a main-memory
implementation; so do we.  Items are addressed by the full
``(namespace, resourceID, instanceID)`` triple and carry an expiry time for
soft state.  Secondary indexes by namespace and by ``(namespace,
resourceID)`` support the Provider's ``lscan`` and ``get`` operations
without full scans.  Both are insertion-ordered (dicts used as ordered
sets), so ``scan`` and ``retrieve`` return items in the order they were
first stored: chunk row order, rehash key order and same-instant send order
downstream never depend on how strings hash.

Expiry is driven by a lazily-compacted min-heap of ``(expires_at, item_key)``
entries: :meth:`StorageManager.expire_items` pops only entries whose deadline
has passed, so every read path (``retrieve``/``scan``/``count``) runs it
first and then serves straight from the indexes — the work done is
proportional to what actually expired, never to the store size.  Entries go
stale when an item is overwritten (renewal) or removed; stale entries are
skipped on pop and the heap is rebuilt once they outnumber the live items.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import StorageError

ItemKey = Tuple[str, Any, int]


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
        the routing layer can decide which items migrate on join/leave.
    expires_at:
        Virtual time after which the item is no longer visible (soft state).
    stored_at:
        Virtual time at which the item was (last) stored or renewed.
    publisher:
        Address of the node that published the item, used by the recall
        metric and by renewal bookkeeping.
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

    @property
    def item_key(self) -> ItemKey:
        """The full identifying triple."""
        return (self.namespace, self.resource_id, self.instance_id)

    def is_expired(self, now: float) -> bool:
        """Whether the item's lifetime has elapsed."""
        return now > self.expires_at


class StorageManager:
    """Main-memory store with namespace, resource and expiry indexes."""

    #: Minimum garbage before a heap rebuild is worth considering.
    _COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self._items: Dict[ItemKey, StoredItem] = {}
        #: The two indexes are ordered sets: ``{item_key: None}`` in
        #: first-store order (an overwrite keeps the item's position).
        self._by_namespace: Dict[str, Dict[ItemKey, None]] = {}
        self._by_resource: Dict[Tuple[str, Any], Dict[ItemKey, None]] = {}
        #: Min-heap of ``(expires_at, seq, item_key)``; ``seq`` breaks ties so
        #: heterogeneous resource ids are never compared.
        self._expiry_heap: List[Tuple[float, int, ItemKey]] = []
        self._heap_seq = itertools.count()
        #: Heap entries no longer backed by a live ``(key, expires_at)`` pair.
        self._heap_stale = 0

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------ core

    def store(self, item: StoredItem) -> None:
        """Insert or overwrite an item (paper Table 2 ``store``)."""
        if not isinstance(item, StoredItem):
            raise StorageError(f"can only store StoredItem instances, got {type(item)!r}")
        key = item.item_key
        if key in self._items:
            self._items[key] = item
            self._heap_stale += 1  # the overwritten item's heap entry
        else:
            self._items[key] = item
            self._by_namespace.setdefault(item.namespace, {})[key] = None
            self._by_resource.setdefault(
                (item.namespace, item.resource_id), {})[key] = None
        heapq.heappush(self._expiry_heap,
                       (item.expires_at, next(self._heap_seq), key))

    def store_batch(self, items: Iterable[StoredItem]) -> None:
        """Insert many items with grouped index updates (hot ingestion path).

        Batched ``put`` delivery and join/leave migration hand whole groups
        of items to one node; updating the namespace/resource indexes per group
        instead of per item avoids repeated hashing of the same index keys.
        """
        items = list(items)
        for item in items:  # validate up front: never mutate a partial batch
            if not isinstance(item, StoredItem):
                raise StorageError(
                    f"can only store StoredItem instances, got {type(item)!r}"
                )
        heap = self._expiry_heap
        stored = self._items
        by_namespace: Dict[str, List[ItemKey]] = {}
        by_resource: Dict[Tuple[str, Any], List[ItemKey]] = {}
        for item in items:
            key = item.item_key
            if key in stored:
                self._heap_stale += 1
            else:
                by_namespace.setdefault(item.namespace, []).append(key)
                by_resource.setdefault(
                    (item.namespace, item.resource_id), []).append(key)
            stored[key] = item
            heapq.heappush(heap, (item.expires_at, next(self._heap_seq), key))
        for namespace, keys in by_namespace.items():
            self._by_namespace.setdefault(namespace, {}).update(
                dict.fromkeys(keys))
        for resource, keys in by_resource.items():
            self._by_resource.setdefault(resource, {}).update(
                dict.fromkeys(keys))

    def retrieve(self, namespace: str, resource_id: Any, now: float) -> List[StoredItem]:
        """All live items matching ``(namespace, resourceID)`` (``retrieve``)."""
        self.expire_items(now)
        keys = self._by_resource.get((namespace, resource_id))
        if not keys:
            return []
        items = self._items
        return [items[key] for key in keys]

    def has_instance(self, namespace: str, resource_id: Any, instance_id: int,
                     now: float) -> bool:
        """Whether the exact live triple is currently stored.

        The Provider's ``newData`` suppression check; unlike
        :meth:`retrieve` it materialises nothing.
        """
        self.expire_items(now)
        return (namespace, resource_id, instance_id) in self._items

    def remove(self, namespace: str, resource_id: Any,
               instance_id: Optional[int] = None) -> int:
        """Remove matching item(s); returns the number removed (``remove``)."""
        if instance_id is not None:
            key = (namespace, resource_id, instance_id)
            if key in self._items:
                self._remove_key(key)
                return 1
            return 0
        keys = list(self._by_resource.get((namespace, resource_id), ()))
        for key in keys:
            self._remove_key(key)
        return len(keys)

    def _remove_key(self, key: ItemKey) -> None:
        item = self._items.pop(key, None)
        if item is None:
            return
        self._heap_stale += 1  # the removed item's heap entry lingers
        namespace_keys = self._by_namespace.get(item.namespace)
        if namespace_keys is not None:
            namespace_keys.pop(key, None)
            if not namespace_keys:
                del self._by_namespace[item.namespace]
        resource_keys = self._by_resource.get((item.namespace, item.resource_id))
        if resource_keys is not None:
            resource_keys.pop(key, None)
            if not resource_keys:
                del self._by_resource[(item.namespace, item.resource_id)]

    # ------------------------------------------------------------- iteration

    def scan(self, namespace: str, now: float) -> Iterator[StoredItem]:
        """Iterate over live items of a namespace (backs the Provider ``lscan``).

        Expiry runs once up front (heap-indexed, proportional to what
        expired); the iteration itself does no per-item deadline checks.
        The key list is snapshotted so consumers may store/remove while
        iterating.
        """
        self.expire_items(now)
        keys = self._by_namespace.get(namespace)
        if not keys:
            return
        items = self._items
        for key in list(keys):
            item = items.get(key)
            if item is not None:
                yield item

    def namespaces(self) -> List[str]:
        """Namespaces that currently hold at least one item."""
        return sorted(self._by_namespace)

    def count(self, namespace: str, now: Optional[float] = None) -> int:
        """Number of items in a namespace (live items only when ``now`` given).

        With ``now`` this expires what is due and then reads the namespace
        index's size — no items are materialised or yielded.
        """
        if now is not None:
            self.expire_items(now)
        return len(self._by_namespace.get(namespace, ()))

    def purge_namespace(self, namespace: str) -> int:
        """Remove every item of ``namespace``; returns the number removed.

        Query teardown uses this to reclaim temporary per-query namespaces
        (rehash fragments, Bloom filters, partial aggregates) without
        waiting for their soft-state lifetimes to elapse.
        """
        keys = list(self._by_namespace.get(namespace, ()))
        for key in keys:
            self._remove_key(key)
        return len(keys)

    def purge_publisher(self, namespace: str, publisher: int) -> int:
        """Drop every item of ``namespace`` published by ``publisher``.

        Failure-aware soft-state purge: when a node's failure is detected,
        state it published into control namespaces (statistics, catalog
        partials) describes data that died with it — purging immediately
        stops a dead publisher's partials from poisoning planning decisions
        until their lifetime happens to elapse.  Returns the number removed.
        """
        keys = [
            key for key in self._by_namespace.get(namespace, ())
            if self._items[key].publisher == publisher
        ]
        for key in keys:
            self._remove_key(key)
        return len(keys)

    # ------------------------------------------------------------- soft state

    def expire_items(self, now: float) -> int:
        """Drop every expired item; returns the number dropped.

        Pops the expiry heap only while its head deadline has passed, so the
        cost is O(dropped · log n) plus any stale entries consumed along the
        way — independent of how many live items the store holds.
        """
        heap = self._expiry_heap
        items = self._items
        dropped = 0
        while heap and heap[0][0] < now:
            expires_at, _seq, key = heapq.heappop(heap)
            item = items.get(key)
            if item is None or item.expires_at != expires_at:
                self._heap_stale -= 1  # consumed a stale entry
                continue
            self._remove_key(key)
            self._heap_stale -= 1  # ... but its entry was just popped
            dropped += 1
        if (self._heap_stale > self._COMPACT_FLOOR
                and self._heap_stale > len(items)):
            self._compact_heap()
        return dropped

    def _compact_heap(self) -> None:
        """Rebuild the expiry heap from live items only (lazy compaction)."""
        self._expiry_heap = [
            (item.expires_at, next(self._heap_seq), key)
            for key, item in self._items.items()
        ]
        heapq.heapify(self._expiry_heap)
        self._heap_stale = 0

    # ------------------------------------------------------------- migration

    def extract(self, predicate: Callable[[int], bool]) -> List[StoredItem]:
        """Remove and return items whose DHT key satisfies ``predicate``.

        Used by the routing layer to hand items to a new zone owner on
        join/leave.
        """
        moving = [item for item in self._items.values() if predicate(item.key)]
        for item in moving:
            self._remove_key(item.item_key)
        return moving

    def install(self, items: List[StoredItem]) -> None:
        """Install items received from another node."""
        self.store_batch(items)

    def clear(self) -> int:
        """Drop everything (used when a node fails); returns items dropped."""
        dropped = len(self._items)
        self._items.clear()
        self._by_namespace.clear()
        self._by_resource.clear()
        self._expiry_heap.clear()
        self._heap_stale = 0
        return dropped
