"""The flat-index storage manager: the reference the partitioned store is held to.

Until the storage manager was partitioned by namespace it kept one global
``(namespace, resourceID, instanceID) -> item`` dict plus two ordered key-set
indexes (by namespace, by ``(namespace, resourceID)``), and the Provider
asked ``has_instance`` per arriving item to decide what ``newData`` should
announce.  It left ``src/`` because a scan, a bucket read and a namespace
purge each paid a Python step per item; it stays here because it is the
shortest statement of what every read must return and in which order:
``tests/test_storage_partitions.py`` drives both stores through the same
operations and compares every answer.

Expiry is a lazily-compacted min-heap of ``(expires_at, seq, item_key)``
entries; an entry goes stale when its item is overwritten or removed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dht.storage import StoredItem
from repro.exceptions import StorageError

ItemKey = Tuple[str, Any, int]


def _item_key(item: StoredItem) -> ItemKey:
    return (item.namespace, item.resource_id, item.instance_id)


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
        key = _item_key(item)
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
        """Insert many items with grouped index updates."""
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
            key = _item_key(item)
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

        The ``newData`` rule the Provider applied per arriving item: an item
        is new unless its triple was live before it arrived.
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
        """Iterate over live items of a namespace, in first-store order."""
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
        """Number of items in a namespace (live items only when ``now`` given)."""
        if now is not None:
            self.expire_items(now)
        return len(self._by_namespace.get(namespace, ()))

    def purge_namespace(self, namespace: str) -> int:
        """Remove every item of ``namespace``; returns the number removed."""
        keys = list(self._by_namespace.get(namespace, ()))
        for key in keys:
            self._remove_key(key)
        return len(keys)

    def purge_publisher(self, namespace: str, publisher: int) -> int:
        """Drop every item of ``namespace`` published by ``publisher``."""
        keys = [
            key for key in self._by_namespace.get(namespace, ())
            if self._items[key].publisher == publisher
        ]
        for key in keys:
            self._remove_key(key)
        return len(keys)

    # ------------------------------------------------------------- soft state

    def expire_items(self, now: float) -> int:
        """Drop every expired item; returns the number dropped."""
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
        """Remove and return items whose DHT key satisfies ``predicate``."""
        moving = [item for item in self._items.values() if predicate(item.key)]
        for item in moving:
            self._remove_key(_item_key(item))
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
