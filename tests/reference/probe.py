"""The per-arrival probe: the reference the chunk probe kernel is tested against.

Until the arrival side went chunk-at-a-time this was the engine's symmetric
hash join: the Provider stored an arriving chunk an item at a time and made
one ``newData`` upcall per new item, and the executor answered each upcall
with one candidate scan — a ``DHTItem`` view of *every* fragment stored under
the join value, its own side included — shipping the matches of that one
fragment as one result message.  Fragments that beat the query multicast were
probed in instance-id order against a growing ``seen`` list (``restrict_to``).
It left ``src/`` because its cost is quadratic in the join fan-out; it stays
here because it is the shortest statement of which pairs a history of
arrivals must produce: ``QueryExecutor._probe_pairs`` has to emit the same
multiset, each pair once, however the history is cut into chunks.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.dht.provider import DHTItem
from repro.dht.storage import StoredItem
from tests.reference.storage import StorageManager

#: One arriving fragment: ``(resource_id, instance_id, (side, row))``.
Fragment = Tuple[Any, int, Tuple[str, Any]]
Pair = Tuple[Any, Any]


def _view(item: StoredItem) -> DHTItem:
    return DHTItem(namespace=item.namespace, resource_id=item.resource_id,
                   instance_id=item.instance_id, value=item.value,
                   publisher=item.publisher, size_bytes=item.size_bytes)


class PerArrivalProbe:
    """Row-at-a-time symmetric hash join over a storage manager of its own."""

    def __init__(self, namespace: str, left_alias: str, right_alias: str):
        self.namespace = namespace
        self.left_alias = left_alias
        self.right_alias = right_alias
        self.storage = StorageManager()
        self.listening = False
        #: The ``(left_row, right_row)`` pairs of every result message, in
        #: send order: one message per fragment that found a match.
        self.messages: List[List[Pair]] = []

    def store_chunk(self, chunk: Iterable[Fragment], now: float = 0.0,
                    lifetime: float = 300.0) -> None:
        """An arriving chunk, as the Provider used to store it: per item a
        liveness check, a store and — for a new triple — one upcall."""
        for resource_id, instance_id, value in chunk:
            is_new = not self.storage.has_instance(
                self.namespace, resource_id, instance_id, now)
            item = StoredItem(self.namespace, resource_id, instance_id, value,
                              key=0, expires_at=now + lifetime, stored_at=now)
            self.storage.store(item)
            if is_new and self.listening:
                self._probe(_view(item), now)

    def start(self, now: float = 0.0) -> None:
        """The query arrives: register, then probe what beat it here."""
        self.listening = True
        backlog = sorted((_view(item) for item
                          in self.storage.scan(self.namespace, now)),
                         key=lambda item: item.instance_id)
        seen: List[DHTItem] = []
        for item in backlog:
            self._probe(item, now, restrict_to=seen)
            seen.append(item)

    def _probe(self, item: DHTItem, now: float,
               restrict_to: Optional[List[DHTItem]] = None) -> None:
        side, row = item.value
        other_alias = self.right_alias if side == self.left_alias else self.left_alias
        if restrict_to is not None:
            candidates = restrict_to
        else:
            candidates = [_view(stored) for stored in self.storage.retrieve(
                item.namespace, item.resource_id, now)]
        matches: List[Pair] = []
        for candidate in candidates:
            candidate_side, candidate_row = candidate.value
            if candidate_side != other_alias:
                continue
            if candidate.instance_id == item.instance_id:
                continue
            if restrict_to is not None and candidate.resource_id != item.resource_id:
                continue
            if side == self.left_alias:
                matches.append((row, candidate_row))
            else:
                matches.append((candidate_row, row))
        if matches:
            self.messages.append(matches)
