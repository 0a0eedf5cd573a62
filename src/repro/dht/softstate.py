"""Soft-state renewal (paper Sections 3.2.3 and 5.6).

PIER achieves relaxed-consistency reliability with the classic Internet
soft-state pattern: every item put into the DHT carries a *lifetime*; if the
publisher does not ``renew`` it before the lifetime elapses, the responsible
node silently drops it.  When a responsible node fails, the items it held are
lost until their publishers renew them — which is exactly the dynamic the
recall experiment (Figure 6) measures for different refresh periods.

:class:`RenewalAgent` is the publisher-side half: it remembers every item the
local node has published and the node that last took it, ``renew``s each by
name at that owner every ``refresh_period`` seconds, with no overlay lookup
(an item whose owner is unknown is renewed through a routed one, which
records it), and ``put``s again through the routed put only what an owner no
longer holds or owns.  This is safe under churn because a key changes owner
only when a real cluster's membership changes (a failed node recovers under
the same identity, and nobody takes over its keys); after that, the old owner
names the moved keys missing and their routed restore records the new owner.  The
responsible-node half (renewal and expiry) lives in
:class:`repro.dht.storage.StorageManager` and the Provider's periodic sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.dht.naming import hash_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dht.provider import Provider

RecordKey = Tuple[str, Any, int]

#: Wire size of a renewed (or missing) item's name: resourceID + instanceID.
RENEW_ITEM_BYTES = 16


@dataclass
class PublishedRecord:
    """Publisher-side bookkeeping for one soft-state item."""

    namespace: str
    resource_id: Any
    instance_id: int
    value: Any
    lifetime: float
    size_bytes: int
    #: The node that last took the item (``None`` until a put resolves it).
    owner: Optional[int] = None


@dataclass
class RenewalAgent:
    """Periodically renews every item this node has put into the DHT.

    Parameters
    ----------
    provider:
        The local Provider used to issue the renewals; it hands this agent
        what the owners report missing.
    refresh_period:
        Seconds between successive renewals of each item.  The paper sweeps
        30 / 60 / 150 / 225 s in Figure 6.
    """

    provider: "Provider"
    refresh_period: float
    records: Dict[RecordKey, PublishedRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.refresh_period <= 0:
            raise ValueError("refresh period must be positive")
        self._timer = None
        self.provider.renewal_agent = self

    # ------------------------------------------------------------- tracking

    def track(self, namespace: str, resource_id: Any, instance_id: int,
              value: Any, lifetime: float, size_bytes: int,
              owner: Optional[int] = None) -> None:
        """Start renewing an item this node just published (at ``owner``,
        when the caller placed it there itself)."""
        self.records[(namespace, resource_id, instance_id)] = PublishedRecord(
            namespace, resource_id, instance_id, value, lifetime, size_bytes,
            owner)

    def record_owner(self, owner: int, namespace: str, resource_ids: Iterable[Any],
                     instance_ids: Iterable[int]) -> None:
        """A routed put or renewal sent these items to ``owner``."""
        for resource_id, instance_id in zip(resource_ids, instance_ids):
            record = self.records.get((namespace, resource_id, instance_id))
            if record is not None:
                record.owner = owner

    def untrack_namespace(self, namespace: str) -> int:
        """Stop renewing every tracked item of one namespace.

        Failure wiring uses this for statistics partials: a failed
        publisher's data died with it, so its ``__pier_stats__`` entry must
        age out rather than be resurrected by the resumed identity's renewal
        loop.  (Data-tuple records are deliberately kept — the paper's
        Figure 6 dynamic is that lost tuples reappear when their publishers
        next renew them.)  Returns the number of records dropped.
        """
        stale = [key for key, record in self.records.items()
                 if record.namespace == namespace]
        for key in stale:
            del self.records[key]
        return len(stale)

    def tracked_count(self, namespace: Optional[str] = None) -> int:
        """Number of items being kept alive (optionally for one namespace)."""
        if namespace is None:
            return len(self.records)
        return sum(1 for record in self.records.values() if record.namespace == namespace)

    # ----------------------------------------------------------------- drive

    def start(self) -> None:
        """Begin the periodic renewal process on the owning node."""
        if self._timer is not None:
            return
        self._timer = self.provider.node.schedule_periodic(
            self.refresh_period, self.renew_all
        )

    def stop(self) -> None:
        """Stop renewing (tracked records are kept for a later restart)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def renew_all(self) -> int:
        """Renew every tracked item once; returns the number renewed.  One
        value-less chunk per (namespace, lifetime, owner), straight to the
        owner: a storm costs a message per owner, 16 B per item and no lookup.
        Unknown owners: one routed :meth:`repro.dht.provider.Provider.renew_batch`."""
        provider = self.provider
        for (namespace, lifetime, owner), records in _groups(
                self.records.values(), attrgetter("namespace", "lifetime", "owner")):
            resource_ids = [record.resource_id for record in records]
            instance_ids = [record.instance_id for record in records]
            if owner is None:
                provider.renew_batch(namespace, resource_ids, instance_ids,
                                     lifetime)
            else:
                provider._send_put_chunk(
                    owner, namespace, resource_ids, None, instance_ids,
                    hash_keys(namespace, resource_ids), lifetime,
                    RENEW_ITEM_BYTES)
        return len(self.records)

    def restore(self, namespace: str, resource_ids: Iterable[Any],
                instance_ids: Iterable[int]) -> None:
        """Put again, value and all, through the routed put, the named items
        an owner does not hold or own or whose renewal bounced; one no longer
        tracked (a dead publisher's statistics) stays gone."""
        tracked = (self.records.get((namespace, resource_id, instance_id))
                   for resource_id, instance_id in zip(resource_ids, instance_ids))
        for (_namespace, lifetime), records in _groups(
                filter(None, tracked), attrgetter("namespace", "lifetime")):
            self.provider.put_batch(namespace, [
                (record.resource_id, record.value, record.instance_id,
                 record.size_bytes) for record in records], lifetime=lifetime)


def _groups(records: Iterable[PublishedRecord], group_of: attrgetter):
    groups: Dict[tuple, List[PublishedRecord]] = {}
    for record in records:
        groups.setdefault(group_of(record), []).append(record)
    return groups.items()
