"""Soft-state renewal (paper Sections 3.2.3 and 5.6).

PIER achieves relaxed-consistency reliability with the classic Internet
soft-state pattern: every item put into the DHT carries a *lifetime*; if the
publisher does not ``renew`` it before the lifetime elapses, the responsible
node silently drops it.  When a responsible node fails, the items it held are
lost until their publishers renew them — which is exactly the dynamic the
recall experiment (Figure 6) measures for different refresh periods.

:class:`RenewalAgent` is the publisher-side half: it remembers every item the
local node has published, ``renew``s each by name every ``refresh_period``
seconds and ``put``s again only what an owner no longer holds.  The
responsible-node half (renewal and expiry) lives in
:class:`repro.dht.storage.StorageManager` and the Provider's periodic sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dht.provider import Provider

RecordKey = Tuple[str, Any, int]


@dataclass
class PublishedRecord:
    """Publisher-side bookkeeping for one soft-state item."""

    namespace: str
    resource_id: Any
    instance_id: int
    value: Any
    lifetime: float
    size_bytes: int


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
              value: Any, lifetime: float, size_bytes: int) -> None:
        """Start renewing an item this node just published."""
        self.records[(namespace, resource_id, instance_id)] = PublishedRecord(
            namespace, resource_id, instance_id, value, lifetime, size_bytes)

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
        :meth:`repro.dht.provider.Provider.renew_batch` per (namespace,
        lifetime): a storm costs a message per owner and 16 B per item."""
        for (namespace, lifetime), records in _groups(self.records.values()):
            self.provider.renew_batch(
                namespace, [record.resource_id for record in records],
                [record.instance_id for record in records], lifetime)
        return len(self.records)

    def restore(self, namespace: str, resource_ids: Iterable[Any],
                instance_ids: Iterable[int]) -> None:
        """Put again, value and all, the named items an owner does not hold;
        one no longer tracked (a dead publisher's statistics) stays gone."""
        tracked = (self.records.get((namespace, resource_id, instance_id))
                   for resource_id, instance_id in zip(resource_ids, instance_ids))
        for (_namespace, lifetime), records in _groups(filter(None, tracked)):
            self.provider.put_batch(namespace, [
                (record.resource_id, record.value, record.instance_id,
                 record.size_bytes) for record in records], lifetime=lifetime)


def _groups(records: Iterable[PublishedRecord]):
    groups: Dict[Tuple[str, float], List[PublishedRecord]] = {}
    for record in records:
        groups.setdefault((record.namespace, record.lifetime), []).append(record)
    return groups.items()
