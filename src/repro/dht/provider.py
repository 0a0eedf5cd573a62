"""Provider: the application-facing DHT interface (paper Table 3).

The Provider ties the routing layer and storage manager together and exposes
the calls PIER's query processor is written against:

==================================================  =====================================
``get(namespace, resourceID) → item``               key-based read (may return many)
``put(namespace, resourceID, instanceID, ...)``     soft-state insert with a lifetime
``renew(namespace, resourceID, instanceID, ...)``   refresh a stored item's lifetime
``multicast(namespace, resourceID, item)``          deliver to all nodes of a namespace
``lscan(namespace) → iterator``                     scan items stored *locally*
``newData(namespace) → items of one stored chunk``  callback on local arrival of new data
==================================================  =====================================

Every ``put``/``get`` follows the paper's two-step pattern: an overlay
``lookup`` resolves the responsible node, then the item or request is sent to
it *directly* (single IP hop), because "the bandwidth savings of not having a
large message hop along the overlay network" outweigh the small chance of the
mapping changing in between.  A renewal round skips the first step: it goes
straight to the node that last took each item (see below).

Batch interface
---------------
There is one write path and one read path, and the scalar calls of Table 3
are their front-ends for one item.

Every put travels in one wire format: a ``prov.put_chunk`` message of
parallel ``resource_ids`` / ``values`` / ``instance_ids`` / ``keys`` arrays
for one namespace, lifetime and publisher.  The front-ends differ only in
what the caller holds.  ``put`` publishes one item — a lookup and a chunk of
its own, the paper's message pattern, used by catalog and statistics
publishing.  ``put_batch`` takes per-entry instance ids and sizes
(aggregation partials, items a renewal found missing); ``put_chunk``
takes the arrays of a rehash wave as they are, one size for all, with an
optional computation-node ``target``.  All of them resolve their keys through
one :meth:`repro.dht.api.RoutingLayer.lookup_batch` (overlay hops shared
between keys routed the same way) and send **one message per owner and
resolution wave** carrying every item that owner is responsible for.  The
arrival side is chunk-at-a-time too: the owner stores the chunk and makes
**one ``newData`` upcall per subscriber per stored chunk**, handing over the
newly live items in chunk order (every new triple is announced exactly once;
a chunk that only overwrites live triples makes no upcall).

A renewal is a ``prov.put_chunk`` of names without ``values``, 16 B per
item, sent by the renewal agent straight to the node its last routed put or
renewal of each item went to (or a fast load placed it at); ``renew_batch``,
or ``renew`` of one, routes it like a put.  The receiver extends what it both
holds live and still ``owns``, with no upcall, and names the rest in one
``prov.renew_missing`` reply (a bounced renewal names all of its items); the
renewal agent puts exactly those again through the routed put.

Every read is a ``get_batch``: one ``lookup_batch`` for its keys, one
``prov.get_batch`` request per owner the lookup names, one
``prov.get_batch_reply`` back and one pending table at the origin.  The reply
is shaped like the put: the requested ``resource_ids``, how many items each
found (``counts``), and the found items flattened into parallel
``instance_ids`` / ``values`` / ``publishers`` arrays (``namespace`` once,
``item_bytes`` one int when uniform) — no per-item object crosses the
network.  The origin rebuilds the :class:`DHTItem` views and makes **one
upcall per owner reply**, ``callback(results)`` with ``[(resource_id,
items), ...]`` in request order; locally owned ids and failed ids arrive the
same way, every requested id in exactly one upcall.  ``get`` is a
``get_batch`` of one id whose callback takes the items alone; it costs the
same messages and bytes as a request format of its own would (a routed hop, a
lookup reply and a request are charged per key, a reply by the items it
carries).  ``multicast_batch`` batches the flood side the same way.

Arrays off the network are checked before use: a ``prov.put_chunk`` or
``prov.renew_missing`` whose arrays disagree in length is dropped whole and
counted with the lost puts, a ``prov.get_batch_reply`` whose arrays disagree
(or that answers other ids than were asked) fails its request's ids — never
a partly stored chunk or an item under the wrong id.

Failure semantics
-----------------
The DHT gives soft-state guarantees only, but a *request* must never hang
forever: every get is tracked as a pending entry until its reply (or local
resolution) arrives.  Four mechanisms bound that wait, for ``get`` and
``get_batch`` alike:

* **transport bounces** — a request sent to a dead owner is reported back by
  the network one round trip later; the Provider retries it once through a
  fresh overlay lookup (the routing layer routes around detected failures)
  and, when retries are exhausted, completes the request with an *empty*
  item list so the caller degrades instead of blocking;
* **unresolved lookups** — a key whose routed lookup dead-ends (every next
  hop dead, hop limit) is reported back by the routing layer, and its get
  is completed empty at once, with or without a timeout;
* **per-request timeouts** — with ``request_timeout_s`` set (churn
  deployments), a timer armed at issue time catches what neither of those
  can see: a lookup that died with the relay holding it.  Giving up on such
  a lookup (timeout, cancellation, this node's death) also releases the
  routing layer's record of it;
* **query-scoped cancellation** — callers may tag requests with a ``scope``
  (the executor uses the query id) and sweep everything still pending with
  :meth:`Provider.cancel_pending` at query teardown.

A put is not tracked — renewal is its repair — but it is not lost silently:
items bounced off a dead owner, whose key the overlay could not route, or
named missing (or bounced as a renewal) to a node with no renewal agent are
counted per namespace (``put_bounces_by_namespace``), whichever front-end sent them.  That count
and the per-scope delivery accounting (issued / completed / failed /
cancelled) back the client's query completeness report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Any, Callable, Collection, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.dht.api import RoutingLayer
from repro.dht.multicast import MulticastHandler, MulticastService
from repro.dht.naming import hash_key
from repro.dht.softstate import RENEW_ITEM_BYTES, RenewalAgent
from repro.dht.storage import StorageManager, StoredItem
from repro.net.node import Node

#: Default soft-state lifetime (seconds) when the caller does not specify one.
DEFAULT_LIFETIME_S = 300.0
#: Default wire size of an item when the caller does not specify one.
DEFAULT_ITEM_BYTES = 100
#: How often each node sweeps expired soft state out of its storage manager.
DEFAULT_SWEEP_PERIOD_S = 5.0
#: Retries after a reroute before a get request completes empty.
REQUEST_RETRIES = 1

#: Callback type for ``get``: receives a list of :class:`DHTItem`.
GetCallback = Callable[[List["DHTItem"]], None]
#: Callback type for ``get_batch``: receives one owner's (or the local, or a
#: failed) share of the request as ``[(resource_id, items), ...]``.
BatchGetCallback = Callable[[List[Tuple[Any, List["DHTItem"]]]], None]
#: Callback type for ``newData``: receives the newly live stored records of
#: one chunk, in chunk order (see :meth:`Provider.on_new_data`).
NewDataCallback = Callable[[List[StoredItem]], None]

#: A ``put_batch`` entry: ``(resource_id, value)`` with optional trailing
#: ``instance_id`` and ``item_bytes`` elements.
PutEntry = Sequence


@dataclass(frozen=True)
class DHTItem:
    """Read-only view of a stored item returned by ``get``/``lscan``.

    Built by the node that reads it: no protocol ships one.
    """

    namespace: str
    resource_id: Any
    instance_id: int
    value: Any
    publisher: Optional[int] = None
    size_bytes: int = DEFAULT_ITEM_BYTES


@dataclass
class _PendingGet:
    """Origin-side bookkeeping for one in-flight get request.

    ``resource_ids`` keeps every id of the (destination-grouped) sub-request
    so a bounce or timeout can retry — or fail — all of them together, and
    while a request's routed lookup is out, one entry holds the ids it has
    not answered yet (a dict used as an ordered set) and, in ``routed``, the
    routing layer and request id of that lookup, so that giving up on the
    entry also releases the routing layer's bookkeeping.  ``attempts_left``
    bounds retry-after-reroute; ``timer`` is the optional per-request timeout.
    """

    callback: BatchGetCallback
    namespace: str
    resource_ids: Collection[Any]
    scope: Any = None
    attempts_left: int = 0
    request_bytes: int = 60
    timer: Any = None
    routed: Optional[Tuple[RoutingLayer, int]] = None


def _view(item: StoredItem) -> DHTItem:
    return DHTItem(item.namespace, item.resource_id, item.instance_id,
                   item.value, item.publisher, item.size_bytes)


def _new_scope_counters() -> Dict[str, int]:
    # issued == completed + failed + pending at any instant; a cancel sweep
    # releases the whole entry rather than keeping a tally for a dead query.
    return {"issued": 0, "completed": 0, "failed": 0}


class Provider:
    """Per-node Provider instance."""

    SERVICE_NAME = "dht.provider"
    PROTOCOL_PUT_CHUNK = "prov.put_chunk"
    PROTOCOL_RENEW_MISSING = "prov.renew_missing"
    PROTOCOL_GET_BATCH = "prov.get_batch"
    PROTOCOL_GET_BATCH_REPLY = "prov.get_batch_reply"

    def __init__(self, node: Node, routing: RoutingLayer,
                 sweep_period_s: float = DEFAULT_SWEEP_PERIOD_S,
                 request_timeout_s: Optional[float] = None):
        self.node = node
        self.routing = routing
        self.storage = StorageManager()
        #: Per-request timeout for ``get``/``get_batch`` (``None`` disables
        #: the timer lane; transport bounces still bound dead-owner waits).
        self.request_timeout_s = request_timeout_s
        self.multicast_service = MulticastService(node, routing)
        self._new_data_callbacks: Dict[str, List[NewDataCallback]] = {}
        self._pending_batch_gets: Dict[int, _PendingGet] = {}
        self._get_ids = itertools.count(1)
        self._instance_ids = itertools.count(node.address * 1_000_003 + 1)
        #: Per-scope (query) get accounting: issued/completed/failed/cancelled.
        self._scope_counters: Dict[Any, Dict[str, int]] = {}
        #: Put fragments bounced off dead destinations, per namespace.
        self.put_bounces_by_namespace: Dict[str, int] = {}
        #: Puts again what a renewal's owner no longer holds (``None``: lost).
        self.renewal_agent: Optional[RenewalAgent] = None
        node.services[self.SERVICE_NAME] = self

        node.register_handler(self.PROTOCOL_PUT_CHUNK, self._on_put_chunk)
        node.register_handler(self.PROTOCOL_RENEW_MISSING, self._on_renew_missing)
        node.register_handler(self.PROTOCOL_GET_BATCH, self._on_get_batch)
        node.register_handler(self.PROTOCOL_GET_BATCH_REPLY,
                              self._on_get_batch_reply)
        node.register_bounce_handler(self.PROTOCOL_GET_BATCH,
                                     self._on_get_batch_bounce)
        node.register_bounce_handler(self.PROTOCOL_PUT_CHUNK,
                                     self._on_put_chunk_bounce)

        # Item migration hooks used by the routing layer on join/leave.
        routing.extract_items = self.storage.extract
        routing.install_items = self.storage.store_batch

        #: Handle of the periodic expiry sweep, cancelled by :meth:`close`.
        self._sweep_timer = None
        if sweep_period_s > 0:
            self._sweep_timer = node.schedule_periodic(sweep_period_s,
                                                       self._sweep)

    # --------------------------------------------------------------- helpers

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.node.now

    def next_instance_id(self) -> int:
        """A fresh instanceID unique to this node."""
        return next(self._instance_ids)

    def _sweep(self) -> None:
        self.storage.expire_items(self.now)

    # ------------------------------------------------------------------- put

    def put(self, namespace: str, resource_id: Any, instance_id: Optional[int],
            value: Any, lifetime: float = DEFAULT_LIFETIME_S,
            item_bytes: int = DEFAULT_ITEM_BYTES) -> int:
        """Publish an item into the DHT (paper Table 3 ``put``).

        Returns the instanceID used (freshly generated when ``None`` is
        passed, matching the paper's "randomly assigned by the user
        application").  A put of one item: the key is resolved by a lookup
        of its own — the paper's message pattern — and the item then travels
        as a ``prov.put_chunk`` of one; a key the overlay cannot route is
        counted in ``put_bounces_by_namespace`` like any other lost put.
        """
        if instance_id is None:
            instance_id = self.next_instance_id()
        self._put_arrays(namespace, [resource_id], [value], [instance_id],
                         lifetime, item_bytes)
        return instance_id

    def renew(self, namespace: str, resource_id: Any, instance_id: int,
              lifetime: float = DEFAULT_LIFETIME_S) -> bool:
        """Refresh an item's lifetime (paper Table 3 ``renew``): a
        :meth:`renew_batch` of one; True, as the DHT guarantees no more."""
        self.renew_batch(namespace, [resource_id], [instance_id], lifetime)
        return True

    def renew_batch(self, namespace: str, resource_ids: Sequence[Any],
                    instance_ids: Sequence[int], lifetime: float = DEFAULT_LIFETIME_S) -> None:
        """Refresh stored items' lifetimes by name: routed like
        :meth:`put_batch`, a chunk of ids without values (16 B per item)."""
        self._put_arrays(namespace, resource_ids, None, instance_ids, lifetime, RENEW_ITEM_BYTES)

    def put_batch(self, namespace: str, entries: Sequence[PutEntry],
                  lifetime: float = DEFAULT_LIFETIME_S,
                  item_bytes: int = DEFAULT_ITEM_BYTES) -> List[int]:
        """Publish many items with one routed resolution and one message per owner.

        ``entries`` is a sequence of ``(resource_id, value)`` tuples with
        optional trailing ``instance_id`` and ``item_bytes`` elements — the
        shape of a renewal round or a set of aggregation partials.  Returns
        the instanceIDs used, aligned with ``entries``.  Items whose keys
        share an owner travel in a single ``prov.put_chunk`` message whose
        payload is the sum of the item sizes; the owner announces its new
        items in one ``newData`` upcall per chunk.
        """
        resource_ids = [entry[0] for entry in entries]
        values = [entry[1] for entry in entries]
        instance_ids = [
            entry[2] if len(entry) > 2 and entry[2] is not None
            else self.next_instance_id()
            for entry in entries
        ]
        sizes: Union[int, List[int]] = [
            entry[3] if len(entry) > 3 else item_bytes for entry in entries
        ]
        if len(set(sizes)) == 1:
            sizes = sizes[0]  # uniform: one int on the wire, as in put_chunk
        self._put_arrays(namespace, resource_ids, values, instance_ids,
                         lifetime, sizes)
        return instance_ids

    def put_chunk(self, namespace: str, resource_ids: Sequence[Any],
                  values: Sequence[Any],
                  lifetime: float = DEFAULT_LIFETIME_S,
                  item_bytes: int = DEFAULT_ITEM_BYTES,
                  target: Optional[int] = None) -> List[int]:
        """Columnar companion of :meth:`put_batch`: one namespace, one
        lifetime, one per-item size — the common shape of a rehash wave.

        Takes the ``resource_ids``/``values`` arrays as they are (no
        per-item entry tuples) and assigns every item a fresh instanceID.
        ``target`` confines all items to a designated computation node (keys
        are still resolved through the overlay so latency accounting matches
        the owner-routed path).
        """
        instance_ids = [self.next_instance_id() for _ in resource_ids]
        self._put_arrays(namespace, resource_ids, values, instance_ids,
                         lifetime, item_bytes, target)
        return instance_ids

    def _put_arrays(self, namespace: str, resource_ids: Sequence[Any],
                    values: Optional[Sequence[Any]], instance_ids: Sequence[int],
                    lifetime: float, item_bytes: Union[int, List[int]],
                    target: Optional[int] = None) -> None:
        """Resolve a batch's keys at once and ship one chunk per owner.

        Keys are grouped in first-occurrence order; the items of every key
        an owner is responsible for travel as slices of the parallel arrays
        in one ``prov.put_chunk`` message (``item_bytes`` is one int for a
        uniform batch, else a list sliced alongside).  Keys the overlay
        cannot route lose their fragments (soft state; renewal repairs
        them), but the loss is counted, or a query's completeness report
        would read ``complete`` while rehash fragments silently vanished.
        """
        keys = [hash_key(namespace, rid) for rid in resource_ids]
        indices_by_key: Dict[int, List[int]] = {}
        for i, key in enumerate(keys):
            indices_by_key.setdefault(key, []).append(i)

        def _deliver(owner: int, resolved: List[int]) -> None:
            indices = [i for key in resolved for i in indices_by_key[key]]
            destination = owner if target is None else target
            chunk_ids = [resource_ids[i] for i in indices]
            chunk_instances = [instance_ids[i] for i in indices]
            if self.renewal_agent is not None:
                self.renewal_agent.record_owner(destination, namespace, chunk_ids, chunk_instances)
            self._send_put_chunk(
                destination, namespace, chunk_ids,
                None if values is None else [values[i] for i in indices],
                chunk_instances, [keys[i] for i in indices],
                lifetime,
                [item_bytes[i] for i in indices]
                if isinstance(item_bytes, list) else item_bytes,
            )

        self.routing.lookup_batch(
            list(indices_by_key), _deliver,
            on_unresolved=lambda lost_keys: self._record_put_bounce(
                namespace,
                sum(len(indices_by_key[key]) for key in lost_keys)),
        )

    def _send_put_chunk(self, destination: int, namespace: str,
                        resource_ids: List[Any], values: Optional[List[Any]],
                        instance_ids: List[int], keys: List[int],
                        lifetime: float,
                        item_bytes: Union[int, List[int]]) -> None:
        """Store locally or ship one owner's share of a put as parallel arrays."""
        payload = {
            "namespace": namespace,
            "resource_ids": resource_ids,
            "values": values,
            "instance_ids": instance_ids,
            "keys": keys,
            "lifetime": lifetime,
            "publisher": self.node.address,
            "item_bytes": item_bytes,
        }
        if values is None:  # a renewal names its items and nothing else
            del payload["values"], payload["item_bytes"]
        if destination == self.node.address:
            self._store_chunk(payload)
            return
        self.node.send(
            destination, self.PROTOCOL_PUT_CHUNK, payload=payload,
            payload_bytes=(sum(item_bytes) if isinstance(item_bytes, list)
                           else item_bytes * len(keys)),
        )

    def _store_chunk(self, payload: dict) -> None:
        """Store one arriving chunk, then announce its new items in one upcall.

        A chunk whose arrays disagree in length is lost whole, like a bounced
        one: zipping it would store rows under the wrong id or drop the tail.
        """
        now = self.now
        expires_at = now + payload["lifetime"]
        namespace, publisher = payload["namespace"], payload["publisher"]
        resource_ids, instance_ids = payload["resource_ids"], payload["instance_ids"]
        values, sizes = payload.get("values"), payload.get("item_bytes")
        count = len(resource_ids)
        if (not len(instance_ids) == len(payload["keys"]) == count
                or (values is not None and len(values) != count)
                or (isinstance(sizes, list) and len(sizes) != count)):
            self._record_put_bounce(namespace, count)
            return
        if values is None:  # a renewal: extend what is owned and live, name the rest
            owned = [i for i, key in enumerate(payload["keys"]) if self.routing.owns(key)]
            lapsed = self.storage.renew_batch(namespace, [resource_ids[i] for i in owned],
                                              [instance_ids[i] for i in owned], expires_at, now)
            renewed = set(owned).difference(owned[j] for j in lapsed)
            missing = [i for i in range(count) if i not in renewed]
            if missing:
                self._return_missing(publisher, {
                    "namespace": namespace, "resource_ids": [resource_ids[i] for i in missing],
                    "instance_ids": [instance_ids[i] for i in missing]})
            return
        if not isinstance(sizes, list):
            sizes = itertools.repeat(sizes)
        items = [
            StoredItem(namespace, resource_id, instance_id, value, key,
                       expires_at, now, publisher, size_bytes)
            for resource_id, value, instance_id, key, size_bytes in zip(
                resource_ids, values, instance_ids, payload["keys"], sizes)
        ]
        # New = not live before this chunk (an overwrite announces nothing) and
        # first of its triple within it: store_batch's answer, once what is
        # due has expired.  Expiry runs only when someone listens.
        callbacks = self._new_data_callbacks.get(namespace)
        if callbacks:
            self.storage.expire_items(now)
        new_items = self.storage.store_batch(items)
        if callbacks and new_items:
            for callback in tuple(callbacks):  # a subscriber may unsubscribe
                callback(new_items)

    def _on_renew_missing(self, node: Node, message) -> None:
        self._return_missing(node.address, message.payload)

    def _return_missing(self, publisher: int, reply: dict) -> None:
        """Hand the items ``reply`` names to ``publisher``'s renewal agent to
        put again (lost puts without an agent, or when the arrays disagree)."""
        resource_ids, instance_ids = reply["resource_ids"], reply["instance_ids"]
        if publisher != self.node.address:
            self.node.send(publisher, self.PROTOCOL_RENEW_MISSING, reply,
                           RENEW_ITEM_BYTES * len(resource_ids))
        elif self.renewal_agent is None or len(resource_ids) != len(instance_ids):
            self._record_put_bounce(reply["namespace"], len(resource_ids))
        else:
            self.renewal_agent.restore(reply["namespace"], resource_ids, instance_ids)

    def _on_put_chunk(self, node: Node, message) -> None:
        self._store_chunk(message.payload)

    def _record_put_bounce(self, namespace: str, count: int) -> None:
        self.put_bounces_by_namespace[namespace] = (
            self.put_bounces_by_namespace.get(namespace, 0) + count
        )

    def _on_put_chunk_bounce(self, node: Node, message) -> None:
        """A put's destination was dead: its fragments are lost (soft state).

        Publishers do not retry — renewal is the repair mechanism — but the
        loss is counted per namespace so query completeness reports can
        attribute lost temporary fragments to their query.  A bounced
        renewal names its items missing: the renewal agent puts them again.
        """
        payload = message.payload
        if "values" not in payload:
            self._return_missing(self.node.address, payload)
            return
        self._record_put_bounce(payload["namespace"],
                                len(payload["resource_ids"]))

    # ------------------------------------------------------------------- get

    def get(self, namespace: str, resource_id: Any, callback: GetCallback,
            request_bytes: int = 60, scope: Any = None) -> None:
        """Fetch all items with the given namespace/resourceID (``get``).

        A :meth:`get_batch` of one whose answer is handed over as
        ``callback(items)``: tracked from issue time, retried after a bounce
        (or, with ``request_timeout_s`` set, a timeout) up to
        ``REQUEST_RETRIES`` times, and completed with an empty item list when
        the retries run out or the overlay cannot route the key at all —
        callers degrade, they never hang.  ``scope`` tags the request for
        :meth:`cancel_pending` and the per-scope delivery accounting (queries
        pass their query id).
        """
        self.get_batch(namespace, [resource_id],
                       lambda results: callback(results[0][1]),
                       request_bytes=request_bytes, scope=scope)

    def get_local(self, namespace: str, resource_id: Any) -> List[DHTItem]:
        """Items for ``(namespace, resourceID)`` stored on this node."""
        return [_view(item) for item in
                self.storage.retrieve(namespace, resource_id, self.now)]

    # ------------------------------------------------- pending-get lifecycle

    def _count(self, scope: Any, event: str, amount: int = 1) -> None:
        """Bump one per-scope accounting counter (no-op for unscoped calls)."""
        if scope is None:
            return
        counters = self._scope_counters.get(scope)
        if counters is None:
            counters = self._scope_counters[scope] = _new_scope_counters()
        counters[event] += amount

    def _arm_timeout(self, entry: _PendingGet, request_id: int) -> None:
        if self.request_timeout_s is None:
            return
        entry.timer = self.node.schedule(
            self.request_timeout_s, self._retry_or_fail, request_id)

    @staticmethod
    def _disarm(entry: _PendingGet) -> None:
        """Stop waiting on ``entry``: its timeout and its routed lookup.

        A lookup that died with a relay is never answered, so the routing
        layer's entry for it would otherwise outlive the request.
        """
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        if entry.routed is not None:
            routing, lookup_id = entry.routed
            routing.forget_lookup(lookup_id)
            entry.routed = None

    def _on_get_batch_bounce(self, node: Node, message) -> None:
        self._retry_or_fail(message.payload["request_id"])

    def _retry_or_fail(self, request_id: int) -> None:
        """A request timed out or bounced: reroute it or complete it empty.

        A no-op for a request that has been answered, failed or cancelled
        since the timer was armed or the message sent.
        """
        entry = self._pending_batch_gets.pop(request_id, None)
        if entry is None:
            return
        self._disarm(entry)
        if entry.attempts_left > 0:
            # Retry through a fresh overlay resolution: the routing layer has
            # marked the bounced hop dead, so the new lookup reroutes.
            self.get_batch(entry.namespace, list(entry.resource_ids),
                           entry.callback, request_bytes=entry.request_bytes,
                           scope=entry.scope,
                           _attempts_left=entry.attempts_left - 1)
            return
        self._fail(entry.callback, entry.scope, entry.resource_ids)

    def _fail(self, callback: BatchGetCallback, scope: Any,
              resource_ids: Collection[Any]) -> None:
        """Complete unreachable ids with empty results (degrade), in one upcall."""
        self._count(scope, "failed", len(resource_ids))
        callback([(resource_id, []) for resource_id in resource_ids])

    def cancel_pending(self, scope: Any) -> int:
        """Drop every pending get tagged with ``scope`` without calling back.

        Swept at query teardown so cancelled queries do not accumulate
        callbacks (or fire them into dead dataflows).  Also releases the
        scope's accounting entry; returns the number of requests dropped.
        """
        dropped = 0
        pending = self._pending_batch_gets
        stale = [request_id for request_id, entry in pending.items()
                 if entry.scope == scope]
        for request_id in stale:
            entry = pending.pop(request_id)
            self._disarm(entry)
            dropped += len(entry.resource_ids)
        self._scope_counters.pop(scope, None)
        return dropped

    def pending_get_count(self, scope: Any = None) -> int:
        """Number of in-flight get requests (optionally for one scope)."""
        total = 0
        for entry in self._pending_batch_gets.values():
            if scope is None or entry.scope == scope:
                total += len(entry.resource_ids)
        return total

    def scope_report(self, scope: Any) -> Dict[str, int]:
        """Accounting snapshot for one scope, including the pending count."""
        report = dict(self._scope_counters.get(scope) or _new_scope_counters())
        report["pending"] = self.pending_get_count(scope)
        return report

    # ------------------------------------------------------------- get_batch

    def get_batch(self, namespace: str, resource_ids: Sequence[Any],
                  callback: BatchGetCallback, request_bytes: int = 60,
                  scope: Any = None,
                  _attempts_left: Optional[int] = None) -> None:
        """Fetch the items of many resourceIDs with one request per owner.

        IDs owned by the same node share a single ``prov.get_batch`` request,
        a single reply and a single upcall: ``callback(results)`` takes that
        owner's ``[(resource_id, items), ...]`` in request order.  Locally
        owned IDs resolve synchronously, in one upcall of their own, and so
        does every group of ids that fails; each distinct resourceID appears
        in exactly one upcall.

        The request is tracked from issue time.  While the routed lookup is
        out, one pending entry holds every id it has not answered yet, so a
        lookup that dies with a relay (a hop killed after it took the routed
        batch but before it forwarded it — no bounce can report that) is
        retried by the timeout like any other request, and the routing
        layer's record of the dead lookup is released with it.  Each
        owner the lookup names turns its ids into a sub-request of their own:
        bounces and timeouts retry it (``REQUEST_RETRIES`` times) and then
        complete each of its ids with an empty item list, and ids whose
        routed lookups dead-end are failed as soon as the routing layer
        reports them unresolved.  ``scope`` tags the requests for
        :meth:`cancel_pending` and the delivery accounting.
        """
        outstanding = dict.fromkeys(resource_ids)
        if not outstanding:
            return
        attempts = (REQUEST_RETRIES if _attempts_left is None
                    else _attempts_left)
        if _attempts_left is None:
            self._count(scope, "issued", len(outstanding))
        rids_by_key: Dict[int, List[Any]] = {}
        for resource_id in outstanding:
            key = hash_key(namespace, resource_id)
            rids_by_key.setdefault(key, []).append(resource_id)
        lookup_id = next(self._get_ids)
        lookup = _PendingGet(
            callback=callback, namespace=namespace, resource_ids=outstanding,
            scope=scope, attempts_left=attempts, request_bytes=request_bytes,
        )
        self._pending_batch_gets[lookup_id] = lookup
        self._arm_timeout(lookup, lookup_id)

        def _answered(keys: List[int]) -> List[Any]:
            """Take the ids of ``keys`` out of the lookup-phase entry.

            Empty once that entry is gone: cancelled, or timed out and
            retried — a late answer must not issue the request twice.
            """
            if self._pending_batch_gets.get(lookup_id) is not lookup:
                return []
            rids = [rid for key in keys for rid in rids_by_key[key]
                    if rid in outstanding]  # a resent hop can answer twice
            for rid in rids:
                del outstanding[rid]
            if not outstanding:
                del self._pending_batch_gets[lookup_id]
                self._disarm(lookup)
            return rids

        def _ask(owner: int, keys: List[int]) -> None:
            rids = _answered(keys)
            if not rids:
                return
            if owner == self.node.address:
                self._count(scope, "completed", len(rids))
                callback([(rid, self.get_local(namespace, rid)) for rid in rids])
                return
            request_id = next(self._get_ids)
            entry = _PendingGet(
                callback=callback, namespace=namespace,
                resource_ids=tuple(rids), scope=scope,
                attempts_left=attempts, request_bytes=request_bytes,
            )
            self._pending_batch_gets[request_id] = entry
            self._arm_timeout(entry, request_id)
            self.node.send(
                owner,
                self.PROTOCOL_GET_BATCH,
                payload={
                    "namespace": namespace,
                    "resource_ids": rids,
                    "origin": self.node.address,
                    "request_id": request_id,
                },
                payload_bytes=request_bytes + 8 * (len(rids) - 1),
            )

        def _unresolved(keys: List[int]) -> None:
            # The overlay could not route these keys at all (dead-end): fail
            # their ids immediately instead of leaving the caller waiting.
            rids = _answered(keys)
            if rids:
                self._fail(callback, scope, rids)

        routing = self.routing
        routed = routing.lookup_batch(list(rids_by_key), _ask,
                                      on_unresolved=_unresolved)
        if routed is not None:
            lookup.routed = (routing, routed)

    def _on_get_batch(self, node: Node, message) -> None:
        """Answer one owner's share of a get with the found items as arrays."""
        payload = message.payload
        namespace = payload["namespace"]
        resource_ids = payload["resource_ids"]
        now = self.now
        buckets = [self.storage.retrieve(namespace, resource_id, now)
                   for resource_id in resource_ids]
        found = [item for bucket in buckets for item in bucket]
        sizes = [item.size_bytes for item in found]
        node.send(
            payload["origin"],
            self.PROTOCOL_GET_BATCH_REPLY,
            payload={
                "request_id": payload["request_id"],
                "namespace": namespace,
                "resource_ids": resource_ids,
                "counts": [len(bucket) for bucket in buckets],
                "instance_ids": [item.instance_id for item in found],
                "values": [item.value for item in found],
                "publishers": [item.publisher for item in found],
                "item_bytes": sizes[0] if len(set(sizes)) == 1 else sizes,
            },
            payload_bytes=sum(sizes) or 40,
        )

    def _on_get_batch_reply(self, node: Node, message) -> None:
        """Rebuild the item views of one reply and hand them over in one upcall.

        A reply that answers something else than the request asked, or whose
        arrays disagree, fails the request's ids: slicing it by ``counts``
        would file items under the wrong id.
        """
        payload = message.payload
        entry = self._pending_batch_gets.pop(payload["request_id"], None)
        if entry is None:
            return
        self._disarm(entry)
        namespace, resource_ids = entry.namespace, payload["resource_ids"]
        counts, values = payload["counts"], payload["values"]
        instance_ids, publishers = payload["instance_ids"], payload["publishers"]
        sizes = payload["item_bytes"]
        if ((payload["namespace"], tuple(resource_ids))
                != (namespace, entry.resource_ids)
                or len(counts) != len(resource_ids)
                or min(counts, default=0) < 0
                or not (sum(counts) == len(values) == len(instance_ids)
                        == len(publishers))
                or (isinstance(sizes, list) and len(sizes) != len(values))):
            self._fail(entry.callback, entry.scope, entry.resource_ids)
            return
        if not isinstance(sizes, list):
            sizes = itertools.repeat(sizes)
        found = zip(instance_ids, values, publishers, sizes)
        self._count(entry.scope, "completed", len(resource_ids))
        entry.callback([
            (resource_id, [
                DHTItem(namespace, resource_id, instance_id, value, publisher, size)
                for instance_id, value, publisher, size
                in itertools.islice(found, count)])
            for resource_id, count in zip(resource_ids, counts)
        ])

    # ------------------------------------------------------------- local ops

    def lscan(self, namespace: str) -> Iterator[DHTItem]:
        """Iterate over the items of ``namespace`` stored locally (``lscan``)."""
        for item in self.storage.scan(namespace, self.now):
            yield _view(item)

    def on_new_data(self, namespace: str, callback: NewDataCallback) -> None:
        """Register a ``newData`` callback for a namespace (paper Table 3).

        ``callback(items)`` fires once per stored chunk — whichever front-end
        published it, local or remote — after the whole chunk is in storage,
        with its newly live items in chunk order: the stored records
        themselves, in a list all subscribers share (read, do not mutate).
        A triple that was already live is a renewal and is not announced (a
        renewal-only chunk makes no upcall); a triple repeated inside one
        chunk is new once.  The subscriber list is snapshotted per chunk: a
        callback unsubscribed by an earlier one in the same round still gets
        that chunk, one subscribed during the round waits for the next.
        """
        self._new_data_callbacks.setdefault(namespace, []).append(callback)

    def off_new_data(self, namespace: str, callback: NewDataCallback) -> bool:
        """Unregister a previously registered ``newData`` callback.

        Queries are soft state: when one finishes or is cancelled, its probes
        must come off so the namespace stops invoking dead dataflows (and so
        long simulations do not accumulate callbacks).  Returns whether the
        callback was found.
        """
        callbacks = self._new_data_callbacks.get(namespace)
        if not callbacks or callback not in callbacks:
            return False
        callbacks.remove(callback)
        if not callbacks:
            del self._new_data_callbacks[namespace]
        return True

    def new_data_callback_count(self, namespace: str) -> int:
        """Number of live ``newData`` callbacks for ``namespace`` (tests/ops)."""
        return len(self._new_data_callbacks.get(namespace, ()))

    def purge_namespace(self, namespace: str) -> int:
        """Drop every locally stored item of ``namespace``; returns the count.

        Used by query teardown to release temporary rehash/filter/partial
        state immediately instead of waiting for soft-state expiry.  The
        namespace's put-bounce counter is released with it.
        """
        self.put_bounces_by_namespace.pop(namespace, None)
        return self.storage.purge_namespace(namespace)

    # -------------------------------------------------------------- multicast

    def multicast(self, namespace: str, resource_id: Any, item: Any,
                  payload_bytes: int = 200) -> int:
        """Deliver ``item`` to every node serving ``namespace`` (``multicast``)."""
        return self.multicast_service.multicast(
            namespace, resource_id, item, payload_bytes=payload_bytes
        )

    def multicast_batch(self, entries: Sequence[Sequence],
                        payload_bytes: int = 200) -> int:
        """Deliver several (namespace, resourceID, item) entries in one flood.

        Each entry may carry an optional fourth element with its own wire
        size; ``payload_bytes`` is the per-entry default.  The single flood
        is charged the sum of the entry sizes.
        """
        return self.multicast_service.multicast_batch(
            [(entry[0], entry[1], entry[2]) for entry in entries],
            payload_bytes=sum(entry[3] if len(entry) > 3 else payload_bytes
                              for entry in entries),
        )

    def on_multicast(self, namespace: str, handler: MulticastHandler) -> None:
        """Register a handler invoked when a multicast for ``namespace`` arrives."""
        self.multicast_service.subscribe(namespace, handler)

    def off_multicast(self, namespace: str, handler: MulticastHandler) -> bool:
        """Unregister a handler added by :meth:`on_multicast`.

        Returns whether the handler was still registered.  Every
        ``on_multicast`` needs a matching ``off_multicast`` on the query
        teardown path, or the group subscription (and everything the
        handler closes over) outlives the query.
        """
        return self.multicast_service.unsubscribe(namespace, handler)

    # ----------------------------------------------------------------- admin

    def close(self) -> None:
        """Release node-level resources on shutdown/departure.

        Cancels the periodic storage sweep so a drained node (graceful
        leave, cluster shutdown) does not keep a live timer — on the real
        transport that timer would hold the event loop open.
        """
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None

    def rebind_routing(self, routing: RoutingLayer) -> None:
        """Point this Provider at a rebuilt routing layer (live membership).

        When a real node folds a join/leave into its overlay it rebuilds
        the deterministic routing tables over the new address list and
        rebinds the fresh layer onto the same node; this swaps the
        Provider's (and its multicast service's) routing reference and
        re-wires the item-migration hooks onto the new layer.  Pending
        gets keep their bookkeeping — their replies, bounces and timeout
        timers all resolve through the node, not the routing layer (a batch
        lookup still routing on the old layer is retried by its timeout).
        """
        self.routing = routing
        self.multicast_service.routing = routing
        routing.extract_items = self.storage.extract
        routing.install_items = self.storage.store_batch

    def make_renewal_agent(self, refresh_period: float) -> RenewalAgent:
        """Create (but do not start) this node's renewal agent."""
        return RenewalAgent(self, refresh_period)

    def handle_node_failure(self) -> int:
        """Model this node's process death (called when the node fails).

        All locally stored soft state is dropped and every in-flight get this
        node originated is forgotten (their timers cancelled) — a failed
        process has no callbacks to deliver to.  Returns the number of stored
        items dropped.
        """
        for entry in self._pending_batch_gets.values():
            self._disarm(entry)
        self._pending_batch_gets.clear()
        self._scope_counters.clear()
        self.put_bounces_by_namespace.clear()
        return self.storage.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Provider(node={self.node.address}, items={len(self.storage)})"
