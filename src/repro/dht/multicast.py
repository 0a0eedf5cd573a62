"""Content-based multicast over the overlay (paper Section 3.2.3, ref [18]).

PIER distributes query instructions to every node serving a namespace with a
``multicast`` primitive.  The paper's companion tech report compares several
implementation options; what matters to the evaluation is only that the
multicast reaches every node in a few seconds (about 3 s at 1024 nodes with
100 ms hops) and that its cost is independent of the query itself.

A node sends an envelope to its routing layer's children for the
envelope's scope (:meth:`RoutingLayer.broadcast_children`).  On Chord that
is the interval broadcast of El-Ansary et al. (IPTPS 2003): the scope is a
ring limit (16 B more per copy), each live finger before it gets the stretch
up to the next, ``n - 1`` messages in all — but a copy follows a greedy
finger path (9 hops against the flood's 6 at 1 024 nodes).  CAN's children
are its live neighbours with no scope: the classic flood, within the overlay
diameter (``O(n^{1/d})`` hops).  A scope-less copy is the flood, and the
**repair wave**: a node floods when its send bounces (the child died
undetected) or, on Chord, when its successor is detected dead (no tree path
reaches the nodes behind it).  A node floods and delivers an envelope at
most once each, and forgets its id :data:`DEDUP_HORIZON_S` after first
seeing it: copies leave a node only as it first receives, first floods or
bounces the envelope, so all arrive within a few overlay diameters of hops,
and the horizon allows ``MAX_ROUTE_HOPS`` hops of one keep-alive period (a
live peer answers within it).

Forward first, deliver second, at the origin and at every relay: the local
handlers run on the next event at the same instant.  A query's handler is a
node's whole scan and rehash, and a TCP send is only written once the
running handler returns, so delivering first would hold each hop behind a
node's local work.  Under the simulator handlers take no virtual time: the
order costs one zero-delay event per node and moves no arrival.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Sequence, Tuple

from repro.dht.api import RoutingLayer
from repro.dht.naming import KEY_BITS
from repro.net.failures import DEFAULT_HEARTBEAT_PERIOD_S
from repro.net.node import Node

#: Handler signature: (namespace, resource_id, item, origin_address).
MulticastHandler = Callable[[str, Any, Any, int], None]

#: Seconds a node remembers an envelope id (see the module docstring).
DEDUP_HORIZON_S = RoutingLayer.MAX_ROUTE_HOPS * DEFAULT_HEARTBEAT_PERIOD_S


class MulticastService:
    """Per-node multicast service: tree forwarding, flood repair, dedup."""

    PROTOCOL = "mc.flood"

    def __init__(self, node: Node, routing: RoutingLayer):
        self.node = node
        self.routing = routing
        #: Ids delivered here, ids flooded from here, (forget at, id) per seen.
        self._seen: set[Tuple[int, int]] = set()
        self._flooded: set[Tuple[int, int]] = set()
        self._expiry: Deque[Tuple[float, Tuple[int, int]]] = deque()
        self._handlers: Dict[str, List[MulticastHandler]] = {}
        #: Multicast messages bounced off dead neighbours (ops/completeness).
        self.flood_bounces = 0
        #: Numbers the envelopes originated here; the address makes ids unique.
        self._sequence = itertools.count(1)
        node.register_handler(self.PROTOCOL, self._on_flood)
        node.register_bounce_handler(self.PROTOCOL, self._on_flood_bounce)

    # ----------------------------------------------------------- subscription

    def subscribe(self, namespace: str, handler: MulticastHandler) -> None:
        """Deliver multicasts for ``namespace`` to ``handler`` on this node."""
        self._handlers.setdefault(namespace, []).append(handler)

    def unsubscribe(self, namespace: str, handler: MulticastHandler) -> bool:
        """Remove a handler previously registered with :meth:`subscribe`.

        Returns whether the handler was found.  Query teardown uses this to
        drop per-query subscriptions (e.g. Bloom summary distribution).
        """
        handlers = self._handlers.get(namespace)
        if not handlers or handler not in handlers:
            return False
        handlers.remove(handler)
        if not handlers:
            del self._handlers[namespace]
        return True

    def subscriber_count(self, namespace: str) -> int:
        """Number of handlers subscribed to ``namespace`` (tests/ops)."""
        return len(self._handlers.get(namespace, ()))

    # ----------------------------------------------------------------- send

    def multicast(self, namespace: str, resource_id: Any, item: Any,
                  payload_bytes: int = 200) -> int:
        """Originate a multicast; returns the multicast id."""
        return self.multicast_batch([(namespace, resource_id, item)],
                                    payload_bytes=payload_bytes)

    def multicast_batch(self, entries: Sequence[Tuple[str, Any, Any]],
                        payload_bytes: int = 200) -> int:
        """Originate one multicast carrying several (namespace, resourceID, item) entries.

        The whole batch shares a single envelope — and therefore a single
        wave over the overlay — instead of one wave per entry;
        ``payload_bytes`` is the combined wire size of all entries.  Handlers
        still fire once per entry on every receiving node (here on the next
        event), in entry order.
        """
        if not entries:
            raise ValueError("multicast_batch needs at least one entry")
        multicast_id = (self.node.address, next(self._sequence))
        envelope = {
            "id": multicast_id,
            "entries": [
                {"namespace": namespace, "resource_id": resource_id, "item": item}
                for namespace, resource_id, item in entries
            ],
            "origin": self.node.address,
        }
        self._first_sight(multicast_id)
        self._forward(envelope, payload_bytes, self.routing.broadcast_scope(),
                      exclude=None)
        self.node.schedule(0.0, self._deliver, envelope)
        return multicast_id[1]

    def _first_sight(self, multicast_id: Tuple[int, int]) -> bool:
        """Forget ids past the horizon; whether ``multicast_id`` is new."""
        now = self.node.now
        expiry = self._expiry
        while expiry and expiry[0][0] <= now:
            old = expiry.popleft()[1]
            self._seen.discard(old)
            self._flooded.discard(old)
        if multicast_id in self._seen:
            return False
        self._seen.add(multicast_id)
        expiry.append((now + DEDUP_HORIZON_S, multicast_id))
        return True

    def _forward(self, envelope: dict, payload_bytes: int, scope: Any,
                 exclude) -> None:
        """Send the envelope to this node's children for ``scope`` (``None``,
        the flood, once per envelope); a scope the tree cannot cover floods."""
        children = self.routing.broadcast_children(scope)
        if children is None:
            scope, children = None, self.routing.broadcast_children(None)
        if scope is None:
            if envelope["id"] in self._flooded:
                return
            self._flooded.add(envelope["id"])
        for child, child_scope in children:
            if child == exclude or child == self.node.address:
                continue
            payload = {"envelope": envelope, "payload_bytes": payload_bytes}
            if child_scope is not None:
                payload["scope"] = child_scope
            self.node.send(child, self.PROTOCOL, payload, payload_bytes
                           + (0 if child_scope is None else KEY_BITS // 8))

    def _on_flood(self, node: Node, message) -> None:
        """Forward a tree copy if new, a flood copy if not flooded yet."""
        payload = message.payload
        envelope = payload["envelope"]
        scope = payload.get("scope")
        fresh = self._first_sight(envelope["id"])
        if fresh or scope is None:
            self._forward(envelope, payload["payload_bytes"], scope,
                          exclude=message.src)
        if fresh:
            self.node.schedule(0.0, self._deliver, envelope)

    def _on_flood_bounce(self, node: Node, message) -> None:
        """A send hit a dead node: the repair wave (nothing reaches below it)."""
        self.flood_bounces += 1
        self._forward(message.payload["envelope"],
                      message.payload["payload_bytes"], None,
                      exclude=message.dst)

    # --------------------------------------------------------------- deliver

    def _deliver(self, envelope: dict) -> None:
        origin = envelope["origin"]
        for entry in envelope["entries"]:
            namespace = entry["namespace"]
            for handler in list(self._handlers.get(namespace, ())):
                handler(namespace, entry["resource_id"], entry["item"], origin)
