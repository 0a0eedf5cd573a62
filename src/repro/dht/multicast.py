"""Content-based multicast over the overlay (paper Section 3.2.3, ref [18]).

PIER distributes query instructions to every node serving a namespace with a
``multicast`` primitive.  The paper's companion tech report compares several
implementation options; what matters to the evaluation is only that the
multicast reaches every node in a few seconds (about 3 s at 1024 nodes with
100 ms hops) and that its cost is independent of the query itself.

We implement the classic overlay flood: the originator forwards the payload
to all of its overlay neighbours; every node, on first receipt of a given
multicast id, forwards it to its own neighbours (excluding the sender).
Duplicate receipts are suppressed.  Over CAN's neighbour graph this reaches
all nodes within the overlay diameter (``O(n^{1/d})`` hops); over Chord's
finger graph the depth is ``O(log n)``.

Forward first, deliver second, at the origin and at every relay: the local
handlers run on the next event at the same instant.  A query's handler is a
node's whole scan and rehash, and a TCP send is only written once the
running handler returns, so delivering first would hold each flood hop
behind a node's local work.  Under the simulator handlers take no virtual
time: the order costs one zero-delay event per node and moves no arrival.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.dht.api import RoutingLayer
from repro.net.node import Node

#: Handler signature: (namespace, resource_id, item, origin_address).
MulticastHandler = Callable[[str, Any, Any, int], None]

_multicast_sequence = itertools.count(1)


class MulticastService:
    """Per-node multicast service using neighbour flooding with dedup."""

    PROTOCOL = "mc.flood"

    def __init__(self, node: Node, routing: RoutingLayer):
        self.node = node
        self.routing = routing
        self._seen: set[Tuple[int, int]] = set()
        self._handlers: Dict[str, List[MulticastHandler]] = {}
        self._wildcard_handlers: List[MulticastHandler] = []
        #: Envelope ids this node already re-flooded after a bounce (one
        #: failure-repair wave per envelope per node keeps floods bounded).
        self._reflooded: set[Tuple[int, int]] = set()
        #: Flood messages bounced off dead neighbours (ops/completeness).
        self.flood_bounces = 0
        node.register_handler(self.PROTOCOL, self._on_flood)
        node.register_bounce_handler(self.PROTOCOL, self._on_flood_bounce)
        node.services["dht.multicast"] = self

    # ----------------------------------------------------------- subscription

    def subscribe(self, namespace: str, handler: MulticastHandler) -> None:
        """Deliver multicasts for ``namespace`` to ``handler`` on this node."""
        self._handlers.setdefault(namespace, []).append(handler)

    def subscribe_all(self, handler: MulticastHandler) -> None:
        """Deliver every multicast (any namespace) to ``handler``."""
        self._wildcard_handlers.append(handler)

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
        """Originate one flood carrying several (namespace, resourceID, item) entries.

        The whole batch shares a single envelope — and therefore a single
        flood wave over the overlay — instead of one flood per entry;
        ``payload_bytes`` is the combined wire size of all entries.  Handlers
        still fire once per entry on every receiving node (here on the next
        event), in entry order.
        """
        if not entries:
            raise ValueError("multicast_batch needs at least one entry")
        multicast_id = (self.node.address, next(_multicast_sequence))
        envelope = {
            "id": multicast_id,
            "entries": [
                {"namespace": namespace, "resource_id": resource_id, "item": item}
                for namespace, resource_id, item in entries
            ],
            "origin": self.node.address,
        }
        self._seen.add(multicast_id)
        self._flood(envelope, payload_bytes, exclude=None)
        self.node.schedule(0.0, self._deliver, envelope)
        return multicast_id[1]

    def _flood(self, envelope: dict, payload_bytes: int, exclude) -> None:
        for neighbor in self.routing.neighbors():
            if neighbor == exclude or neighbor == self.node.address:
                continue
            self.node.send(
                neighbor,
                self.PROTOCOL,
                payload={"envelope": envelope, "payload_bytes": payload_bytes},
                payload_bytes=payload_bytes,
            )

    def _on_flood(self, node: Node, message) -> None:
        envelope = message.payload["envelope"]
        payload_bytes = message.payload["payload_bytes"]
        multicast_id = envelope["id"]
        if multicast_id in self._seen:
            return
        self._seen.add(multicast_id)
        self._flood(envelope, payload_bytes, exclude=message.src)
        self.node.schedule(0.0, self._deliver, envelope)

    def _on_flood_bounce(self, node: Node, message) -> None:
        """A flood hop hit a dead neighbour: re-flood once around it.

        Query dissemination and teardown must not silently lose a whole
        subtree to one dead forwarder.  The repair wave re-sends the
        envelope to this node's *current* neighbour set (the routing layer
        drops detected-dead neighbours from it), excluding the bounced
        destination; receivers that already saw the envelope suppress it,
        so the extra cost is bounded to one wave per envelope per node.
        """
        self.flood_bounces += 1
        envelope = message.payload["envelope"]
        multicast_id = envelope["id"]
        if multicast_id in self._reflooded:
            return
        self._reflooded.add(multicast_id)
        self._flood(envelope, message.payload["payload_bytes"],
                    exclude=message.dst)

    # --------------------------------------------------------------- deliver

    def _deliver(self, envelope: dict) -> None:
        origin = envelope["origin"]
        for entry in envelope["entries"]:
            namespace = entry["namespace"]
            handlers = (
                list(self._handlers.get(namespace, ())) + list(self._wildcard_handlers)
            )
            for handler in handlers:
                handler(namespace, entry["resource_id"], entry["item"], origin)

    @classmethod
    def of(cls, node: Node) -> "MulticastService":
        """Fetch the multicast service installed on ``node``."""
        return node.services["dht.multicast"]
