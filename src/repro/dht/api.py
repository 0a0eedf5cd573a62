"""Routing layer API (paper Table 1).

The overlay routing layer maps a key to the IP address of the node currently
responsible for it, using only local neighbour state and multi-hop
forwarding.  Its public surface is deliberately tiny:

=====================  =========================================================
``lookup(key) → addr`` asynchronous; invokes a callback with the owner address
``join(landmark)``     attach to (or create) an overlay network
``leave()``            gracefully hand off responsibility and depart
``locationMapChange``  callback fired when the locally-owned key range changes
=====================  =========================================================

Both :class:`repro.dht.can.CanRouting` and :class:`repro.dht.chord.ChordRouting`
implement this interface, which is what lets PIER swap DHTs with "fairly
minimal integration effort" (paper Section 3.2).

There is one lookup lane.  :meth:`RoutingLayer.lookup_batch` routes any
number of keys, and ``lookup`` is its front-end for one key, so a DHT's whole
share of a lookup is three coordinate hooks: ``_coordinate`` maps a key into
the DHT's own space (a CAN point, a Chord ring key), ``_owns_coordinate`` and
``_next_hop`` answer from there.  A key's coordinate is computed once, at the
origin, and travels with it: a routed batch is two parallel arrays, ``keys``
and ``coords``, which every hop splits by next hop in one sweep — no per-key
object in memory or on the wire.  Request bookkeeping, forwarding, replies,
re-routing around a bounced hop and the report of keys that cannot be routed
are written once, here — and so is the greedy walk that carries a joiner's
request to the owner of its coordinate, over the same hooks.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.net.node import Node

#: Callback type for lookups: receives the owner's node address.
LookupCallback = Callable[[int], None]
#: Callback type for batch lookups: receives (owner address, keys it owns).
#: Invoked once per distinct owner as resolutions arrive, so callers can
#: dispatch each destination's traffic without waiting for stragglers.
BatchLookupCallback = Callable[[int, List[int]], None]
#: Callback type for location-map changes (no arguments; consult the layer).
LocationMapCallback = Callable[[], None]


class RoutingTableField:
    """A routing-table attribute; assigning it drops the next-hop index.

    Each routing layer derives a next-hop index from its routing table and
    rebuilds it lazily on the next routed hop.  A table attribute declared
    with this descriptor is stored through ``freeze`` as an immutable
    snapshot (tuple, frozenset, read-only mapping), so the only way to
    change the table is to assign the attribute — and assignment is what
    invalidates the index.  No write site has to remember to.
    """

    def __init__(self, freeze: Optional[Callable[[Any], Any]] = None):
        self._freeze = freeze

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance: Any, owner: Optional[type] = None) -> Any:
        if instance is None:
            return self
        return instance.__dict__[self._name]

    def __set__(self, instance: Any, value: Any) -> None:
        if self._freeze is not None:
            value = self._freeze(value)
        instance.__dict__[self._name] = value
        instance._next_hops = None


class BatchLookupState:
    """Origin-side bookkeeping for one in-flight batched lookup."""

    __slots__ = ("callback", "remaining", "on_unresolved")

    def __init__(self, callback: BatchLookupCallback, remaining: int,
                 on_unresolved: Optional[Callable[[List[int]], None]] = None):
        self.callback = callback
        self.remaining = remaining
        self.on_unresolved = on_unresolved


class RoutingLayer(ABC):
    """Abstract overlay routing layer bound to one simulated node.

    The base class owns the generic half of **lookups** — the Table 1
    ``lookup``, request bookkeeping, reply handling and the forward step
    that applies the hop rules (:meth:`_target`) at every hop — and the
    **join route**.  Most routed messages carry one key; such a batch goes
    straight to its one outcome (an owned reply, an unresolved reply or one
    forward of the payload it came in), and only a larger one is
    re-partitioned by target.
    Concrete layers supply only the geometry through three hooks —
    :meth:`_coordinate`, :meth:`_owns_coordinate` and :meth:`_next_hop` —
    plus ``create_network``, ``_join_coordinate`` and
    :meth:`_handle_join_request`, and name the ``PROTOCOL_ROUTE*`` /
    ``PROTOCOL_BATCH_LOOKUP_REPLY`` protocols the inherited handlers are
    registered under.

    The hooks answer from a **next-hop index** (``_next_hops``) that each
    layer derives from its routing table on the first routed hop after the
    table changed; the table's attributes are :class:`RoutingTableField`
    descriptors, so any assignment to them drops the index.
    """

    #: Name used as a service key on the node and as a protocol prefix.
    SERVICE_NAME = "dht.routing"
    #: Routed protocol names; concrete layers override with their own.
    PROTOCOL_ROUTE = "dht.route"
    PROTOCOL_ROUTE_BATCH = "dht.route_batch"
    PROTOCOL_BATCH_LOOKUP_REPLY = "dht.batch_lookup_reply"
    #: Wire size (bytes) charged per batch-entry hop / reply / control hop.
    ROUTE_HOP_BYTES = 40
    #: Safety valve: routed messages are dropped after this many overlay hops
    #: (CAN's greedy geometric forwarding can, in rare corner configurations,
    #: bounce between zones that are equidistant from the target).
    MAX_ROUTE_HOPS = 128

    #: Next-hop index derived from the routing table; ``None`` = rebuild.
    _next_hops: Optional[Any] = None

    def __init__(self, node: Node):
        self.node = node
        self._location_map_listeners: List[LocationMapCallback] = []
        self._pending_batch_lookups: Dict[int, BatchLookupState] = {}
        self._lookup_ids = itertools.count(1)
        self.lookup_hops_observed: List[int] = []
        node.services[self.SERVICE_NAME] = self
        node.register_handler(self.PROTOCOL_ROUTE, self._on_route)
        node.register_handler(self.PROTOCOL_ROUTE_BATCH, self._on_route_batch)
        node.register_handler(self.PROTOCOL_BATCH_LOOKUP_REPLY,
                              self._on_batch_lookup_reply)
        node.register_bounce_handler(self.PROTOCOL_ROUTE, self._on_route_bounce)
        node.register_bounce_handler(self.PROTOCOL_ROUTE_BATCH,
                                     self._on_route_batch_bounce)

    # ------------------------------------------------------------- interface

    def lookup(self, key: int, callback: LookupCallback,
               payload_bytes: int = ROUTE_HOP_BYTES) -> None:
        """Resolve ``key`` to the responsible node's address, asynchronously.

        If the key maps to the local node the callback fires synchronously
        (paper footnote 3); otherwise the request is routed hop by hop and
        the owner replies directly to this node.  A :meth:`lookup_batch` of
        one: a key that cannot be routed gets no callback at all (soft-state
        semantics), never a wrong owner.
        """
        self.lookup_batch([key], lambda owner, _keys: callback(owner),
                          payload_bytes)

    # ---------------------------------------------------------- batch lookup

    def lookup_batch(self, keys: Iterable[int], callback: BatchLookupCallback,
                     payload_bytes: int = ROUTE_HOP_BYTES,
                     on_unresolved: Optional[Callable[[List[int]], None]] = None,
                     ) -> Optional[int]:
        """Resolve many keys at once, grouping resolutions by owner.

        ``callback(owner, keys)`` fires once per distinct owner with every
        key that owner is responsible for; locally-owned keys resolve
        synchronously.  Keys whose greedy paths leave through the same
        neighbour travel in one routed message; each hop re-partitions the
        batch (via :meth:`_next_hop`), so the batch fans out only
        where the routes actually diverge.  The owner of a subset replies
        once for all keys it owns — a ready-made (destination → keys)
        grouping for the caller.  Keys that become unroutable (dead
        neighbours, hop limit) are reported back as *unresolved* so the
        origin's bookkeeping is freed; their items are simply lost
        (soft-state semantics).  Callers that must not wait on lost keys
        (the Provider's gets and puts) pass ``on_unresolved`` to be told
        which keys were dropped.

        Returns the id of the routed request, ``None`` when every key was
        local.  A relay that dies holding the batch sends neither reply nor
        bounce, so a caller that gives up on the answer hands the id to
        :meth:`forget_lookup`.
        """
        local: List[int] = []
        routed: List[int] = []
        coords: List[Any] = []
        coordinate = self._coordinate
        owns = self._owns_coordinate
        for key in dict.fromkeys(keys):
            coord = coordinate(key)
            if owns(coord):
                local.append(key)
            else:
                routed.append(key)
                coords.append(coord)
        if local:
            callback(self.address, local)
        if not routed:
            return None
        request_id = next(self._lookup_ids)
        self._pending_batch_lookups[request_id] = BatchLookupState(
            callback, len(routed), on_unresolved=on_unresolved
        )
        self._forward_batch(routed, coords, self.address, request_id,
                            payload_bytes, hops=0)
        return request_id

    def forget_lookup(self, request_id: int) -> None:
        """Release the bookkeeping of a routed lookup nobody waits on any more.

        Answers that still arrive for it are dropped.
        """
        self._pending_batch_lookups.pop(request_id, None)

    # Geometry hooks implemented by each DHT.

    def _coordinate(self, key: int) -> Any:
        """Where ``key`` lies in this DHT's space; what the other hooks take."""
        raise NotImplementedError

    def _owns_coordinate(self, coord: Any) -> bool:
        """Whether this node owns the key at ``coord``."""
        raise NotImplementedError

    def _next_hop(self, coord: Any, exclude: Optional[int] = None) -> Optional[int]:
        """Best next hop towards ``coord`` (``None`` when unroutable)."""
        raise NotImplementedError

    # Generic machinery shared by all DHTs.

    def _target(self, coord: Any, exclude: Optional[int], expired: bool,
                reply_owned: bool) -> Optional[int]:
        """Where the key at ``coord`` goes from here: the hop rules.

        This node when it is answered as owned (``reply_owned``: a batch
        that arrived over the network); ``None`` when it is unresolved —
        past the hop limit, or with no next hop but this node; else its
        best next hop, from the layer's next-hop index.
        """
        me = self.node.address
        if reply_owned and self._owns_coordinate(coord):
            return me
        next_hop = None if expired else self._next_hop(coord, exclude)
        return None if next_hop == me else next_hop

    def _forward_batch(self, keys: List[int], coords: List[Any], origin: int,
                       request_id: int, entry_bytes: int, hops: int,
                       exclude: Optional[int] = None,
                       reply_owned: bool = False,
                       payload: Optional[dict] = None) -> None:
        """Route a batch one hop further, in one pass over its two arrays.

        Each key's :meth:`_target` decides it, and :meth:`_dispatch` sends
        the keys of one target.  A one-key batch — most routed messages —
        goes straight to its one outcome; forwarded, it travels in the
        ``payload`` it arrived in, if any.  A larger batch is grouped by
        target: the owned keys are answered first, each next hop's slices of
        ``keys`` and ``coords`` forwarded in the order the hops first occur,
        the unresolved keys answered last.
        """
        expired = hops >= self.MAX_ROUTE_HOPS
        if len(keys) == 1:
            self._dispatch(self._target(coords[0], exclude, expired, reply_owned),
                           keys, coords, origin, request_id, entry_bytes, hops,
                           payload)
            return
        groups: Dict[Optional[int], Tuple[List[int], List[Any]]] = {}
        target_of = self._target
        for key, coord in zip(keys, coords):
            target = target_of(coord, exclude, expired, reply_owned)
            group = groups.get(target)
            if group is None:
                groups[target] = ([key], [coord])
            else:
                group[0].append(key)
                group[1].append(coord)
        rank = {self.node.address: 0, None: 2}  # owned first, unresolved last
        for target in sorted(groups, key=lambda target: rank.get(target, 1)):
            self._dispatch(target, *groups[target], origin, request_id,
                           entry_bytes, hops)

    def _dispatch(self, target: Optional[int], keys: List[int],
                  coords: List[Any], origin: int, request_id: int,
                  entry_bytes: int, hops: int,
                  payload: Optional[dict] = None) -> None:
        """Answer ``keys`` to the origin (owned or unresolved) or forward them."""
        if target is None or target == self.node.address:
            self._send_batch_reply(origin, request_id, target, keys, hops)
            return
        if payload is None:
            payload = {"keys": keys, "coords": coords, "origin": origin,
                       "request_id": request_id}
        self.node.send(target, self.PROTOCOL_ROUTE_BATCH, payload,
                       entry_bytes * len(keys), hops + 1)

    def _send_batch_reply(self, origin: int, request_id: int,
                          owner: Optional[int], keys: List[int],
                          hops: int) -> None:
        count = len(keys)
        self.node.send(origin, self.PROTOCOL_BATCH_LOOKUP_REPLY,
                       {"request_id": request_id, "owner": owner, "keys": keys,
                        "hops": hops},
                       self.ROUTE_HOP_BYTES + (8 * (count - 1) if count > 1 else 0))

    def _on_route_batch(self, node: Node, message, bounced: bool = False) -> None:
        """Forward the batch ``message`` carries: arrived, or bounced back."""
        payload = message.payload
        keys, coords = payload["keys"], payload["coords"]
        count = len(keys)
        if count != len(coords):  # malformed: nothing can be routed
            self._send_batch_reply(payload["origin"], payload["request_id"],
                                   None, keys, message.hops)
            return
        # The bytes each key was charged, at least one.
        entry_bytes = message.payload_bytes // (count or 1)
        if entry_bytes < 1:
            entry_bytes = 1
        self._forward_batch(
            keys, coords, payload["origin"], payload["request_id"],
            entry_bytes, message.hops,
            message.dst if bounced else message.src, not bounced, payload)

    def _on_route_batch_bounce(self, node: Node, message) -> None:
        """A batched hop hit a dead node: mark it dead and re-route the batch."""
        self.mark_neighbor_dead(message.dst)
        self._on_route_batch(node, message, bounced=True)

    def _on_batch_lookup_reply(self, node: Node, message) -> None:
        payload = message.payload
        pending = self._pending_batch_lookups.get(payload["request_id"])
        if pending is None:
            return
        keys = payload["keys"]
        pending.remaining -= len(keys)
        if pending.remaining <= 0:
            del self._pending_batch_lookups[payload["request_id"]]
        owner = payload["owner"]
        if owner is None:
            # Unresolved keys: lost in routing (soft-state semantics) — the
            # bookkeeping is released, and callers that asked to be told
            # (failure-aware gets) learn which keys were dropped.
            if pending.on_unresolved is not None:
                pending.on_unresolved(keys)
            return
        self.lookup_hops_observed.extend([payload.get("hops", 0)] * len(keys))
        pending.callback(owner, keys)

    # ------------------------------------------------------------ join route
    # ``PROTOCOL_ROUTE`` carries only a joiner's request (``coord``,
    # ``origin``) from its landmark to the node that owns ``coord``.

    def join(self, landmark: Optional[int]) -> None:
        """Join the overlay via ``landmark`` (``None`` starts a new network).

        The landmark routes the request toward the coordinate the joiner
        picked (:meth:`_join_coordinate`); its owner answers the joiner.
        """
        if landmark is None:
            self.create_network()
            return
        self.node.send(
            landmark, self.PROTOCOL_ROUTE,
            payload={"coord": self._join_coordinate(), "origin": self.address},
            payload_bytes=self.ROUTE_HOP_BYTES)

    def _handle_join_request(self, payload: dict) -> None:
        """Give the joiner at ``payload["origin"]`` its share of the space."""
        raise NotImplementedError

    def _forward_join(self, message, exclude: int) -> None:
        """Greedy-forward a join request one hop closer to its coordinate.

        Past the hop limit (the routing-loop safety valve) or with no live
        next hop the request is lost: the joiner has to join again.
        """
        if message.hops >= self.MAX_ROUTE_HOPS:
            return
        next_hop = self._next_hop(message.payload["coord"], exclude)
        if next_hop is None or next_hop == self.address:
            return
        self.node.send(next_hop, self.PROTOCOL_ROUTE, payload=message.payload,
                       payload_bytes=message.payload_bytes,
                       hops=message.hops + 1)

    def _on_route(self, node: Node, message) -> None:
        if self._owns_coordinate(message.payload["coord"]):
            self._handle_join_request(message.payload)
        else:
            self._forward_join(message, exclude=message.src)

    def _on_route_bounce(self, node: Node, message) -> None:
        """A forwarded hop hit a dead neighbour: route around it immediately.

        This models per-contact failure detection (a reset / timed-out
        transport connection) as opposed to the slower periodic keep-alives;
        the neighbour is marked dead locally so subsequent traffic avoids it
        until it is reported alive again.
        """
        self.mark_neighbor_dead(message.dst)
        self._forward_join(message, exclude=message.dst)

    def mark_neighbor_dead(self, address: int) -> None:
        """Record a detected neighbour failure (no-op by default)."""

    def mark_neighbor_alive(self, address: int) -> None:
        """Clear a previously-detected neighbour failure (no-op by default)."""

    def rebind(self, node: Node) -> "RoutingLayer":
        """Move this routing layer (tables intact) onto another node.

        A real process keeps its layer of an overlay built on stand-in
        nodes (:func:`repro.stack.build_overlay`) and rebinds it onto its
        socket-backed node.  Every protocol handler (and bounce handler) the
        layer registered on the stand-in is re-registered on the new node,
        so the move is invisible to the layer itself.
        """
        old = self.node
        self.node = node
        node.services[self.SERVICE_NAME] = self
        if old is not None and old is not node:
            for protocol, handler in old._handlers.items():
                node.replace_handler(protocol, handler)
            for protocol, handler in old._bounce_handlers.items():
                node.register_bounce_handler(protocol, handler)
        return self

    def owns(self, key: int) -> bool:
        """Whether this node is currently responsible for ``key``."""
        return self._owns_coordinate(self._coordinate(key))

    @abstractmethod
    def neighbors(self) -> List[int]:
        """Addresses of the live overlay neighbours (the multicast flood's)."""

    def broadcast_scope(self) -> Any:
        """The scope a multicast covers at its origin (``None``: the flood)."""
        return None

    def broadcast_children(self, scope: Any
                           ) -> Optional[List[Tuple[int, Any]]]:
        """``(address, child scope)`` per child of a multicast here.  Scope
        ``None`` is the flood (every live neighbour); a tree layer answers
        ``None`` for a scope it cannot cover (:mod:`repro.dht.multicast`)."""
        return [(address, None) for address in self.neighbors()]

    @abstractmethod
    def leave(self) -> None:
        """Gracefully leave, handing owned keys to a neighbour."""

    # ------------------------------------------------------------- callbacks

    def add_location_map_listener(self, callback: LocationMapCallback) -> None:
        """Register a ``locationMapChange`` listener (paper Table 1)."""
        self._location_map_listeners.append(callback)

    def notify_location_map_change(self) -> None:
        """Fire all registered ``locationMapChange`` listeners."""
        for callback in list(self._location_map_listeners):
            callback()

    # ------------------------------------------------------------ utilities

    @property
    def address(self) -> int:
        """Address of the node this routing layer runs on."""
        return self.node.address
