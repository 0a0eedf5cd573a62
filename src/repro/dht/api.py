"""Routing layer API (paper Table 1).

The overlay routing layer maps a key to the IP address of the node currently
responsible for it, using only local neighbour state and multi-hop
forwarding.  Its public surface is deliberately tiny:

=====================  =========================================================
``lookup(key) → addr`` asynchronous; invokes a callback with the owner address
``join`` / ``leave``   a deployment rebuilds the stabilised overlay over its new
                       address list (:func:`repro.stack.build_overlay`) and
                       :meth:`RoutingLayer.rebind` moves the layer onto its node
``locationMapChange``  no callback: after a rebuild the node hands off the
                       items it no longer ``owns`` (:mod:`repro.node`)
=====================  =========================================================

Both :class:`repro.dht.can.CanRouting` and :class:`repro.dht.chord.ChordRouting`
implement this interface, which is what lets PIER swap DHTs with "fairly
minimal integration effort" (paper Section 3.2).  The paper measures "after
the CAN routing stabilizes", and so does every deployment here: there is no
message-level join or leave protocol.

There is one lookup lane.  :meth:`RoutingLayer.lookup_batch` routes any
number of keys, and ``lookup`` is its front-end for one key, so a DHT's whole
share of a lookup is four coordinate hooks: ``_coordinate`` maps a key into
the DHT's own space (a CAN point, a Chord ring key), ``_owns_coordinate``,
``_owner_in_table`` and ``_next_hop`` answer from there.  Table 1 asks only
for the owner's address, so a lookup ends at the first node that owns the
key *or whose routing table names its owner* (a CAN neighbour whose zone
holds the point; the Chord successor that covers the key, where Chord's
``find_successor`` stops), one hop before the owner; the origin answers such
keys itself.  A key's coordinate costs a few shifts (CAN) or a modulo
(Chord), so every hop derives it from the key and only the keys travel: a
routed batch is one ``keys`` array, which every hop splits by next hop in
one sweep — no per-key object in memory or on the wire.  Request
bookkeeping, forwarding, replies, re-routing around a bounced hop and the
report of keys that cannot be routed are written once, here.

One routed batch can carry the keys of several lookups.  Its second field,
``runs``, holds one ``(origin, request_id, hops, count)`` per lookup, in key
order: the next ``count`` keys belong to that lookup, which is ``hops`` hops
from its origin.  Every run is routed by the rules of a lone lookup and
answered to its own origin with its own hop count.  Runs meet in a node's
**outbox**: while the node handles what its transport handed it at once (a
delivery scope, see :mod:`repro.net.node`), the keys it forwards are held
per next hop and leave as one batch per next hop when the scope closes.  A
timer and a call from outside the event loop run in no scope, so their
forwards leave at once.  Each key costs
:attr:`RoutingLayer.ROUTE_HOP_BYTES` per hop, each run after the first
:attr:`RoutingLayer.RUN_BYTES`, and the message header is paid once.
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
    that applies the hop rules (:meth:`_target`) at every hop.  Most routed
    messages carry one key; such a batch goes straight to its one outcome
    (a reply naming the owner, an unresolved reply or one forward of the
    payload it came in), and only a larger one is re-partitioned by target.
    Concrete layers supply only the geometry through four hooks —
    :meth:`_coordinate`, :meth:`_owns_coordinate`, :meth:`_owner_in_table`
    and :meth:`_next_hop` — and name the ``PROTOCOL_ROUTE_BATCH`` /
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
    PROTOCOL_ROUTE_BATCH = "dht.route_batch"
    PROTOCOL_BATCH_LOOKUP_REPLY = "dht.batch_lookup_reply"
    #: Wire size (bytes) charged per batch-entry hop and per reply.
    ROUTE_HOP_BYTES = 40
    #: Wire size of each run after the first in a routed batch: origin,
    #: request id, hop count and key count.
    RUN_BYTES = 16
    #: Safety valve: routed messages are dropped after this many overlay hops
    #: (CAN's greedy geometric forwarding can, in rare corner configurations,
    #: bounce between zones that are equidistant from the target).
    MAX_ROUTE_HOPS = 128

    #: Next-hop index derived from the routing table; ``None`` = rebuild.
    _next_hops: Optional[Any] = None

    def __init__(self, node: Node):
        self.node = node
        self._pending_batch_lookups: Dict[int, BatchLookupState] = {}
        self._lookup_ids = itertools.count(1)
        #: Forwards held in the open delivery scope: next hop -> the
        #: ``(keys, runs)`` of the one batch it will be sent.
        self._outbox: Dict[int, Tuple[List[int], List[tuple]]] = {}
        self.lookup_hops_observed: List[int] = []
        node.services[self.SERVICE_NAME] = self
        node.register_handler(self.PROTOCOL_ROUTE_BATCH, self._on_route_batch)
        node.register_handler(self.PROTOCOL_BATCH_LOOKUP_REPLY,
                              self._on_batch_lookup_reply)
        node.register_bounce_handler(self.PROTOCOL_ROUTE_BATCH,
                                     self._on_route_batch_bounce)

    # ------------------------------------------------------------- interface

    def lookup(self, key: int, callback: LookupCallback) -> None:
        """Resolve ``key`` to the responsible node's address, asynchronously.

        If this node owns the key (paper footnote 3) or its table names the
        owner, the callback fires synchronously; otherwise the request is
        routed hop by hop and the node one hop before the owner replies
        directly to this node.  A :meth:`lookup_batch` of one: a key that
        cannot be routed gets no callback at all (soft-state semantics),
        never a wrong owner.
        """
        self.lookup_batch([key], lambda owner, _keys: callback(owner))

    # ---------------------------------------------------------- batch lookup

    def lookup_batch(self, keys: Iterable[int], callback: BatchLookupCallback,
                     on_unresolved: Optional[Callable[[List[int]], None]] = None,
                     ) -> Optional[int]:
        """Resolve many keys at once, grouping resolutions by owner.

        ``callback(owner, keys)`` fires once per distinct owner with every
        key that owner is responsible for.  Keys this node owns or whose
        owner its table names resolve synchronously, one callback per owner
        in order of first appearance, and add nothing to
        ``lookup_hops_observed``.  Keys whose greedy paths leave through the
        same neighbour travel in one routed message; each hop re-partitions
        the batch (via :meth:`_next_hop`), so the batch fans out only where
        the routes actually diverge.  The first node that owns a subset or
        names its owner replies once for it — a ready-made (destination →
        keys) grouping for the caller; an owner named from a table may have
        failed undetected, and the caller's send to it bounces.  Keys that
        become unroutable (dead neighbours, hop limit) are reported back as
        *unresolved* so the origin's bookkeeping is freed; their items are
        simply lost (soft-state semantics).  Callers that must not wait on lost keys
        (the Provider's gets and puts) pass ``on_unresolved`` to be told
        which keys were dropped.

        Returns the id of the routed request, ``None`` when every key was
        resolved here.  A relay that dies holding the batch sends neither
        reply nor bounce, so a caller that gives up on the answer hands the
        id to :meth:`forget_lookup`.
        """
        resolved: Dict[int, List[int]] = {}
        routed: List[int] = []
        me = self.address
        coordinate = self._coordinate
        owns = self._owns_coordinate
        owner_in_table = self._owner_in_table
        for key in dict.fromkeys(keys):
            coord = coordinate(key)
            owner = me if owns(coord) else owner_in_table(coord)
            if owner is None:
                routed.append(key)
            else:
                resolved.setdefault(owner, []).append(key)
        for owner, owned in resolved.items():
            callback(owner, owned)
        if not routed:
            return None
        request_id = next(self._lookup_ids)
        self._pending_batch_lookups[request_id] = BatchLookupState(
            callback, len(routed), on_unresolved=on_unresolved
        )
        self._forward_batch(routed, self.address, request_id, hops=0)
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

    def _owner_in_table(self, coord: Any) -> Optional[int]:
        """The live routing-table entry that owns ``coord``, if there is one."""
        raise NotImplementedError

    def _next_hop(self, coord: Any, exclude: Optional[int] = None) -> Optional[int]:
        """Best next hop towards ``coord`` (``None`` when unroutable)."""
        raise NotImplementedError

    # Generic machinery shared by all DHTs.

    def _target(self, coord: Any, exclude: Optional[int],
                expired: bool) -> Tuple[bool, Optional[int]]:
        """Where the key at ``coord`` goes from here: the hop rules.

        ``(True, owner)`` answers the key to its origin: the owner is this
        node when it owns the key, else the live table entry that owns it
        (:meth:`_owner_in_table`), and ``None`` when the key is unresolved —
        past the hop limit, or with no next hop but this node.
        ``(False, next_hop)`` forwards it to its best next hop, from the
        layer's next-hop index.
        """
        me = self.node.address
        if self._owns_coordinate(coord):
            return True, me
        owner = self._owner_in_table(coord)
        if owner is not None:
            return True, owner
        next_hop = None if expired else self._next_hop(coord, exclude)
        if next_hop is None or next_hop == me:
            return True, None
        return False, next_hop

    def _forward_batch(self, keys: List[int], origin: int, request_id: int,
                       hops: int, exclude: Optional[int] = None) -> None:
        """Route one lookup's keys one hop further, in one pass over them.

        Each key's :meth:`_target`, at the coordinate :meth:`_coordinate`
        derives here, decides it, and :meth:`_dispatch` sends the keys of one
        target.  A one-key batch — most routed lookups — goes straight to its
        one outcome.  A larger batch is grouped by target: the keys with an
        owner are answered first, each next hop's keys forwarded in the order
        the hops first occur, the unresolved keys answered last.  The origin
        derives a routed key's coordinate twice, at under a microsecond each.
        """
        expired = hops >= self.MAX_ROUTE_HOPS
        coordinate = self._coordinate
        if len(keys) == 1:
            self._dispatch(*self._target(coordinate(keys[0]), exclude, expired),
                           keys, origin, request_id, hops)
            return
        groups: Dict[Tuple[bool, Optional[int]], List[int]] = {}
        target_of = self._target
        for key in keys:
            target = target_of(coordinate(key), exclude, expired)
            group = groups.get(target)
            if group is None:
                groups[target] = [key]
            else:
                group.append(key)
        # Answered owners first, forwards next, unresolved keys last.
        for target in sorted(groups, key=lambda target: (
                1 if not target[0] else 2 if target[1] is None else 0)):
            self._dispatch(*target, groups[target], origin, request_id, hops)

    def _dispatch(self, answer: bool, address: Optional[int], keys: List[int],
                  origin: int, request_id: int, hops: int) -> None:
        """Answer ``keys`` to the origin with owner ``address`` (``answer``)
        or forward them to the next hop ``address``.

        A forward joins the outbox while a delivery scope is open, else it
        leaves at once as a batch of one run.  The outbox extends the first
        forward's keys in place: every caller hands over a list of its own.
        """
        if answer:
            self._send_batch_reply(origin, request_id, address, keys, hops)
            return
        run = (origin, request_id, hops + 1, len(keys))
        outbox = self._outbox
        batch = outbox.get(address)
        if batch is not None:
            batch[0].extend(keys)
            batch[1].append(run)
        elif outbox or self.node.defer(self._flush_outbox):
            outbox[address] = (keys, [run])
        else:
            self._send_route_batch(address, keys, [run])

    def _flush_outbox(self) -> None:
        """Send one routed batch per next hop the closing scope forwarded to."""
        outbox, self._outbox = self._outbox, {}
        for target, batch in outbox.items():
            self._send_route_batch(target, *batch)

    def _send_route_batch(self, target: int, keys: List[int],
                          runs: List[tuple]) -> None:
        self.node.send(target, self.PROTOCOL_ROUTE_BATCH,
                       {"keys": keys, "runs": runs},
                       self.ROUTE_HOP_BYTES * len(keys)
                       + self.RUN_BYTES * (len(runs) - 1),
                       runs[0][2] if len(runs) == 1
                       else max(run[2] for run in runs))

    def _send_batch_reply(self, origin: int, request_id: int,
                          owner: Optional[int], keys: List[int],
                          hops: int) -> None:
        count = len(keys)
        self.node.send(origin, self.PROTOCOL_BATCH_LOOKUP_REPLY,
                       {"request_id": request_id, "owner": owner, "keys": keys,
                        "hops": hops},
                       self.ROUTE_HOP_BYTES + (8 * (count - 1) if count > 1 else 0))

    def _on_route_batch(self, node: Node, message, bounced: bool = False) -> None:
        """Route every run of the batch ``message`` carries: arrived, or
        bounced back (then around the dead neighbour).

        A batch whose key count is not the sum of its run counts routes
        nothing: each run is answered unresolved with its share of ``keys``.
        The transport delivers the batch, or its bounce, inside a delivery
        scope, so the keys its runs forward to one next hop leave together.
        """
        payload = message.payload
        keys, runs = payload["keys"], payload["runs"]
        sound = len(keys) == sum(run[3] for run in runs)
        exclude = message.dst if bounced else message.src
        start = 0
        for origin, request_id, hops, count in runs:
            end = start + count
            if sound:
                self._forward_batch(keys[start:end], origin, request_id, hops,
                                    exclude)
            else:
                self._send_batch_reply(origin, request_id, None,
                                       keys[start:end], hops)
            start = end

    def _on_route_batch_bounce(self, node: Node, message) -> None:
        """A batched hop hit a dead node: mark it dead and re-route the batch.

        This models per-contact failure detection (a reset or timed-out
        transport connection) as opposed to the slower periodic keep-alives;
        the neighbour stays marked dead locally until it is reported alive.
        """
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

        On a membership change the node already runs the layer of the old
        overlay; this layer takes over its pending lookups and its request
        ids, so answers to lookups the old layer sent still reach their
        callers, and a new request never shares an id with one in flight.
        """
        old = self.node
        self.node = node
        previous = node.services.get(self.SERVICE_NAME)
        if previous is not None and previous is not self:
            self._pending_batch_lookups = previous._pending_batch_lookups
            self._lookup_ids = previous._lookup_ids
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

    # ------------------------------------------------------------ utilities

    @property
    def address(self) -> int:
        """Address of the node this routing layer runs on."""
        return self.node.address
