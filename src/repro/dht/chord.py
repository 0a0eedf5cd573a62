"""Chord routing layer (Stoica et al., SIGCOMM 2001).

The paper validates PIER's DHT-agnostic design by deploying it over Chord
"with a fairly minimal integration effort"; this module provides that
alternative.  Nodes are placed on a ``2^m`` identifier ring by hashing their
address; a key is owned by its *successor* (the first node clockwise from the
key).  Each node keeps a successor pointer, a predecessor pointer and an
``m``-entry finger table; greedy routing through fingers resolves a lookup in
``O(log n)`` hops, which is the "logarithmic growth" alternative the paper
points to when discussing CAN's ``n^{1/2}`` hop count.

As with CAN, a ring is stood up one way: :class:`ChordNetworkBuilder`
computes successors, predecessors and finger tables directly from the sorted
identifier list, and a membership change rebuilds over the new list
(:func:`repro.stack.build_overlay`).

**Next-hop index.**  A finger table has ``key_bits`` slots but only about
``log2 n`` distinct nodes in them, so a hop does not scan the slots: the
distinct, live, non-self fingers (plus the live successor) are kept as a
sorted array of clockwise offsets from this node with a parallel address
array, and the closest preceding finger of a key is one ``bisect`` on the
key's offset.  The index is built on the first routed hop after ``fingers``,
``successor`` or the dead set was assigned (they are
:class:`~repro.dht.api.RoutingTableField` attributes), so a hop costs
``O(log f)`` for ``f`` distinct fingers, independent of ``key_bits``.
The same index serves **broadcast**: the entries before a multicast's ring
limit are this node's children in :mod:`repro.dht.multicast`'s tree.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dht.api import RoutingLayer, RoutingTableField
from repro.dht.naming import KEY_BITS, node_identifier
from repro.net.node import Node

if TYPE_CHECKING:  # pragma: no cover - a node process never loads the simulator
    from repro.net.network import SimulatedNetwork


def _in_interval(value: int, start: int, end: int, inclusive_end: bool = False) -> bool:
    """Whether ``value`` lies in the clockwise ring interval ``(start, end)``.

    Ring intervals wrap around zero; ``inclusive_end`` makes the interval
    half-closed ``(start, end]`` which is the ownership rule of Chord.
    """
    if start == end:
        # Both ends on one identifier: the interval goes once round the whole
        # ring (a single node owns every key), whether or not the end counts.
        return True
    if start < end:
        return start < value < end or (inclusive_end and value == end)
    return value > start or value < end or (inclusive_end and value == end)


class ChordRouting(RoutingLayer):
    """Chord routing layer instance bound to one node."""

    PROTOCOL_ROUTE_BATCH = "chord.route_batch"
    PROTOCOL_BATCH_LOOKUP_REPLY = "chord.batch_lookup_reply"

    # The routing table: what the next-hop index is derived from.
    #: Address of the next node clockwise (``None`` off the ring).
    successor = RoutingTableField()
    #: finger index -> (identifier, address) of the finger node, or ``None``.
    fingers = RoutingTableField(tuple)
    _dead = RoutingTableField(frozenset)

    def __init__(self, node: Node, key_bits: int = KEY_BITS):
        super().__init__(node)
        self.key_bits = key_bits
        self._modulus = 1 << key_bits
        self.identifier = node_identifier(node.address) % self._modulus
        self.successor = None
        self.predecessor: Optional[int] = None
        self.fingers = [None] * key_bits
        self._ids: Dict[int, int] = {}  # address -> identifier cache
        self._dead = ()

    # --------------------------------------------------------------- helpers

    def _identifier_of(self, address: int) -> int:
        if address not in self._ids:
            self._ids[address] = node_identifier(address) % self._modulus
        return self._ids[address]

    def ring_key(self, key: int) -> int:
        """Project a flat DHT key onto this ring."""
        return key % self._modulus

    def _owns_coordinate(self, ring_key: int) -> bool:
        if self.predecessor is None:
            return True
        return _in_interval(
            ring_key, self._identifier_of(self.predecessor), self.identifier,
            inclusive_end=True,
        )

    def neighbors(self) -> List[int]:
        addresses = set()
        if self.successor is not None:
            addresses.add(self.successor)
        if self.predecessor is not None:
            addresses.add(self.predecessor)
        for finger in self.fingers:
            if finger is not None:
                addresses.add(finger[1])
        addresses.discard(self.address)
        return [address for address in sorted(addresses) if address not in self._dead]

    def mark_neighbor_dead(self, address: int) -> None:
        """Record a detected neighbour failure; routing avoids it afterwards."""
        if address not in self._dead:
            self._dead = self._dead | {address}

    def mark_neighbor_alive(self, address: int) -> None:
        """Clear a previously-detected neighbour failure."""
        if address in self._dead:
            self._dead = self._dead - {address}

    # --------------------------------------------------------------- routing
    # Lookups are RoutingLayer's, over the coordinate hooks; a key's
    # coordinate is its ring key.

    def _build_next_hops(self) -> Tuple[List[int], List[int], Optional[int]]:
        """Index the table: sorted finger offsets, their addresses, fallback.

        Among fingers on one identifier the first in slot order is kept (the
        successor counts as the last slot); a finger on this node's own
        identifier precedes no key and is left out.
        """
        dead = self._dead
        me = self.address
        base = self.identifier
        modulus = self._modulus
        by_offset: Dict[int, int] = {}
        for finger in self.fingers:
            if finger is None:
                continue
            identifier, address = finger
            if address in dead or address == me:
                continue
            by_offset.setdefault((identifier - base) % modulus, address)
        successor = self.successor
        if successor in dead:
            successor = None
        if successor is not None:
            by_offset.setdefault(
                (self._identifier_of(successor) - base) % modulus, successor)
        by_offset.pop(0, None)
        offsets = sorted(by_offset)
        index = (offsets, [by_offset[offset] for offset in offsets], successor)
        self._next_hops = index
        return index

    def _closest_preceding(self, ring_key: int,
                           exclude: Optional[int] = None) -> Optional[int]:
        """Finger (or successor) closest to, but preceding, ``ring_key``.

        ``exclude`` is the lookup hook's: Chord's finger geometry has no
        source to avoid, and dead nodes are already left out of the index.
        """
        offsets, addresses, live_successor = (
            self._next_hops or self._build_next_hops())
        position = bisect.bisect_left(
            offsets, (ring_key - self.identifier) % self._modulus)
        if position:
            return addresses[position - 1]
        return live_successor

    def _successor_owning(self, ring_key: int) -> Optional[int]:
        """The live successor when ``ring_key`` lies in (self, successor]:
        where Chord's ``find_successor`` stops."""
        live_successor = (self._next_hops or self._build_next_hops())[2]
        if live_successor is not None and _in_interval(
                ring_key, self.identifier, self._identifier_of(live_successor),
                inclusive_end=True):
            return live_successor
        return None

    _coordinate = ring_key
    _owner_in_table = _successor_owning
    _next_hop = _closest_preceding

    def broadcast_scope(self) -> int:
        """A limit on this node's own identifier covers the whole ring."""
        return self.identifier

    def broadcast_children(self, scope: Optional[int]
                           ) -> Optional[List[Tuple[int, Optional[int]]]]:
        """Split the ring interval ``(self, scope)`` among the index's entries:
        each gets the stretch up to the next, a dead finger's folds into the
        one before.  ``None`` (flood) when a detected-dead successor leaves
        the nodes before the next live finger without a tree path."""
        if scope is None:
            return super().broadcast_children(None)
        offsets, addresses, live_successor = (
            self._next_hops or self._build_next_hops())
        base, modulus = self.identifier, self._modulus
        limit = (scope - base) % modulus or modulus
        if live_successor is None and self.successor is not None and (
                self._identifier_of(self.successor) - base) % modulus < limit:
            return None
        end = bisect.bisect_left(offsets, limit)
        return [(addresses[i], (base + offsets[i + 1]) % modulus
                 if i + 1 < end else scope) for i in range(end)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChordRouting(addr={self.address}, id={self.identifier:#x}, "
            f"succ={self.successor}, pred={self.predecessor})"
        )


class ChordNetworkBuilder:
    """Construct a stabilised Chord ring over every node of a network."""

    def __init__(self, key_bits: int = KEY_BITS):
        self.key_bits = key_bits
        self._ring: Optional[List[tuple]] = None
        self._identifiers: List[int] = []  # of _ring, for owner_of_key

    def build_stabilized(self, network: SimulatedNetwork,
                         addresses: Optional[Sequence[int]] = None
                         ) -> Dict[int, ChordRouting]:
        """Install a fully-stabilised ring (successors, predecessors, fingers)."""
        if addresses is None:
            addresses = list(range(network.num_nodes))
        addresses = list(addresses)
        routings = {
            address: ChordRouting(network.node(address), key_bits=self.key_bits)
            for address in addresses
        }
        ring = sorted(
            (routing.identifier, address) for address, routing in routings.items()
        )
        identifiers = [identifier for identifier, _address in ring]
        count = len(ring)
        modulus = 1 << self.key_bits

        for position, (identifier, address) in enumerate(ring):
            routing = routings[address]
            successor_id, successor_addr = ring[(position + 1) % count]
            predecessor_id, predecessor_addr = ring[(position - 1) % count]
            routing.successor = successor_addr
            routing.predecessor = predecessor_addr
            fingers: List[Optional[tuple]] = []
            for finger_index in range(self.key_bits):
                target = (identifier + (1 << finger_index)) % modulus
                position_in_ring = bisect.bisect_left(identifiers, target) % count
                fingers.append(ring[position_in_ring])
            routing.fingers = fingers
        self._ring = ring
        self._identifiers = identifiers
        return routings

    # --------------------------------------------------------- owner lookup

    def owner_of_key(self, key: int) -> int:
        """Address of the node owning ``key`` in the last built ring."""
        return self.owners_of_keys([key])[0]

    def owners_of_keys(self, keys: Sequence[int]) -> List[int]:
        """Addresses of the nodes owning ``keys``, in order."""
        if not self._ring:
            raise RuntimeError("owner_of_key() requires build_stabilized() first")
        ring, identifiers, modulus = self._ring, self._identifiers, 1 << self.key_bits
        return [ring[bisect.bisect_left(identifiers, key % modulus) % len(ring)][1]
                for key in keys]
