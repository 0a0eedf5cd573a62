"""A lookup routed offline: each layer's own hop rule, walked without a network.

:func:`walk_lookup` follows what ``RoutingLayer.lookup_batch`` and one
``*.route_batch`` per hop do to a batch of keys — a key is answered at the
first node that owns it or whose routing table names its owner
(``_owner_in_table``), so the origin answers the keys it or a neighbour
owns, and every other key goes to ``_next_hop`` of the node it is at
(excluding the node it came from) — but calls the four coordinate hooks
directly: no messages, no outbox, no delivery groups.  What the message
path does with a lookup (merging runs of several lookups into one batch per
next hop, deferring forwards to the end of a delivery scope) must not
change any key's owner or hop count, nor how a lookup's keys split on their
way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple


def answering_owner(layer, coord) -> Optional[int]:
    """The owner ``layer``'s node answers a lookup of ``coord`` with: itself
    when it owns the key, else the owner its routing table names; ``None``
    when it must forward the key."""
    if layer._owns_coordinate(coord):
        return layer.address
    return layer._owner_in_table(coord)


def walk_lookup(routings: Mapping[int, object], origin: int, keys: Iterable[int]
                ) -> Tuple[Dict[int, Tuple[int, int]], int]:
    """``(answers, forwards)`` of a lookup of ``keys`` from ``origin``.

    ``answers[key] = (owner, hops)``; ``forwards`` counts the one-run routed
    batches the lookup takes: at each hop, one per next hop its keys there
    split into.  Every key must reach an owner on the hop rules of a
    stabilised, failure-free overlay.
    """
    answers: Dict[int, Tuple[int, int]] = {}
    forwards = 0
    coordinate = routings[origin]._coordinate
    walks = [(origin, None, [(key, coordinate(key)) for key in dict.fromkeys(keys)], 0)]
    while walks:
        address, came_from, items, hops = walks.pop()
        here = routings[address]
        by_next_hop: Dict[int, list] = {}
        for key, coord in items:
            owner = answering_owner(here, coord)
            if owner is not None:
                answers[key] = (owner, hops)
                continue
            next_hop = here._next_hop(coord, came_from)
            assert next_hop is not None and next_hop != address, (key, address)
            assert hops < here.MAX_ROUTE_HOPS, (key, address)
            by_next_hop.setdefault(next_hop, []).append((key, coord))
        for next_hop, group in by_next_hop.items():
            forwards += 1
            walks.append((next_hop, address, group, hops + 1))
    return answers, forwards
