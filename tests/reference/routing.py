"""A lookup routed offline: each layer's own hop rule, walked without a network.

:func:`walk_lookup` follows what ``RoutingLayer.lookup_batch`` and one
``*.route_batch`` per hop do to a batch of keys — keys the origin owns are
answered there, every other key goes to ``_next_hop`` of the node it is at
(excluding the node it came from), and a relay that owns a key answers it —
but calls the three coordinate hooks directly: no messages, no outbox, no
delivery groups.  What the message path does with a lookup (merging runs of
several lookups into one batch per next hop, deferring forwards to the end
of a delivery scope) must not change any key's owner or hop count, nor how
a lookup's keys split on their way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple


def walk_lookup(routings: Mapping[int, object], origin: int, keys: Iterable[int]
                ) -> Tuple[Dict[int, Tuple[int, int]], int]:
    """``(answers, forwards)`` of a lookup of ``keys`` from ``origin``.

    ``answers[key] = (owner, hops)``; ``forwards`` counts the one-run routed
    batches the lookup takes: at each hop, one per next hop its keys there
    split into.  Every key must reach an owner on the hop rules of a
    stabilised, failure-free overlay.
    """
    layer = routings[origin]
    answers: Dict[int, Tuple[int, int]] = {}
    routed = []
    for key in dict.fromkeys(keys):
        coord = layer._coordinate(key)
        if layer._owns_coordinate(coord):
            answers[key] = (origin, 0)
        else:
            routed.append((key, coord))
    forwards = 0
    walks = [(origin, None, routed, 0)] if routed else []
    while walks:
        address, came_from, items, hops = walks.pop()
        here = routings[address]
        by_next_hop: Dict[int, list] = {}
        for key, coord in items:
            if came_from is not None and here._owns_coordinate(coord):
                answers[key] = (address, hops)
                continue
            next_hop = here._next_hop(coord, came_from)
            assert next_hop is not None and next_hop != address, (key, address)
            assert hops < here.MAX_ROUTE_HOPS, (key, address)
            by_next_hop.setdefault(next_hop, []).append((key, coord))
        for next_hop, group in by_next_hop.items():
            forwards += 1
            walks.append((next_hop, address, group, hops + 1))
    return answers, forwards
