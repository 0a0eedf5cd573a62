"""Typed messages exchanged between simulated nodes.

The paper's evaluation cares about message *sizes* (they drive the inbound
bandwidth bottleneck) and message *kinds* (DHT routing hops vs. direct IP
communication vs. multicast).  :class:`Message` carries both, plus an opaque
payload for the upper layers.

Wire-size model
---------------
``size_bytes = HEADER_BYTES + payload_bytes`` where ``payload_bytes`` is
supplied by the sender.  The default header of 60 bytes approximates an
IP+UDP header plus a small PIER envelope; routing-only messages (lookups,
keep-alives) therefore cost ~100 bytes, matching the paper's assumption that
control traffic is negligible next to rehashed tuples.
"""

from __future__ import annotations

from typing import Any

#: Fixed per-message header overhead (bytes).
HEADER_BYTES = 60


class Message:
    """A single message in flight between two nodes.

    A ``__slots__`` class rather than a dataclass: the simulator creates one
    per overlay hop, so per-instance dict allocation is measurable event-loop
    overhead at large node counts.

    Attributes
    ----------
    src:
        Address (node id) of the sender.
    dst:
        Address of the receiver.
    protocol:
        Name of the handler registered on the destination node that should
        process this message (e.g. ``"can.route_batch"``, ``"pier.rehash"``).
    payload:
        Arbitrary protocol-specific content.  The simulator never inspects it.
    payload_bytes:
        Size of the payload on the wire, used by the bandwidth model.  Fixed
        at construction, like everything else about a message in flight.
    size_bytes:
        Total size on the wire including the fixed header, derived from
        ``payload_bytes`` once, here, and read by link admission and traffic
        accounting.
    hops:
        Overlay hop counter, incremented by DHT routing layers when they
        forward a request (a routed batch: its largest run's count).
    """

    __slots__ = ("src", "dst", "protocol", "payload", "payload_bytes",
                 "hops", "size_bytes")

    def __init__(self, src: int, dst: int, protocol: str, payload: Any = None,
                 payload_bytes: int = 0, hops: int = 0):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.hops = hops
        size = int(payload_bytes)
        self.size_bytes = HEADER_BYTES + size if size > 0 else HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src}, dst={self.dst}, "
                f"protocol={self.protocol!r}, payload_bytes={self.payload_bytes}, "
                f"hops={self.hops})")
