"""Traffic and delivery accounting for the simulated network.

The paper reports three network-level metrics:

* **aggregate network traffic** (Figure 4) — total bytes delivered across the
  system during a query;
* **maximum inbound traffic at a node** — the hot-spot metric motivating the
  "enough computation nodes" conclusion;
* per-message latency distributions that determine time-to-kth-tuple.

:class:`TrafficStats` is attached to a :class:`repro.net.network.Network` and
updated on every delivery.  It supports *epochs*: an experiment can call
:meth:`TrafficStats.reset` after loading data so that only query-time traffic
is reported, matching the paper's measurements (taken "after the CAN routing
stabilizes, and tables R and S are loaded into the DHT").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net.message import Message


@dataclass
class TrafficStats:
    """Mutable accumulator of message/byte counters.

    The network bumps ``messages_sent`` and ``messages_dropped`` directly;
    a delivery touches every per-node and per-protocol table and goes
    through :meth:`record_delivery`.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_delivered: int = 0
    inbound_bytes: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    outbound_bytes: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    protocol_bytes: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    protocol_messages: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    total_queueing_delay: float = 0.0

    def record_delivery(self, message: Message, queued_for: float = 0.0) -> None:
        """Record a successful delivery and its queueing delay."""
        size = message.size_bytes
        self.messages_delivered += 1
        self.bytes_delivered += size
        self.inbound_bytes[message.dst] += size
        self.outbound_bytes[message.src] += size
        self.protocol_bytes[message.protocol] += size
        self.protocol_messages[message.protocol] += 1
        self.total_queueing_delay += queued_for

    # ------------------------------------------------------------------ views

    @property
    def aggregate_traffic_bytes(self) -> int:
        """Total bytes delivered system-wide (the paper's Figure 4 metric)."""
        return self.bytes_delivered

    @property
    def aggregate_traffic_mb(self) -> float:
        """Aggregate traffic in megabytes."""
        return self.bytes_delivered / 1_000_000

    def max_inbound_bytes(self) -> int:
        """Largest inbound byte count seen by any single node."""
        return max(self.inbound_bytes.values(), default=0)

    def max_inbound_node(self) -> Optional[int]:
        """Address of the node with the most inbound traffic, if any."""
        if not self.inbound_bytes:
            return None
        return max(self.inbound_bytes, key=self.inbound_bytes.get)

    def bytes_for_protocol(self, protocol: str) -> int:
        """Bytes delivered for a given protocol name."""
        return self.protocol_bytes.get(protocol, 0)

    def bytes_for_prefix(self, prefix: str) -> int:
        """Bytes delivered for all protocols whose name starts with ``prefix``."""
        return sum(
            size for name, size in self.protocol_bytes.items() if name.startswith(prefix)
        )

    def reset(self) -> None:
        """Zero every counter; used to start a measurement epoch."""
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_delivered = 0
        self.inbound_bytes.clear()
        self.outbound_bytes.clear()
        self.protocol_bytes.clear()
        self.protocol_messages.clear()
        self.total_queueing_delay = 0.0

    def snapshot(self) -> dict:
        """Plain-dict summary suitable for benchmark reporting."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "aggregate_mb": self.aggregate_traffic_mb,
            "max_inbound_mb": self.max_inbound_bytes() / 1_000_000,
        }
