"""Inbound-link serialisation and queueing model.

The paper's baseline simulation setup places the network bottleneck at each
node's inbound ("last hop") link: 10 Mbps per node, with contention whenever
several senders ship data to the same destination at once.  Each receiver's
inbound link is a single FIFO server:

* a message arriving at virtual time ``t`` (after propagation latency) begins
  service at ``max(t, busy_until)``; the wait ``start - t`` is its queueing
  delay, excluding its own serialisation;
* service lasts ``size_bytes / capacity`` seconds;
* the link is then busy until service completes, delaying later arrivals.

With ``capacity == inf`` the link degenerates to pure propagation delay
(delivery at ``t``, no queueing, ``busy_until`` never moves), which is
exactly the paper's "infinite bandwidth" scenario of Section 5.5.1.

:class:`InboundLink` is only the server's state.  The arithmetic above is
executed in one place, :meth:`repro.net.network.SimulatedNetwork.send`, once
per message, and is tested through it.
"""

from __future__ import annotations


class InboundLink:
    """State of one node's inbound FIFO link.

    Attributes
    ----------
    capacity_bytes_per_s:
        Link speed.  ``float('inf')`` disables serialisation delay.
    infinite:
        Whether the capacity is infinite.
    busy_until:
        Virtual time until which the link is occupied by earlier messages.
    bytes_served:
        Bytes admitted since construction or the node's last recovery.
    """

    __slots__ = ("capacity_bytes_per_s", "infinite", "busy_until", "bytes_served")

    def __init__(self, capacity_bytes_per_s: float):
        self.capacity_bytes_per_s = capacity_bytes_per_s
        self.infinite = capacity_bytes_per_s == float("inf")
        self.busy_until = 0.0
        self.bytes_served = 0
