"""Network topologies: latency and inbound-capacity models.

The paper uses two simulated topologies plus a real cluster:

* a **fully connected** graph where every pair of nodes is 100 ms apart and
  each node's inbound link is 10 Mbps (congestion only at the last hop);
* a **transit-stub** graph generated with GT-ITM (see
  :mod:`repro.net.transit_stub`);
* a **cluster** of 64 PCs on a 1 Gbps switch (see
  :mod:`repro.net.cluster`).

A topology answers two questions for the :class:`repro.net.network.Network`:
the one-way propagation latency between two node addresses and the inbound
link capacity of a node.  All topologies are static; node failure is handled
one layer up (the failed node stops processing messages), matching the
paper's model where the graph itself does not change.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

#: 10 megabits per second expressed in bytes/second.
MBPS_10 = 10 * 1_000_000 / 8
#: 1 gigabit per second expressed in bytes/second.
GBPS_1 = 1_000_000_000 / 8


class Topology(ABC):
    """Abstract latency / capacity model over integer node addresses."""

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError(f"topology needs at least one node (got {num_nodes})")
        self._num_nodes = int(num_nodes)

    @property
    def num_nodes(self) -> int:
        """Number of addressable nodes in the topology."""
        return self._num_nodes

    def latency(self, src: int, dst: int) -> float:
        """One-way propagation delay in seconds between two addresses."""
        self.validate_address(src)
        self.validate_address(dst)
        return self.latency_between(src, dst)

    @abstractmethod
    def latency_between(self, src: int, dst: int) -> float:
        """:meth:`latency` for addresses the caller has already validated.

        The network calls this exactly once per non-local send and once per
        bounce, in send order: a topology may draw from a random stream
        here, so the result must never be cached.
        """

    @abstractmethod
    def inbound_capacity(self, node: int) -> float:
        """Inbound link capacity of ``node`` in bytes/second.

        ``float('inf')`` models the paper's "infinite bandwidth" scenario
        used for Table 4.
        """

    def validate_address(self, node: int) -> None:
        """Raise ``ValueError`` if ``node`` is not a valid address."""
        if not 0 <= node < self._num_nodes:
            raise ValueError(
                f"node address {node} outside topology of {self._num_nodes} nodes"
            )

    def average_latency(self, sample: int = 0) -> float:
        """Mean pairwise latency; subclasses may override with a closed form."""
        total = 0.0
        count = 0
        n = self._num_nodes
        step = max(1, n // max(1, sample)) if sample else 1
        for i in range(0, n, step):
            for j in range(0, n, step):
                if i != j:
                    total += self.latency(i, j)
                    count += 1
        return total / count if count else 0.0


class FullMeshTopology(Topology):
    """Fully connected topology: uniform latency, uniform inbound capacity.

    Defaults match the paper's baseline: 100 ms between any two nodes and a
    10 Mbps inbound link per node.  Pass ``capacity_bps=float('inf')`` for the
    infinite-bandwidth (latency-only) scenario of Section 5.5.1.
    """

    def __init__(
        self,
        num_nodes: int,
        latency_s: float = 0.100,
        capacity_bytes_per_s: float = MBPS_10,
    ):
        super().__init__(num_nodes)
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        if capacity_bytes_per_s <= 0:
            raise ValueError("capacity must be positive")
        self._latency = float(latency_s)
        self._capacity = float(capacity_bytes_per_s)

    def latency_between(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else self._latency

    def inbound_capacity(self, node: int) -> float:
        self.validate_address(node)
        return self._capacity

    def average_latency(self, sample: int = 0) -> float:
        if self._num_nodes <= 1:
            return 0.0
        return self._latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FullMeshTopology(n={self._num_nodes}, latency={self._latency * 1e3:.0f}ms, "
            f"capacity={self._capacity * 8 / 1e6:.1f}Mbps)"
        )
