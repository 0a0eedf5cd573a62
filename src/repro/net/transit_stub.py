"""GT-ITM-style transit-stub topology (paper Section 5.7).

The paper generates a transit-stub network with the GT-ITM package: four
transit domains of ten transit nodes each, three stub domains hanging off
every transit node, end nodes distributed uniformly over the stub domains,
and latencies of 50 ms transit–transit, 10 ms transit–stub and 2 ms within a
stub.  Inbound links remain 10 Mbps.

GT-ITM itself is not available offline, so this module re-implements the
structure directly: each end node is assigned to a stub domain; each stub
domain attaches to a transit node; transit nodes belong to transit domains.
The end-to-end latency between two nodes is the sum of the hop latencies on
the (unique) path through that hierarchy, which reproduces the ~170 ms mean
pairwise delay the paper reports for this topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.topology import MBPS_10, Topology


@dataclass(frozen=True)
class StubAssignment:
    """Placement of an end node inside the transit-stub hierarchy."""

    transit_domain: int
    transit_node: int
    stub_domain: int


class TransitStubTopology(Topology):
    """Hierarchical transit-stub topology with the paper's parameters.

    Parameters
    ----------
    num_nodes:
        Number of end nodes (PIER participants).
    num_transit_domains, transit_nodes_per_domain, stub_domains_per_transit:
        Structure of the hierarchy; defaults are the paper's 4 / 10 / 3.
    transit_transit_latency, transit_stub_latency, intra_stub_latency:
        Hop latencies in seconds; defaults are the paper's 50 / 10 / 2 ms.
    intra_domain_transit_hops, inter_domain_transit_hops:
        Average number of transit–transit links crossed by a path between two
        end nodes attached to different transit nodes of the same domain, and
        between nodes in different transit domains.  The defaults (1 and 3)
        reproduce the ~170 ms mean end-to-end delay the paper reports for
        this topology.
    capacity_bytes_per_s:
        Inbound capacity of each end node (default 10 Mbps).
    seed:
        Seed for the uniform assignment of end nodes to stub domains.
    """

    def __init__(
        self,
        num_nodes: int,
        num_transit_domains: int = 4,
        transit_nodes_per_domain: int = 10,
        stub_domains_per_transit: int = 3,
        transit_transit_latency: float = 0.050,
        transit_stub_latency: float = 0.010,
        intra_stub_latency: float = 0.002,
        intra_domain_transit_hops: float = 1.0,
        inter_domain_transit_hops: float = 3.0,
        capacity_bytes_per_s: float = MBPS_10,
        seed: int = 0,
    ):
        super().__init__(num_nodes)
        if num_transit_domains <= 0 or transit_nodes_per_domain <= 0:
            raise ValueError("transit structure parameters must be positive")
        if stub_domains_per_transit <= 0:
            raise ValueError("each transit node needs at least one stub domain")
        self._num_transit_domains = num_transit_domains
        self._transit_nodes_per_domain = transit_nodes_per_domain
        self._stub_domains_per_transit = stub_domains_per_transit
        self._tt_latency = transit_transit_latency
        self._ts_latency = transit_stub_latency
        self._ss_latency = intra_stub_latency
        self._intra_domain_hops = intra_domain_transit_hops
        self._inter_domain_hops = inter_domain_transit_hops
        self._capacity = float(capacity_bytes_per_s)

        rng = random.Random(seed)
        total_stub_domains = (
            num_transit_domains * transit_nodes_per_domain * stub_domains_per_transit
        )
        self._assignments: list[StubAssignment] = []
        for _node in range(num_nodes):
            stub_index = rng.randrange(total_stub_domains)
            transit_index, stub_domain = divmod(stub_index, stub_domains_per_transit)
            transit_domain, transit_node = divmod(transit_index, transit_nodes_per_domain)
            self._assignments.append(
                StubAssignment(transit_domain, transit_node, stub_domain)
            )

    @property
    def num_stub_domains(self) -> int:
        """Total number of stub domains in the hierarchy."""
        return (
            self._num_transit_domains
            * self._transit_nodes_per_domain
            * self._stub_domains_per_transit
        )

    def assignment(self, node: int) -> StubAssignment:
        """Return the hierarchy placement of an end node."""
        self.validate_address(node)
        return self._assignments[node]

    def latency_between(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        a = self._assignments[src]
        b = self._assignments[dst]
        same_transit_node = (
            a.transit_domain == b.transit_domain and a.transit_node == b.transit_node
        )
        if same_transit_node and a.stub_domain == b.stub_domain:
            return self._ss_latency
        if same_transit_node:
            # stub -> transit node -> other stub under the same transit node.
            return 2 * self._ts_latency
        if a.transit_domain == b.transit_domain:
            # stub -> transit -> (intra-domain transit hops) -> transit -> stub
            return 2 * self._ts_latency + self._intra_domain_hops * self._tt_latency
        # stub -> transit -> (inter-domain transit hops) -> transit -> stub
        return 2 * self._ts_latency + self._inter_domain_hops * self._tt_latency

    def inbound_capacity(self, node: int) -> float:
        self.validate_address(node)
        return self._capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransitStubTopology(n={self._num_nodes}, "
            f"domains={self._num_transit_domains}x{self._transit_nodes_per_domain}, "
            f"stubs/transit={self._stub_domains_per_transit})"
        )
