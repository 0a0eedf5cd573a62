"""Cluster (LAN) topology used for the "real deployment" experiment.

Figure 8 of the paper runs the same PIER code on a shared 64-PC cluster with
a 1 Gbps network.  We cannot run on physical hardware here, so this topology
models that environment: sub-millisecond switch latency, 1 Gbps inbound
links, and a *background-load jitter* model that perturbs latency per
message, standing in for the competing applications the paper blames for the
noise in its Figure 8 (including the spike at 32 nodes).

The jitter is multiplicative log-normal noise applied per latency query with
a deterministic seed, so runs remain reproducible while still exhibiting the
qualitative "not smooth" character of the paper's cluster measurements.
"""

from __future__ import annotations

import random

from repro.net.topology import GBPS_1, Topology


#: Baseline one-way latency between any two machines.
LATENCY_S = 0.0003
#: Standard deviation of the log-normal multiplicative latency noise.  The
#: paper's cluster was "typically shared with other competing applications".
LOAD_JITTER = 0.35


class ClusterTopology(Topology):
    """Switched-LAN topology standing in for the paper's 64-node cluster.

    Parameters
    ----------
    num_nodes:
        Number of cluster machines (the paper scales 2..64).
    capacity_bytes_per_s:
        Inbound capacity per machine (default 1 Gbps).
    seed:
        Seed for the jitter process.
    """

    def __init__(self, num_nodes: int,
                 capacity_bytes_per_s: float = GBPS_1, seed: int = 0):
        super().__init__(num_nodes)
        if capacity_bytes_per_s <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = float(capacity_bytes_per_s)
        self._rng = random.Random(seed)

    def latency_between(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return LATENCY_S * self._rng.lognormvariate(0.0, LOAD_JITTER)

    def inbound_capacity(self, node: int) -> float:
        self.validate_address(node)
        return self._capacity

    def average_latency(self, sample: int = 0) -> float:
        return LATENCY_S if self._num_nodes > 1 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterTopology(n={self._num_nodes}, "
            f"capacity={self._capacity * 8 / 1e9:.1f}Gbps)"
        )
