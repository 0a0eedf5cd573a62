"""Cluster (LAN) topology used for the "real deployment" experiment.

Figure 8 of the paper runs the same PIER code on a shared 64-PC cluster with
a 1 Gbps network.  We cannot run on physical hardware here, so this topology
models that environment: sub-millisecond switch latency, 1 Gbps inbound
links, and an optional *background-load jitter* model that perturbs latency
per message, standing in for the competing applications the paper blames for
the noise in its Figure 8 (including the spike at 32 nodes).

The jitter is multiplicative log-normal noise applied per latency query with
a deterministic seed, so runs remain reproducible while still exhibiting the
qualitative "not smooth" character of the paper's cluster measurements.
"""

from __future__ import annotations

import random

from repro.net.topology import GBPS_1, Topology


class ClusterTopology(Topology):
    """Switched-LAN topology standing in for the paper's 64-node cluster.

    Parameters
    ----------
    num_nodes:
        Number of cluster machines (the paper scales 2..64).
    latency_s:
        Baseline one-way latency between any two machines (default 0.3 ms).
    capacity_bytes_per_s:
        Inbound capacity per machine (default 1 Gbps).
    load_jitter:
        Standard deviation of log-normal multiplicative latency noise; 0
        disables jitter.  The paper's cluster was "typically shared with
        other competing applications", hence the default of 0.35.
    seed:
        Seed for the jitter process.
    """

    def __init__(
        self,
        num_nodes: int,
        latency_s: float = 0.0003,
        capacity_bytes_per_s: float = GBPS_1,
        load_jitter: float = 0.35,
        seed: int = 0,
    ):
        super().__init__(num_nodes)
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        if capacity_bytes_per_s <= 0:
            raise ValueError("capacity must be positive")
        if load_jitter < 0:
            raise ValueError("load_jitter must be non-negative")
        self._latency = float(latency_s)
        self._capacity = float(capacity_bytes_per_s)
        self._jitter = float(load_jitter)
        self._rng = random.Random(seed)

    def latency_between(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        base = self._latency
        if self._jitter > 0:
            base *= self._rng.lognormvariate(0.0, self._jitter)
        return base

    def inbound_capacity(self, node: int) -> float:
        self.validate_address(node)
        return self._capacity

    def average_latency(self, sample: int = 0) -> float:
        return self._latency if self._num_nodes > 1 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterTopology(n={self._num_nodes}, latency={self._latency * 1e3:.2f}ms, "
            f"capacity={self._capacity * 8 / 1e9:.1f}Gbps, jitter={self._jitter})"
        )
