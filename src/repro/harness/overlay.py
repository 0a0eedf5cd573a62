"""Deterministic overlay construction for real (multi-process) clusters.

Both network builders — :class:`repro.dht.can.CanNetworkBuilder` and
:class:`repro.dht.chord.ChordNetworkBuilder` — are message-free,
deterministic functions of the address list: given the same addresses (and
CAN dimensions/seed) every process computes bit-identical zones, neighbour
maps, rings and finger tables.  A real node therefore doesn't run a join
protocol at bootstrap; it builds the *entire* stabilised overlay locally
over throwaway stand-in nodes, keeps the one routing layer that is its own,
and rebinds it onto its socket-backed node
(:meth:`repro.dht.api.RoutingLayer.rebind`).  This mirrors how the
simulator harness starts measurements only after stabilisation — the paper
likewise measures "after the CAN routing stabilizes".

The same determinism powers *live* membership: when a node joins or
leaves, every member applies the new address list by re-running
``build_local_routing`` and rebinding, then migrates the stored items
whose ownership moved (see ``repro.node``).  No distributed stabilisation
protocol is needed — agreement on the address list (the membership epoch)
implies agreement on ownership.

:class:`OwnerLocator` exposes the same determinism to clients: given the
cluster's DHT parameters it maps any ``(namespace, resourceID)`` to the
owning address without touching the network, which is what lets a remote
loader place tuples directly at their owners ("fast load") exactly like
:meth:`repro.harness.experiment.PierNetwork.load_relation` does in-process.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.dht.api import RoutingLayer
from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.exceptions import ExperimentError
from repro.net.node import Node


class _StandInCluster:
    """The minimal network surface the builders consume (no transport)."""

    def __init__(self, addresses: Sequence[int]):
        self.nodes: Dict[int, Node] = {
            address: Node(address, None) for address in addresses
        }

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, address: int) -> Node:
        return self.nodes[address]


def make_builder(dht: str, can_dimensions: int = 2, seed: int = 0):
    """The network builder for a DHT name (same knobs as SimulationConfig)."""
    if dht == "can":
        return CanNetworkBuilder(dimensions=can_dimensions, seed=seed)
    if dht == "chord":
        return ChordNetworkBuilder()
    raise ExperimentError(f"unknown DHT {dht!r}; expected 'can' or 'chord'")


def build_local_routing(node: Node, addresses: Sequence[int], dht: str = "can",
                        can_dimensions: int = 2, seed: int = 0
                        ) -> Tuple[RoutingLayer, object]:
    """Build the full stabilised overlay locally; rebind this node's layer.

    Returns ``(routing, builder)`` — the routing layer now registered on
    ``node``, and the builder (whose ``owner_of_key`` serves local
    owner placement).  The other addresses' layers are built on stand-in
    nodes and discarded; only their *existence* mattered, since the
    builders compute each layer's tables from the whole address list.
    """
    addresses = sorted(int(a) for a in addresses)
    if node.address not in addresses:
        raise ExperimentError(
            f"node {node.address} is not in the cluster address list {addresses}"
        )
    stand_in = _StandInCluster(addresses)
    builder = make_builder(dht, can_dimensions=can_dimensions, seed=seed)
    routings = builder.build_stabilized(stand_in, addresses=addresses)
    routing = routings[node.address]
    routing.rebind(node)
    return routing, builder


class OwnerLocator:
    """Client-side ``(namespace, resourceID) → owner address`` resolution.

    Wraps a locally-built stabilised overlay over the cluster's address
    list; never sends a message.  Ownership is valid for one membership
    *epoch*: when nodes join or leave, every member deterministically
    rebuilds the overlay over the new address list, so a client must build
    a locator (see :meth:`repro.remote.RemotePier.refresh_membership`) over
    the refreshed membership to keep placing tuples correctly.
    Crash failures do *not* remap ownership — the cluster routes around a
    dead node via bounces and detection, exactly like the simulator.
    """

    def __init__(self, addresses: Sequence[int], dht: str = "can",
                 can_dimensions: int = 2, seed: int = 0):
        self.dht = dht
        self.can_dimensions = can_dimensions
        self.seed = seed
        self.rebuild(addresses)

    def rebuild(self, addresses: Sequence[int]) -> None:
        """Recompute ownership over a new membership address list."""
        self.addresses = sorted(int(a) for a in addresses)
        stand_in = _StandInCluster(self.addresses)
        self.builder = make_builder(self.dht, can_dimensions=self.can_dimensions,
                                    seed=self.seed)
        self.builder.build_stabilized(stand_in, addresses=self.addresses)

    def owner_of_key(self, key: int) -> int:
        """Owning address of a flat DHT key."""
        return self.builder.owner_of_key(key)

    def owner_of(self, namespace: str, resource_id) -> int:
        """Owning address of ``(namespace, resourceID)``."""
        return self.builder.owner_of_key(hash_key(namespace, resource_id))


__all__ = ["OwnerLocator", "build_local_routing", "make_builder"]
