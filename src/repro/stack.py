"""The one place a PIER node is assembled, simulated or a process.

:func:`build_overlay` builds a stabilised CAN or Chord over an address list.
Both builders are message-free, deterministic functions of the list (and of
the CAN dimensions and seed), so every process computes the same tables and
owners: a real node builds the overlay on transport-less stand-ins and
rebinds its own layer onto its socket-backed node
(:meth:`repro.dht.api.RoutingLayer.rebind`) instead of running a join
protocol — the paper likewise measures "after the CAN routing stabilizes" —
and on a join or leave every member rebuilds over the new list.  A client
places keys with the returned builder.

:class:`NodeStack` builds one node's Provider and QueryExecutor and owns the
failure transitions that the simulator's failure injector and a real node's
heartbeat detector both apply.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.executor import QueryExecutor
from repro.core.stats import STATS_NAMESPACE
from repro.dht.api import RoutingLayer
from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.provider import DEFAULT_SWEEP_PERIOD_S, Provider
from repro.exceptions import ExperimentError
from repro.net.node import Node


class _StandIns:
    """What a builder reads of a network: a transport-less node per address."""

    @staticmethod
    def node(address: int) -> Node:
        return Node(address, None)


def build_overlay(dht: str, addresses: Sequence[int], can_dimensions: int = 2,
                  seed: int = 0, network=None
                  ) -> Tuple[object, Dict[int, RoutingLayer]]:
    """``(builder, routings)``: a stabilised ``dht`` over ``addresses``, on
    ``network``'s nodes or else on stand-ins (a process rebinds the layer it
    keeps).  ``builder.owners_of_keys`` places keys under this membership."""
    if dht == "can":
        builder = CanNetworkBuilder(dimensions=can_dimensions, seed=seed)
    elif dht == "chord":
        builder = ChordNetworkBuilder()
    else:
        raise ExperimentError(f"unknown DHT {dht!r}; expected 'can' or 'chord'")
    addresses = sorted(int(address) for address in addresses)
    routings = builder.build_stabilized(
        _StandIns if network is None else network, addresses=addresses)
    return builder, routings


class NodeStack:
    """One node's Provider and QueryExecutor, and what a failure does to them.

    ``request_timeout_s`` arms the Provider's per-request timeout lane and
    ``failure_aware`` the executor's failure fallbacks: a churn deployment
    or a real node sets both.
    """

    def __init__(self, node: Node, routing: RoutingLayer,
                 sweep_period_s: float = DEFAULT_SWEEP_PERIOD_S,
                 request_timeout_s: Optional[float] = None,
                 failure_aware: bool = False):
        self.provider = Provider(node, routing, sweep_period_s=sweep_period_s,
                                 request_timeout_s=request_timeout_s)
        self.executor = QueryExecutor(node, self.provider,
                                      failure_aware=failure_aware)

    def fail(self) -> None:
        """This node's process died: its soft state, in-flight gets and
        dataflows go, and it stops renewing its statistics partials (the data
        they described died with it); data renewals resume (Figure 6)."""
        self.provider.handle_node_failure()
        self.executor.handle_node_failure()
        agent = self.provider.renewal_agent
        if agent is not None:
            agent.untrack_namespace(STATS_NAMESPACE)

    def peer_dead(self, address: int) -> int:
        """``address`` is confirmed dead: route around it and drop the
        statistics partials it published; returns how many were dropped."""
        self.provider.routing.mark_neighbor_dead(address)
        return self.provider.storage.purge_publisher(STATS_NAMESPACE, address)

    def peer_alive(self, address: int) -> None:
        """``address`` answers again (empty): route through it."""
        self.provider.routing.mark_neighbor_alive(address)


__all__ = ["NodeStack", "build_overlay"]
