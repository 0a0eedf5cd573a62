"""Assembling simulated PIER deployments and running queries over them.

:class:`PierNetwork` builds the full stack the paper's evaluation uses: a
topology, the discrete-event network, a stabilised DHT (CAN by default,
Chord as the alternative), one Provider and one QueryExecutor per node.  It
can load workload tables either through real ``put`` traffic or with a "fast
load" that places items directly at their owners — the paper likewise starts
its measurements only "after the CAN routing stabilizes, and tables R and S
are loaded into the DHT".

Queries run through :meth:`PierNetwork.client`: a
:class:`repro.client.PierClient` whose cursors drive the simulation and tear
each query down when it finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.executor import QueryExecutor
from repro.core.stats import StatsRegistry, publisher_batches
from repro.core.tuples import RelationDef
from repro.dht.naming import hash_key, hash_keys
from repro.dht.provider import REQUEST_TIMEOUT_S, Provider
from repro.dht.softstate import RenewalAgent
from repro.dht.storage import StoredItem
from repro.exceptions import ExperimentError
from repro.net.cluster import ClusterTopology
from repro.net.failures import DEFAULT_DETECTION_DELAY_S, FailureInjector
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology, MBPS_10
from repro.net.transit_stub import TransitStubTopology
from repro.stack import NodeStack, build_overlay

#: Topology names accepted by :class:`SimulationConfig`.
TOPOLOGIES = ("full_mesh", "transit_stub", "cluster")
#: DHT names accepted by :class:`SimulationConfig`.
DHTS = ("can", "chord")
#: Events one :meth:`PierNetwork.wait` step runs at most; between steps a
#: cursor checks arrivals against LIMIT / timeout (prompt cancellation).
DRIVE_CHUNK_EVENTS = 256


@dataclass
class ChurnConfig:
    """Continuous node-failure injection alongside real query execution.

    Attaching one to :class:`SimulationConfig` arms the Providers'
    per-request timeout/retry lanes and starts a
    :class:`repro.net.failures.FailureInjector` (exposed as
    ``PierNetwork.failure_injector``) that fails nodes at the configured rate
    from the moment the deployment is built — the setup of the paper's
    Figure 6 recall experiment, through the PierClient → opgraph → executor
    path.  Failures and resumptions are background events: a cursor still
    ends once its query's own work is done and the simulator is idle.
    The injector applies each failure to the nodes'
    :class:`repro.stack.NodeStack` transitions itself: the victim's stack
    fails at once, and after the paper's 15 s keep-alive delay
    (:data:`repro.net.failures.DEFAULT_DETECTION_DELAY_S`) every stack
    confirms it dead and the identity resumes, empty, in one event.  Node 0,
    the query initiator site, is never a victim.  The get timeout is the one
    a real node arms, :data:`repro.dht.provider.REQUEST_TIMEOUT_S`.
    """

    #: Mean failure arrival rate; 0 wires everything up but injects nothing
    #: (tests drive ``failure_injector.fail_now`` by hand).
    failure_rate_per_min: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_rate_per_min < 0:
            raise ExperimentError("churn failure rate must be non-negative")


@dataclass
class SimulationConfig:
    """Configuration of one simulated PIER deployment.

    The defaults reproduce the paper's baseline setup: a fully connected
    topology with 100 ms pairwise latency and 10 Mbps inbound links, and a
    2-dimensional CAN.  ``bandwidth_bytes_per_s=None`` selects the
    infinite-bandwidth (latency-only) scenario of Section 5.5.1.
    """

    num_nodes: int
    topology: str = "full_mesh"
    latency_s: float = 0.100
    bandwidth_bytes_per_s: Optional[float] = MBPS_10
    dht: str = "can"
    can_dimensions: int = 2
    sweep_period_s: float = 0.0
    seed: int = 0
    #: Coalescing window for same-destination sends; ``0.0`` merges sends
    #: issued at the same virtual instant.
    coalesce_window_s: float = 0.0
    #: Churn: run a failure injector (background events: they never keep
    #: the deployment busy) alongside real queries and bound every get.
    #: ``None`` (the default) injects nothing and leaves gets unbounded.
    churn: Optional[ChurnConfig] = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ExperimentError("simulation needs at least one node")
        if self.topology not in TOPOLOGIES:
            raise ExperimentError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        if self.dht not in DHTS:
            raise ExperimentError(f"unknown DHT {self.dht!r}; expected one of {DHTS}")


class PierNetwork:
    """A fully assembled, stabilised PIER deployment inside the simulator
    (the virtual-time :class:`repro.client.Deployment`): one
    :class:`repro.stack.NodeStack` per node over one
    :class:`repro.net.network.SimulatedNetwork`, and under a
    :class:`ChurnConfig` a failure injector that drives those stacks."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.topology = self._build_topology(config)
        self.network = SimulatedNetwork(
            self.topology, coalesce_window_s=config.coalesce_window_s)
        self.builder, self.routings = build_overlay(
            config.dht, range(config.num_nodes), config.can_dimensions,
            network=self.network)
        churn = config.churn
        #: One node's Provider and executor each, and its failure transitions.
        self.stacks: Dict[int, NodeStack] = {
            address: NodeStack(
                self.network.node(address), routing,
                sweep_period_s=config.sweep_period_s,
                request_timeout_s=(REQUEST_TIMEOUT_S if churn is not None
                                   else None))
            for address, routing in self.routings.items()}
        self.providers: Dict[int, Provider] = {
            address: stack.provider for address, stack in self.stacks.items()}
        self.executors: Dict[int, QueryExecutor] = {
            address: stack.executor for address, stack in self.stacks.items()}
        self.renewal_agents: Dict[int, RenewalAgent] = {}
        #: Failure injector driving churn (``None`` without a ChurnConfig).
        self.failure_injector: Optional[FailureInjector] = None
        if churn is not None:
            self.failure_injector = FailureInjector(
                self.network, self.stacks, churn.failure_rate_per_min,
                seed=churn.seed)
            self.failure_injector.start()
        #: Deployment-wide view of publish-time relation statistics (ground
        #: truth of what :meth:`load_relation` loaded).  Planning nodes
        #: normally fetch the per-publisher partials from the
        #: ``__pier_stats__`` DHT namespace instead; this registry serves
        #: experiments that want the exact global view without traffic.
        self.relation_stats = StatsRegistry()

    # ----------------------------------------------------------- construction

    @staticmethod
    def _build_topology(config: SimulationConfig):
        bandwidth = config.bandwidth_bytes_per_s
        capacity = float("inf") if bandwidth is None else bandwidth
        if config.topology == "full_mesh":
            return FullMeshTopology(config.num_nodes, latency_s=config.latency_s,
                                    capacity_bytes_per_s=capacity)
        if config.topology == "transit_stub":
            return TransitStubTopology(config.num_nodes,
                                       capacity_bytes_per_s=capacity,
                                       seed=config.seed)
        return ClusterTopology(config.num_nodes,
                               capacity_bytes_per_s=capacity,
                               seed=config.seed)

    # ----------------------------------------------------------------- access

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the deployment."""
        return self.config.num_nodes

    def provider(self, address: int) -> Provider:
        """Provider running on ``address``."""
        return self.providers[address]

    def executor(self, address: int) -> QueryExecutor:
        """Query executor running on ``address``."""
        return self.executors[address]

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.network.now

    def owner_of(self, namespace: str, resource_id) -> int:
        """Address of the node responsible for ``(namespace, resourceID)``."""
        return self.builder.owner_of_key(hash_key(namespace, resource_id))

    # ------------------------------------------------------------------ load

    def load_relation(self, relation: RelationDef,
                      rows_by_node: Dict[int, List[dict]],
                      lifetime: float = 1e9,
                      fast: bool = True,
                      track_renewal: bool = False) -> int:
        """Publish a relation's tuples from their publishing nodes.

        ``fast=True`` places each tuple directly into its owner's storage
        manager (no messages), which is how benchmarks pre-load tables;
        ``fast=False`` issues real ``put`` traffic from every publisher and
        runs the simulation until it is idle.  ``track_renewal`` additionally
        records every tuple with the publisher's renewal agent (create the
        agents first with :meth:`start_renewal_agents`) and, under ``fast``,
        the owner it was placed at, so the first renewal needs no lookup.

        Each publisher also collects statistics over its batch — cardinality,
        bytes, per-column distinct counts and min/max bounds — records them
        in its executor's local registry, and publishes the partial into the
        ``__pier_stats__`` namespace as soft state (directly at the owner
        under ``fast`` loads, via a real ``put`` otherwise), so any planning
        node can fetch and merge them for ``strategy=AUTO``.

        Returns the number of tuples loaded.  Every publisher's address,
        renewal agent, resourceIDs and statistics are found before anything is
        stored, so a rejected load leaves nothing behind.
        """
        # The statistics partial goes first and is soft state like the rows:
        # renewed under a stable instanceID it survives owner churn, and the
        # failure wiring untracks it when its publisher dies, so stale
        # cardinalities age out instead of being resurrected.
        plans = []
        loaded = 0
        for publisher, rows in rows_by_node.items():
            if not 0 <= publisher < self.num_nodes:
                raise ExperimentError(
                    f"publisher address {publisher} outside the {self.num_nodes}-node network"
                )
            if not rows:
                continue
            if track_renewal and publisher not in self.renewal_agents:
                raise ExperimentError(
                    "track_renewal=True requires start_renewal_agents() first"
                )
            partial, batches = publisher_batches(relation, rows, lifetime, at=self.now)
            plans.append((publisher, partial, batches))
            loaded += len(rows)
        for publisher, partial, batches in plans:
            self.relation_stats.merge_partial(partial)
            self.executors[publisher].stats.merge_partial(partial)
            for namespace, resource_ids, values, life, size in batches:
                instance_ids, owners = self._place(
                    publisher, namespace, resource_ids, values, life, size, fast)
                if track_renewal:
                    track = self.renewal_agents[publisher].track
                    for resource_id, instance_id, value, owner in zip(
                            resource_ids, instance_ids, values, owners):
                        track(namespace, resource_id, instance_id, value, life, size, owner)
        if not fast:
            self.network.run_until_idle()
        return loaded

    def _place(self, publisher: int, namespace: str, resource_ids: List,
               values: List, lifetime: float, size_bytes: int,
               fast: bool) -> Tuple[List[int], Sequence[Optional[int]]]:
        """Publish ``values`` under ``resource_ids``, returning the instanceIDs
        and owners: one ``store_batch`` per owner in publishing order, or
        ``put`` each (owners unknown: ``None``)."""
        provider = self.providers[publisher]
        if not fast:
            return [provider.put(namespace, resource_id, None, value,
                                 lifetime=lifetime, item_bytes=size_bytes)
                    for resource_id, value in zip(resource_ids, values)], [None] * len(values)
        keys = hash_keys(namespace, resource_ids)
        owners = self.builder.owners_of_keys(keys)
        next_id = provider.next_instance_id
        instance_ids = [next_id() for _ in values]
        now = self.now
        expires_at = now + lifetime
        by_owner: Dict[int, List[StoredItem]] = {}
        for owner, resource_id, instance_id, value, key in zip(
                owners, resource_ids, instance_ids, values, keys):
            by_owner.setdefault(owner, []).append(StoredItem(
                namespace, resource_id, instance_id, value, key, expires_at,
                now, publisher, size_bytes))
        for owner, items in by_owner.items():
            self.providers[owner].storage.store_batch(items)
        return instance_ids, owners

    # ------------------------------------------------------------ soft state

    def start_renewal_agents(self, refresh_period: float) -> Dict[int, RenewalAgent]:
        """Create and start one renewal agent per node."""
        for address, provider in self.providers.items():
            agent = provider.make_renewal_agent(refresh_period)
            agent.start()
            self.renewal_agents[address] = agent
        return self.renewal_agents

    # ----------------------------------------------------------------- churn

    def reachable_snapshot(self,
                           dilation_s: float = DEFAULT_DETECTION_DELAY_S) -> frozenset:
        """Dilated-reachable address snapshot at the current virtual time.

        The reference-set helper for recall-under-churn experiments; without
        an injector every address is reachable.
        """
        if self.failure_injector is None:
            return frozenset(range(self.num_nodes))
        return self.failure_injector.reachable_addresses(
            self.now, dilation_s=dilation_s
        )

    # ---------------------------------------------------------------- clients

    def client(self, node: int = 0, catalog=None, **client_options):
        """Open a :class:`repro.client.PierClient` session bound to ``node``."""
        from repro.client import PierClient

        return PierClient(self, node=node, catalog=catalog, **client_options)

    def wait(self, until: Optional[float]) -> Optional[float]:
        """One cursor step: run the events due at the next activity time
        (never past it: the clock does not jump to ``until``) unless that is
        ``until`` or later; return it.  ``None`` when the simulator is idle
        (only background events left): ``wait(None)`` runs until then."""
        simulator = self.network.simulator
        if until is None:
            simulator.run_until_idle()
        if until is None or simulator.idle:
            return None
        next_time = simulator.next_event_time()
        if next_time < until:
            self.network.run(until=next_time, max_events=DRIVE_CHUNK_EVENTS)
        return next_time

    def collect_completeness(self, report, temp_namespaces: Sequence[str]):
        """Add every node's share of the query's accounting, failed ones too."""
        for executor in self.executors.values():
            report.add(executor.completeness_share(report.query_id,
                                                   temp_namespaces))
        return report

    # -------------------------------------------------------------- execution

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Advance the simulation."""
        return self.network.run(until=until, max_events=max_events)

    def run_until_idle(self) -> float:
        """Run until only background events (periodic timers, reapers, failure
        injection) are pending."""
        return self.network.run_until_idle()

