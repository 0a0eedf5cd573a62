"""Assembling simulated PIER deployments and running queries over them.

:class:`PierNetwork` builds the full stack the paper's evaluation uses: a
topology, the discrete-event network, a stabilised DHT (CAN by default,
Chord as the alternative), one Provider and one QueryExecutor per node.  It
can load workload tables either through real ``put`` traffic or with a "fast
load" that places items directly at their owners — the paper likewise starts
its measurements only "after the CAN routing stabilizes, and tables R and S
are loaded into the DHT".

:func:`run_query` submits a query from an initiator node, advances the
simulation, and returns the latency summary, traffic breakdown and result
rows for that query — the quantities every benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.executor import QueryExecutor, QueryHandle
from repro.core.query import QuerySpec
from repro.core.stats import (
    STATS_ITEM_BYTES,
    STATS_LIFETIME_S,
    STATS_NAMESPACE,
    RelationStats,
    StatsRegistry,
    relation_stats_resource_id,
)
from repro.core.tuples import RelationDef
from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.dht.provider import Provider
from repro.dht.softstate import RenewalAgent
from repro.dht.storage import StoredItem
from repro.exceptions import ExperimentError
from repro.metrics.latency import LatencySummary, summarize_latency
from repro.metrics.traffic import TrafficBreakdown, breakdown_traffic
from repro.net.cluster import ClusterTopology
from repro.net.failures import DEFAULT_DETECTION_DELAY_S, FailureInjector
from repro.net.network import Network
from repro.net.topology import FullMeshTopology, MBPS_10
from repro.net.transit_stub import TransitStubTopology

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

    Attaching one to :class:`SimulationConfig` makes the deployment
    failure-aware end to end: Providers run the per-request timeout/retry
    lanes, executors arm failure fallbacks and the periodic stale-state
    sweep, and a :class:`repro.net.failures.FailureInjector` (exposed as
    ``PierNetwork.failure_injector``) fails nodes at the configured rate
    while queries run — the setup of the paper's Figure 6 recall
    experiment, but through the real PierClient → opgraph → executor path.
    """

    #: Mean failure arrival rate; 0 wires everything up but injects nothing
    #: (tests drive ``failure_injector.fail_now`` by hand).
    failure_rate_per_min: float = 0.0
    #: Keep-alive detection delay (the paper assumes 15 s).
    detection_delay_s: float = DEFAULT_DETECTION_DELAY_S
    #: Downtime before the identity resumes empty (defaults to detection).
    downtime_s: Optional[float] = None
    seed: int = 0
    #: Addresses never chosen as victims (the query initiator site).
    protect: Tuple[int, ...] = (0,)
    #: Per-request get timeout; bounds waits that bounces cannot see.
    request_timeout_s: Optional[float] = 10.0
    #: Retries-after-reroute before a get completes empty.
    request_retries: int = 1
    #: Purge ``__pier_stats__`` partials of a failed publisher from live
    #: owners at detection time (instead of waiting for expiry).
    purge_dead_publisher_stats: bool = True
    #: Start injecting as soon as the deployment is built.
    auto_start: bool = True

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
    cluster_jitter: float = 0.35
    sweep_period_s: float = 0.0
    seed: int = 0
    #: Coalescing window for same-destination sends; ``0.0`` merges sends
    #: issued at the same virtual instant.
    coalesce_window_s: float = 0.0
    #: Churn: run a failure injector alongside real queries and switch the
    #: whole stack into its failure-aware mode.  ``None`` (the default)
    #: reproduces the seed's failure-free behaviour exactly.
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
    (the virtual-time :class:`repro.client.Deployment`)."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.topology = self._build_topology(config)
        self.network = Network(self.topology,
                               coalesce_window_s=config.coalesce_window_s)
        if config.dht == "can":
            self.builder = CanNetworkBuilder(dimensions=config.can_dimensions,
                                             seed=config.seed)
        else:
            self.builder = ChordNetworkBuilder()
        self.routings = self.builder.build_stabilized(self.network)
        self.providers: Dict[int, Provider] = {}
        self.executors: Dict[int, QueryExecutor] = {}
        churn = config.churn
        for address in range(config.num_nodes):
            node = self.network.node(address)
            provider = Provider(
                node, self.routings[address],
                sweep_period_s=config.sweep_period_s,
                instance_seed=address,
                request_timeout_s=(churn.request_timeout_s
                                   if churn is not None else None),
                request_retries=(churn.request_retries
                                 if churn is not None else 1),
            )
            self.providers[address] = provider
            self.executors[address] = QueryExecutor(
                node, provider, failure_aware=churn is not None,
            )
        self.renewal_agents: Dict[int, RenewalAgent] = {}
        #: Failure injector driving churn (``None`` without a ChurnConfig).
        self.failure_injector: Optional[FailureInjector] = None
        if churn is not None:
            self.failure_injector = self.attach_failure_injector(
                failures_per_minute=churn.failure_rate_per_min,
                detection_delay_s=churn.detection_delay_s,
                downtime_s=churn.downtime_s,
                seed=churn.seed,
                protect=frozenset(churn.protect),
                purge_dead_publisher_stats=churn.purge_dead_publisher_stats,
            )
            if churn.auto_start:
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
                               load_jitter=config.cluster_jitter,
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
                      track_renewal: bool = False,
                      publish_stats: bool = True,
                      stats_lifetime: float = STATS_LIFETIME_S) -> int:
        """Publish a relation's tuples from their publishing nodes.

        ``fast=True`` places each tuple directly into its owner's storage
        manager (no messages), which is how benchmarks pre-load tables;
        ``fast=False`` issues real ``put`` traffic from every publisher and
        runs the simulation until it drains.  ``track_renewal`` additionally
        records every tuple with the publisher's renewal agent (create the
        agents first with :meth:`start_renewal_agents`).

        With ``publish_stats`` (the default) each publisher also collects
        statistics over its batch — cardinality, bytes, per-column distinct
        counts and min/max bounds — records them in its executor's local
        registry, and publishes the partial into the ``__pier_stats__``
        namespace as soft state (directly at the owner under ``fast`` loads,
        via a real ``put`` otherwise), so any planning node can fetch and
        merge them for ``strategy=AUTO``.

        Returns the number of tuples loaded.
        """
        loaded = 0
        for publisher, rows in rows_by_node.items():
            if publisher >= self.num_nodes:
                raise ExperimentError(
                    f"publisher address {publisher} outside the {self.num_nodes}-node network"
                )
            provider = self.providers[publisher]
            agent = self.renewal_agents.get(publisher)
            if track_renewal and agent is None and rows:
                raise ExperimentError(
                    "track_renewal=True requires start_renewal_agents() first"
                )
            if publish_stats and rows:
                stats_rid, stats_instance, partial = self._publish_partial_stats(
                    relation, publisher, rows, fast=fast,
                    stats_lifetime=stats_lifetime,
                )
                if track_renewal:
                    # Statistics are soft state like everything else: the
                    # publisher renews its partial (stable instanceID) so it
                    # survives owner churn — and the failure wiring untracks
                    # it when the publisher itself dies, letting stale
                    # cardinalities age out instead of being resurrected.
                    agent.track(STATS_NAMESPACE, stats_rid, stats_instance,
                                partial, stats_lifetime, STATS_ITEM_BYTES)
            for row in rows:
                resource_id = relation.resource_id(row)
                if fast:
                    key = hash_key(relation.namespace, resource_id)
                    owner = self.builder.owner_of_key(key)
                    instance_id = provider.next_instance_id()
                    self.providers[owner].storage.store(StoredItem(
                        namespace=relation.namespace,
                        resource_id=resource_id,
                        instance_id=instance_id,
                        value=row,
                        key=key,
                        expires_at=self.now + lifetime,
                        stored_at=self.now,
                        publisher=publisher,
                        size_bytes=relation.tuple_bytes,
                    ))
                else:
                    instance_id = provider.put(
                        relation.namespace, resource_id, None, row,
                        lifetime=lifetime, item_bytes=relation.tuple_bytes,
                    )
                if track_renewal:
                    agent.track(relation.namespace, resource_id, instance_id,
                                row, lifetime, relation.tuple_bytes)
                loaded += 1
        if not fast:
            self.network.run_until_idle()
        return loaded

    def _publish_partial_stats(self, relation: RelationDef, publisher: int,
                               rows: List[dict], fast: bool,
                               stats_lifetime: float):
        """Collect and publish one publisher's statistics partial.

        Returns ``(resource_id, instance_id, partial)`` so callers can hand
        the published item to the publisher's renewal agent.
        """
        provider = self.providers[publisher]
        partial = RelationStats.from_rows(relation, rows, at=self.now)
        self.relation_stats.merge_partial(partial)
        self.executors[publisher].stats.merge_partial(partial)
        resource_id = relation_stats_resource_id(relation.name)
        if fast:
            owner = self.owner_of(STATS_NAMESPACE, resource_id)
            instance_id = provider.next_instance_id()
            self.providers[owner].storage.store(StoredItem(
                namespace=STATS_NAMESPACE,
                resource_id=resource_id,
                instance_id=instance_id,
                value=partial,
                key=hash_key(STATS_NAMESPACE, resource_id),
                expires_at=self.now + stats_lifetime,
                stored_at=self.now,
                publisher=publisher,
                size_bytes=STATS_ITEM_BYTES,
            ))
        else:
            instance_id = provider.put(
                STATS_NAMESPACE, resource_id, None, partial,
                lifetime=stats_lifetime, item_bytes=STATS_ITEM_BYTES,
            )
        return resource_id, instance_id, partial

    # ------------------------------------------------------------ soft state

    def start_renewal_agents(self, refresh_period: float) -> Dict[int, RenewalAgent]:
        """Create and start one renewal agent per node."""
        for address, provider in self.providers.items():
            agent = provider.make_renewal_agent(refresh_period)
            agent.start()
            self.renewal_agents[address] = agent
        return self.renewal_agents

    # ----------------------------------------------------------------- churn

    def attach_failure_injector(self, failures_per_minute: float,
                                detection_delay_s: float = DEFAULT_DETECTION_DELAY_S,
                                downtime_s: Optional[float] = None,
                                seed: int = 0,
                                protect: frozenset = frozenset(),
                                purge_dead_publisher_stats: bool = True,
                                ) -> FailureInjector:
        """Build a failure injector whose callbacks keep the stack consistent.

        * **on_fail** — the victim's Provider drops its stored soft state and
          in-flight gets, its executor releases every query's local dataflow
          (process death), and its renewal agent stops renewing statistics
          partials — the data they described died with the node — while
          data-tuple renewals resume on recovery (the Figure 6 repair
          dynamic).
        * **on_detect** — every live routing layer marks the victim dead (so
          lookups reroute), and live owners purge the victim's
          ``__pier_stats__`` partials so the optimizer stops planning from a
          dead publisher's cardinalities.
        * **on_recover** — routing marks the identity alive again; it
          resumes with empty storage.

        The injector is returned un-started; call ``start()`` (ChurnConfig
        deployments do this automatically when ``auto_start`` is set).
        """

        def _on_fail(address: int) -> None:
            self.providers[address].handle_node_failure()
            self.executors[address].handle_node_failure()
            agent = self.renewal_agents.get(address)
            if agent is not None:
                agent.untrack_namespace(STATS_NAMESPACE)

        def _on_detect(address: int) -> None:
            for routing in self.routings.values():
                routing.mark_neighbor_dead(address)
            if purge_dead_publisher_stats:
                for other, provider in self.providers.items():
                    if other != address and self.network.node(other).alive:
                        provider.storage.purge_publisher(STATS_NAMESPACE,
                                                         address)

        def _on_recover(address: int) -> None:
            for routing in self.routings.values():
                routing.mark_neighbor_alive(address)

        return FailureInjector(
            network=self.network,
            failures_per_minute=failures_per_minute,
            detection_delay_s=detection_delay_s,
            downtime_s=downtime_s,
            seed=seed,
            on_fail=_on_fail,
            on_detect=_on_detect,
            on_recover=_on_recover,
            protect=protect,
        )

    def reachable_snapshot(self, dilation_s: Optional[float] = None) -> frozenset:
        """Dilated-reachable address snapshot at the current virtual time.

        The reference-set helper for recall-under-churn experiments; without
        an injector every address is reachable.
        """
        if self.failure_injector is None:
            return frozenset(range(self.num_nodes))
        if dilation_s is None:
            dilation_s = self.failure_injector.detection_delay_s
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
        ``until`` or later; return it.  ``wait(None)`` runs until idle."""
        if until is None:
            self.network.run_until_idle()
            return None
        next_time = self.network.simulator.next_event_time()
        if next_time is not None and next_time < until:
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

    def run_until_idle(self, max_events: Optional[int] = None) -> float:
        """Run until the event queue drains."""
        return self.network.run_until_idle(max_events=max_events)


@dataclass
class QueryRunResult:
    """Everything one query execution produced."""

    handle: QueryHandle
    latency: LatencySummary
    traffic: TrafficBreakdown
    elapsed_virtual_s: float
    rows: List[dict] = field(default_factory=list)

    @property
    def result_count(self) -> int:
        """Number of result rows the initiator received."""
        return self.handle.result_count


def run_query(pier: PierNetwork, query: QuerySpec, initiator: int = 0,
              until: Optional[float] = None, kth: int = 30,
              reset_stats: bool = True) -> QueryRunResult:
    """Submit ``query`` from ``initiator`` and run the simulation to completion.

    Back-compat shim over the :class:`repro.client.PierClient` session API:
    submits through a client cursor, drives the simulation, and packages the
    batch-style result the benchmarks consume.  It deliberately does *not*
    tear the query down afterwards (several experiments inspect the
    soft state a query leaves behind); use ``PierClient.sql(...)`` cursors
    for lifecycle-managed queries.

    With no periodic processes active the event queue drains naturally once
    the query finishes; experiments with renewal agents or failure injection
    must pass an explicit ``until`` horizon.
    """
    if reset_stats:
        pier.network.stats.reset()
    start = pier.now
    cursor = pier.client(node=initiator).query(query)
    if until is None:
        pier.run_until_idle()
    else:
        pier.run(until=until)
    handle = cursor.handle
    return QueryRunResult(
        handle=handle,
        latency=summarize_latency(handle, k=kth),
        traffic=breakdown_traffic(pier.network.stats),
        elapsed_virtual_s=pier.now - start,
        rows=handle.final_rows(),
    )
