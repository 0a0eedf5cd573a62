"""PIER reproduction: a DHT-based massively distributed relational query engine.

This package re-implements, from scratch in Python, the system described in
"Querying the Internet with PIER" (Huebsch, Hellerstein, Lanham, Loo,
Shenker, Stoica — VLDB 2003): the PIER query processor with its four
DHT-based distributed join strategies, the CAN and Chord overlays it runs
on, the Provider/storage-manager soft-state substrate, and the
discrete-event network simulator used for the paper's evaluation.

Quick start::

    from repro import SimulationConfig, PierNetwork
    from repro.workloads import WorkloadConfig, JoinWorkload

    workload = JoinWorkload(WorkloadConfig(num_nodes=16, s_tuples_per_node=2))
    pier = PierNetwork(SimulationConfig(num_nodes=16))
    pier.load_relation(workload.r_relation, workload.r_by_node)
    pier.load_relation(workload.s_relation, workload.s_by_node)

    client = pier.client(node=0, catalog=workload.catalog())
    print(client.explain(workload.sql_text()))      # physical operator graph
    cursor = client.sql(workload.sql_text())        # streaming result cursor
    print(cursor.fetch(10), cursor.time_to_kth(10))
    rows = cursor.fetchall()                        # completes + tears down
"""

from repro.client import PierClient, ResultCursor
from repro.core import (
    BloomFilter,
    Catalog,
    ColumnStats,
    GraphCost,
    JoinClause,
    JoinStrategy,
    OpGraph,
    OptimizationReport,
    PeriodicQuery,
    QueryExecutor,
    QueryHandle,
    QuerySpec,
    RelationStats,
    SlidingWindowPredicate,
    SQLPlanner,
    StatsRegistry,
    TableRef,
    TopologyParams,
    build_opgraph,
    optimize_query,
    parse_sql,
)
from repro.core.tuples import Column, RelationDef, Schema
from repro.dht import CanNetworkBuilder, CanRouting, ChordNetworkBuilder, ChordRouting, Provider
from repro.harness import PierNetwork, SimulationConfig
from repro.net import (
    ClusterTopology,
    FullMeshTopology,
    RealTransport,
    SimulatedNetwork,
    Simulator,
    TransitStubTopology,
    Transport,
)
from repro.remote import RemotePier
from repro.workloads import JoinWorkload, NetworkMonitoringWorkload, WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # client
    "PierClient",
    "ResultCursor",
    # core
    "OpGraph",
    "build_opgraph",
    "PeriodicQuery",
    "SlidingWindowPredicate",
    "QuerySpec",
    "TableRef",
    "JoinClause",
    "JoinStrategy",
    "QueryExecutor",
    "QueryHandle",
    "BloomFilter",
    "Catalog",
    "SQLPlanner",
    "parse_sql",
    "Column",
    "Schema",
    "RelationDef",
    # statistics / optimizer
    "ColumnStats",
    "RelationStats",
    "StatsRegistry",
    "GraphCost",
    "OptimizationReport",
    "TopologyParams",
    "optimize_query",
    # dht
    "CanRouting",
    "CanNetworkBuilder",
    "ChordRouting",
    "ChordNetworkBuilder",
    "Provider",
    # net
    "Simulator",
    "SimulatedNetwork",
    "Transport",
    "RealTransport",
    "RemotePier",
    "FullMeshTopology",
    "TransitStubTopology",
    "ClusterTopology",
    # workloads
    "WorkloadConfig",
    "JoinWorkload",
    "NetworkMonitoringWorkload",
    # harness
    "SimulationConfig",
    "PierNetwork",
]
