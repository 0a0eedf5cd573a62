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

Every public name below is bound on first use (PEP 562), so
``import repro.node`` loads what a node runs, not the client, the SQL front
end or the simulator.
"""

import importlib
from typing import Any, Dict, List

__version__ = "1.0.0"

#: Each public name and the module that defines it.
_EXPORTS: Dict[str, str] = {
    name: module
    for module, names in {
        "repro.client": "PierClient ResultCursor",
        "repro.core.opgraph": "OpGraph build_opgraph",
        "repro.core.continuous": "PeriodicQuery SlidingWindowPredicate",
        "repro.core.query": "QuerySpec TableRef JoinClause JoinStrategy",
        "repro.core.executor": "QueryExecutor QueryHandle",
        "repro.core.bloom": "BloomFilter",
        "repro.core.catalog": "Catalog",
        "repro.core.sql.planner": "SQLPlanner",
        "repro.core.sql.parser": "parse_sql",
        "repro.core.tuples": "Column Schema RelationDef",
        "repro.core.stats": "ColumnStats RelationStats StatsRegistry",
        "repro.core.costmodel": "GraphCost OptimizationReport TopologyParams optimize_query",
        "repro.dht.can": "CanRouting CanNetworkBuilder",
        "repro.dht.chord": "ChordRouting ChordNetworkBuilder",
        "repro.dht.provider": "Provider",
        "repro.net.simulator": "Simulator",
        "repro.net.network": "SimulatedNetwork",
        "repro.net.transport": "Transport",
        "repro.net.real": "RealTransport",
        "repro.remote": "RemotePier",
        "repro.net.topology": "FullMeshTopology",
        "repro.net.transit_stub": "TransitStubTopology",
        "repro.net.cluster": "ClusterTopology",
        "repro.workloads.generator": "WorkloadConfig JoinWorkload",
        "repro.workloads.network_monitoring": "NetworkMonitoringWorkload",
        "repro.harness.experiment": "SimulationConfig PierNetwork",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> Any:
    """Import the module defining ``name`` and cache the value here."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
