"""Ablation — flat DHT hash aggregation vs. hierarchical (combiner-tree) aggregation.

Section 7 of the paper observes that flat DHT aggregation concentrates all
partial-aggregate traffic on each group's owner node and asks whether
Astrolabe/TAG-style in-network aggregation could be layered on a DHT.  Our
extension (:mod:`repro.core.aggregation_tree`) interposes a level of combiner
nodes; this ablation quantifies the trade-off: the group owner's inbound
load drops, at the cost of an extra hop of latency.
"""

from bench_common import bench_seed, measure_query, report, scaled
from repro.core.query import AggregateSpec, QuerySpec, TableRef
from repro.harness import PierNetwork, SimulationConfig
from repro.workloads import NetworkMonitoringWorkload


def run_once(hierarchical: bool):
    num_nodes = scaled(64)
    seed = bench_seed(11)
    workload = NetworkMonitoringWorkload(num_nodes=num_nodes, intrusions_per_node=8, seed=seed)
    pier = PierNetwork(SimulationConfig(num_nodes=num_nodes, seed=seed))
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    query = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        aggregates=[AggregateSpec("count", None, "cnt")],
        hierarchical_aggregation=hierarchical,
        collection_window_s=6.0,
    )
    outcome = measure_query(pier, query)
    owner = pier.owner_of(query.aggregation_namespace(), ("agg-l0", ()))
    return {
        "mode": "hierarchical" if hierarchical else "flat",
        "nodes": num_nodes,
        "count": outcome.rows[0]["cnt"] if outcome.rows else None,
        "t_result_s": outcome.latency.time_to_last,
        "owner_inbound_kb": outcome.stats.inbound_bytes.get(owner, 0) / 1e3,
        "aggregate_kb": outcome.stats.aggregate_traffic_bytes / 1e3,
    }


def sweep():
    return [run_once(False), run_once(True)]


def test_ablation_hierarchical_aggregation(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("ablation_hierarchical_agg",
           "Ablation: flat vs. hierarchical aggregation", rows)
    flat, tree = rows

    # Both modes compute the same aggregate.
    assert flat["count"] == tree["count"] and flat["count"] is not None
    # The combiner tree relieves the group owner's inbound hot spot.
    assert tree["owner_inbound_kb"] < flat["owner_inbound_kb"]
    # The price is an extra aggregation stage, so the answer arrives later.
    assert tree["t_result_s"] >= flat["t_result_s"]


def main(argv=None):
    from bench_common import run_main
    run_main("ablation_hierarchical_agg",
             "Ablation: flat vs. hierarchical aggregation", sweep, argv)


if __name__ == "__main__":
    main()
