"""Section 5.3 — centralised vs. distributed query processing.

The paper argues that funnelling the selected data to a single computation
node requires an impractically fat downlink (≈66 Mbps just to answer within
a minute at 1024 nodes / 1 GB), while spreading computation over all nodes
keeps per-node requirements trivial.  This benchmark reproduces that
analysis with the closed-form model and cross-checks it against the
simulator at a scaled-down size: the same query is run with 1 computation
node and with all nodes computing, and the single node's inbound traffic is
compared against the analytic prediction.
"""

import pytest

from bench_common import build_loaded_network, report, run_benchmark_query, scaled
from repro.core.query import JoinStrategy
from repro.harness import analytical


def paper_scale_rows():
    """The paper's own numbers: 1 GB selected from a 1024-node network."""
    selected = analytical.selected_data_bytes(1e9, 0.5)
    rows = []
    for computation_nodes in (1, 16, 256, 1024):
        rows.append({
            "computation_nodes": computation_nodes,
            "inbound_gb_per_node": analytical.inbound_bytes_per_computation_node(
                selected, 1024, computation_nodes) / 1e9,
            "downlink_mbps_for_60s": analytical.required_downlink_mbps(
                selected, 1024, computation_nodes, 60.0),
        })
    return rows


def simulated_rows():
    num_nodes = scaled(64)
    results = []
    for label, computation_nodes in (("1", [1]), ("all", None)):
        pier, workload = build_loaded_network(num_nodes, s_tuples_per_node=2, seed=3)
        outcome = run_benchmark_query(pier, workload, JoinStrategy.SYMMETRIC_HASH,
                                      computation_nodes=computation_nodes)
        if computation_nodes:
            hot_inbound = outcome.stats.inbound_bytes.get(computation_nodes[0], 0)
        else:
            hot_inbound = outcome.traffic.max_inbound_bytes
        results.append({
            "computation_nodes": label,
            "results": outcome.result_count,
            "t_last_s": outcome.latency.time_to_last,
            "hot_node_inbound_mb": hot_inbound / 1e6,
            "aggregate_mb": outcome.traffic.total_mb,
        })
    return results


def test_sec53_centralized_vs_distributed(benchmark):
    analytic = paper_scale_rows()
    simulated = benchmark.pedantic(simulated_rows, rounds=1, iterations=1)

    report("sec53_analytic",
           "Section 5.3 (analytic, paper scale: 1024 nodes, 1 GB, 50% selectivity)",
           analytic)
    report("sec53_simulated",
           "Section 5.3 (simulated, scaled down)", simulated)

    # Paper's claim: a single computation node needs on the order of 66 Mbps
    # to answer within a minute.
    single = analytic[0]
    assert 50.0 <= single["downlink_mbps_for_60s"] <= 80.0
    # Distributing computation makes the per-node requirement collapse.
    assert analytic[-1]["downlink_mbps_for_60s"] == pytest.approx(0.0, abs=1e-6)

    # Simulation: the designated single computation node is a clear hot spot.
    one, all_nodes = simulated
    assert one["results"] == all_nodes["results"]
    assert one["hot_node_inbound_mb"] > 2.0 * all_nodes["hot_node_inbound_mb"]


def main(argv=None):
    from bench_common import parse_args
    parse_args(argv)
    report("sec53_analytic",
           "Section 5.3 (analytic, paper scale: 1024 nodes, 1 GB, 50% selectivity)",
           paper_scale_rows())
    report("sec53_simulated",
           "Section 5.3 (simulated, scaled down)", simulated_rows())


if __name__ == "__main__":
    main()
