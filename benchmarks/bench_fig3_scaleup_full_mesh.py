"""Figure 3 — time to the 30th result tuple as nodes and load scale together.

The paper scales the network from 2 to 10,000 simulated nodes while keeping
the data per node constant, and plots the time to the 30th result tuple for
1, 2, 8, 16 and N computation nodes.  The headline observations, which this
benchmark checks at reduced scale:

* with **all** nodes computing, the response time degrades only by a small
  factor across two orders of magnitude of scale-up (the residual growth is
  the ``n^{1/2}`` CAN lookup path);
* with a **small fixed number** of computation nodes, their inbound links
  congest as the load grows and response time blows up.

Run as a script this benchmark takes a ``--nodes`` axis (e.g.
``--nodes 1024,4096,10000``) so the paper's full 10k-node range is
reachable, and reports wall-clock per phase (build / load / query) for every
configuration.
"""

import time

from bench_common import (
    build_loaded_network,
    is_smoke,
    node_axis,
    report,
    run_benchmark_query,
)
from repro.core.query import JoinStrategy

#: Default sweep axis (scaled by PIER_BENCH_SCALE, capped in smoke mode).
DEFAULT_NODE_COUNTS = (2, 8, 32, 64, 128)

#: Coalescing window used for large runs.
#: 10 ms is 10% of the paper's 100 ms hop latency — enough to merge the
#: serialisation-staggered waves of a routed batch into per-destination
#: delivery events without visibly distorting the latency curves.
LARGE_RUN_WINDOW_S = 0.010

#: Node count at and above which the sweep switches the window on.
LARGE_RUN_THRESHOLD = 1024


def run_one(num_nodes: int, computation_count, seed: int = 5) -> dict:
    """Run one (nodes, computation nodes) configuration with phase timing."""
    window = LARGE_RUN_WINDOW_S if num_nodes >= LARGE_RUN_THRESHOLD else 0.0
    t0 = time.perf_counter()
    pier, workload = build_loaded_network(num_nodes, s_tuples_per_node=2, seed=seed,
                                          coalesce_window_s=window)
    t_loaded = time.perf_counter()
    computation_nodes = (
        list(range(1, computation_count + 1)) if computation_count else None
    )
    outcome = run_benchmark_query(pier, workload, JoinStrategy.SYMMETRIC_HASH,
                                  computation_nodes=computation_nodes)
    t_done = time.perf_counter()
    return {
        "nodes": num_nodes,
        "computation_nodes": str(computation_count) if computation_count else "N",
        "results": outcome.result_count,
        "t_30th_s": outcome.latency.time_to_kth,
        "t_last_s": outcome.latency.time_to_last,
        "max_inbound_mb": outcome.traffic.max_inbound_mb,
        "sim_events": outcome.sim_events,
        "coalesce_w_ms": window * 1e3,
        "wall_build_load_s": round(t_loaded - t0, 3),
        "wall_query_s": round(t_done - t_loaded, 3),
    }


def sweep():
    node_counts = node_axis(DEFAULT_NODE_COUNTS)
    configurations = [("1", 1), ("8", 8), ("N", None)]
    if is_smoke():
        # Keep both extremes: the single hot node and the fully distributed
        # path (the 8-computation-node row would be skipped anyway under the
        # smoke node cap, since 8 >= num_nodes).
        configurations = [("1", 1), ("N", None)]
    rows = []
    for num_nodes in node_counts:
        for _label, computation_count in configurations:
            if computation_count is not None and computation_count >= num_nodes:
                continue
            rows.append(run_one(num_nodes, computation_count))
    return rows


def test_fig3_scaleup_full_mesh(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("fig3_scaleup_full_mesh",
           "Figure 3: time to 30th result tuple, fully connected topology", rows)

    all_nodes_curve = {row["nodes"]: row["t_30th_s"] for row in rows
                       if row["computation_nodes"] == "N"}
    one_node_inbound = {row["nodes"]: row["max_inbound_mb"] for row in rows
                        if row["computation_nodes"] == "1"}
    all_nodes_inbound = {row["nodes"]: row["max_inbound_mb"] for row in rows
                         if row["computation_nodes"] == "N"}

    smallest = min(all_nodes_curve)
    largest = max(all_nodes_curve)

    # Graceful scale-up with N computation nodes: the paper reports only a
    # ~4x degradation from 2 to 10,000 nodes; across our (smaller) range the
    # degradation must stay within an order of magnitude.
    assert all_nodes_curve[largest] <= 10.0 * max(all_nodes_curve[smallest], 0.2)

    # A single computation node becomes the hot spot as the load grows: it
    # receives a large multiple of any node's inbound traffic in the fully
    # distributed configuration, and that hot-spot load grows with the
    # network size while the distributed configuration spreads it.  (At our
    # scaled-down data volume per node the congestion is visible in the hot
    # node's inbound traffic rather than in the 30th-tuple time, which needs
    # the paper's ~0.5 MB/node load to move; see EXPERIMENTS.md.)
    assert one_node_inbound[largest] > 3.0 * all_nodes_inbound[largest]
    assert one_node_inbound[largest] > 2.0 * one_node_inbound[smallest]


def main(argv=None):
    from bench_common import run_main
    return run_main("fig3_scaleup_full_mesh",
                    "Figure 3: time to 30th result tuple, fully connected topology",
                    sweep, argv)


if __name__ == "__main__":
    main()
