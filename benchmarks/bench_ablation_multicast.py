"""Ablation — query dissemination (multicast) latency and cost.

Every strategy begins by multicasting the query to all nodes; the paper's
Section 5.5.1 analysis charges roughly 3 seconds for that dissemination at
1024 nodes with 100 ms hops.  This ablation measures the time for the
multicast — CAN's neighbour flood, Chord's finger-interval tree — to reach
every node and the number of messages it costs, as a function of network
size and DHT, and compares the latency against the closed-form
overlay-diameter estimate.
"""

from bench_common import node_axis, report
from repro.core import costmodel
from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.multicast import MulticastService
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology


def measure(num_nodes: int, dht: str):
    network = SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=0.1,
                                                capacity_bytes_per_s=float("inf")))
    if dht == "can":
        routings = CanNetworkBuilder(dimensions=2).build_stabilized(network)
    else:
        routings = ChordNetworkBuilder().build_stabilized(network)
    services = {}
    arrival_times = {}
    for address, routing in routings.items():
        service = MulticastService(network.node(address), routing)
        service.subscribe(
            "bench",
            lambda ns, rid, item, origin, address=address: arrival_times.setdefault(
                address, network.now),
        )
        services[address] = service
    network.stats.reset()
    services[0].multicast("bench", "q", {"query": True}, payload_bytes=400)
    network.run_until_idle()
    reached = len(arrival_times)
    last = max(arrival_times.values()) if arrival_times else 0.0
    return {
        "nodes": num_nodes,
        "dht": dht,
        "reached": reached,
        "time_to_all_s": round(last, 3),
        "model_time_s": round(costmodel.multicast_latency(num_nodes), 3),
        "messages": network.stats.messages_delivered,
    }


def sweep():
    rows = []
    for num_nodes in node_axis((16, 64, 256, 1024)):
        for dht in ("can", "chord"):
            rows.append(measure(num_nodes, dht))
    return rows


def test_ablation_multicast(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("ablation_multicast",
           "Ablation: multicast dissemination latency and message cost", rows)

    # Every multicast reaches every node.
    assert all(row["reached"] == row["nodes"] for row in rows)

    can_rows = {row["nodes"]: row for row in rows if row["dht"] == "can"}
    chord_rows = {row["nodes"]: row for row in rows if row["dht"] == "chord"}
    largest = max(can_rows)

    # Dissemination time grows with network size over CAN (diameter growth)...
    assert can_rows[largest]["time_to_all_s"] > can_rows[min(can_rows)]["time_to_all_s"]
    # ...and is consistent with the paper's ~3 s at ~1000 nodes when run at
    # that scale (within a factor of two of the diameter model).
    assert can_rows[largest]["time_to_all_s"] <= 2.0 * max(
        can_rows[largest]["model_time_s"], 0.5)
    # Chord's finger tree reaches everyone in fewer hops than CAN's grid
    # flood at scale, with one message per node reached.
    assert chord_rows[largest]["time_to_all_s"] <= can_rows[largest]["time_to_all_s"]
    assert all(row["messages"] == row["nodes"] - 1 for row in chord_rows.values())


def main(argv=None):
    from bench_common import run_main
    run_main("ablation_multicast",
             "Ablation: multicast dissemination latency and message cost", sweep, argv)


if __name__ == "__main__":
    main()
