"""Ablation — overlay hop counts: CAN dimensionality and CAN vs. Chord.

Section 3.1.1 notes that the paper's d = 2 CAN gives ``n^{1/2}`` hop growth
and that choosing a larger d (or a logarithmic DHT such as Chord) would
improve the scalability curves.  This ablation measures average lookup path
length as a function of network size for CAN with d ∈ {2, 3} and for Chord,
and compares each against its closed-form prediction: the path length to
the owner, less the last hop, since the node before the owner names it from
its routing table and the lookup ends there.
"""

from bench_common import node_axis, report
from repro.core import costmodel
from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology

LOOKUPS_PER_SOURCE = 60
SOURCES_PER_POINT = 16


def measure_hops(builder, network, routings) -> float:
    """Mean hops of routed lookups from up to ``SOURCES_PER_POINT`` sources
    spread over the address space (one source is a noisy sample).

    A lookup of a key the source does not own is routed; one the source's
    table answers (the owner is a neighbour) takes no hop and is not
    recorded, so it counts as 0 here.
    """
    addresses = sorted(routings)
    sources = addresses[::max(1, len(addresses) // SOURCES_PER_POINT)]
    routed = 0
    for source in sources:
        for resource in range(LOOKUPS_PER_SOURCE):
            key = hash_key("hops", source * LOOKUPS_PER_SOURCE + resource)
            routed += not routings[source].owns(key)
            routings[source].lookup(key, lambda owner: None)
    network.run_until_idle()
    observed = sum(sum(routings[source].lookup_hops_observed)
                   for source in sources)
    return observed / routed if routed else 0.0


def sweep():
    rows = []
    for num_nodes in node_axis((64, 256, 1024)):
        for label, make_builder in (
            ("can d=2", lambda: CanNetworkBuilder(dimensions=2)),
            ("can d=3", lambda: CanNetworkBuilder(dimensions=3)),
            ("chord", ChordNetworkBuilder),
        ):
            network = SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=0.0,
                                                        capacity_bytes_per_s=float("inf")))
            builder = make_builder()
            routings = builder.build_stabilized(network)
            mean_hops = measure_hops(builder, network, routings)
            if label == "can d=2":
                path = costmodel.can_average_hops(num_nodes, 2)
            elif label == "can d=3":
                path = costmodel.can_average_hops(num_nodes, 3)
            else:
                path = costmodel.chord_average_hops(num_nodes)
            # A lookup ends at the node one hop before the owner.
            model = max(0.0, path - 1)
            rows.append({
                "nodes": num_nodes,
                "dht": label,
                "mean_lookup_hops": round(mean_hops, 2),
                "model_hops": round(model, 2),
            })
    return rows


def test_ablation_dht_hops(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("ablation_dht_hops",
           "Ablation: average lookup hops vs. network size, by DHT", rows)

    def hops(dht, nodes):
        return next(row["mean_lookup_hops"] for row in rows
                    if row["dht"] == dht and row["nodes"] == nodes)

    sizes = sorted({row["nodes"] for row in rows})
    small, large = sizes[0], sizes[-1]

    # CAN with d=2 shows clear polynomial growth in path length.
    assert hops("can d=2", large) > 1.5 * hops("can d=2", small)
    # Raising the dimensionality shortens paths at the same size.
    assert hops("can d=3", large) < hops("can d=2", large)
    # Chord's logarithmic routing is far shorter than CAN d=2 at scale and
    # grows much more slowly.
    assert hops("chord", large) < 0.6 * hops("can d=2", large)
    growth_chord = hops("chord", large) / max(hops("chord", small), 0.5)
    growth_can = hops("can d=2", large) / max(hops("can d=2", small), 0.5)
    assert growth_chord < growth_can
    # CAN routes on a torus, so its paths match the ``(d/4)·n^{1/d}`` model
    # (the square, with no wrap-around, averaged ``(d/3)·n^{1/d}``).
    for row in rows:
        if row["dht"].startswith("can"):
            assert abs(row["mean_lookup_hops"] / row["model_hops"] - 1) <= 0.10, row


def main(argv=None):
    from bench_common import run_main
    run_main("ablation_dht_hops",
             "Ablation: average lookup hops vs. network size, by DHT", sweep, argv)


if __name__ == "__main__":
    main()
