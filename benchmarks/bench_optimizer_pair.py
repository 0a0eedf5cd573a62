"""Optimizer smoke pair — AUTO must flip strategy between selectivity regimes.

Runs a low/high-selectivity pair of the benchmark join on a workload where
*both* inputs are fat (S tuples carry a ~1 KB pad like R's), over slow
inbound links with cheap overlay hops.  In that regime the strategy
trade-off of the paper's Figures 4–5 is real rather than latency-masked:

* at **low** selectivity, rewrites that ship only matching tuples
  (symmetric semi-join / Bloom) beat plans that move a full input;
* at **high** selectivity nearly everything matches, so the rewrites'
  extra phases stop paying and a full-shipping plan (fetch matches /
  symmetric hash) wins.

The benchmark runs ``strategy="auto"`` plus all four forced strategies at
both points and — outside ``--smoke`` — asserts that AUTO (a) picks
*different* strategies across the pair and (b) returns rows identical to
the forced run of whatever it picked.  Regret against the best forced
strategy is reported in the JSON; the hard regret bound is asserted by the
fig-5 sweep, whose margins are wide — here the top candidates sit within
a few percent by construction, inside placement-noise territory.  CI's
``optimizer-smoke`` job runs it at 64 nodes and uploads the JSON.
"""

from bench_common import bench_seed, is_smoke, measure_query, node_axis, report, row_key
from repro.core.query import JoinStrategy
from repro.harness import PierNetwork, SimulationConfig
from repro.workloads import JoinWorkload, WorkloadConfig

SELECTIVITY_PAIR = (0.05, 1.0)
#: Slow inbound links (0.2 Mbps) make byte movement the dominant cost...
BANDWIDTH_BYTES_PER_S = 200_000 / 8
#: ... while cheap overlay hops keep the rewrites' extra phases affordable.
HOP_LATENCY_S = 0.02
#: Long enough for every node's Bloom filter to reach its collector over
#: the slow links — a shorter window silently drops late filters (and with
#: them result rows), which would corrupt the regret baseline.
COLLECTION_WINDOW_S = 4.0


def build(num_nodes: int, seed: int):
    workload = JoinWorkload(WorkloadConfig(
        num_nodes=num_nodes, s_tuples_per_node=4, seed=seed,
        s_pad_bytes=1000, s_tuple_bytes=1040,
    ))
    pier = PierNetwork(SimulationConfig(
        num_nodes=num_nodes, seed=seed,
        latency_s=HOP_LATENCY_S,
        bandwidth_bytes_per_s=BANDWIDTH_BYTES_PER_S,
    ))
    pier.load_relation(workload.r_relation, workload.r_by_node)
    pier.load_relation(workload.s_relation, workload.s_by_node)
    return pier, workload


def run_point(num_nodes: int, seed: int, strategy, selectivity: float):
    pier, workload = build(num_nodes, seed)
    query = workload.make_query(strategy=strategy, s_selectivity=selectivity,
                                collection_window_s=COLLECTION_WINDOW_S)
    return measure_query(pier, query)


def sweep():
    num_nodes = node_axis([64])[0]
    seed = bench_seed(13)
    rows = []
    chosen_by_selectivity = {}
    for selectivity in SELECTIVITY_PAIR:
        forced = {}
        forced_rows = {}
        for strategy in JoinStrategy.physical():
            outcome = run_point(num_nodes, seed, strategy, selectivity)
            forced[strategy.value] = outcome.latency.time_to_last
            forced_rows[strategy.value] = sorted(map(row_key, outcome.rows))
            rows.append({
                "selectivity_pct": int(selectivity * 100),
                "strategy": strategy.value,
                "results": outcome.result_count,
                "t_last_s": outcome.latency.time_to_last,
            })
        outcome = run_point(num_nodes, seed, JoinStrategy.AUTO, selectivity)
        chosen = outcome.cursor.query.strategy.value
        best = min(forced.values())
        chosen_by_selectivity[selectivity] = {
            "chosen": chosen,
            "t_last_s": outcome.latency.time_to_last,
            "best_forced": min(forced, key=forced.get),
            "regret": (outcome.latency.time_to_last / best - 1.0) if best else 0.0,
            "rows_match": sorted(map(row_key, outcome.rows)) == forced_rows[chosen],
        }
        rows.append({
            "selectivity_pct": int(selectivity * 100),
            "strategy": f"auto->{chosen}",
            "results": outcome.result_count,
            "t_last_s": outcome.latency.time_to_last,
        })

    low, high = SELECTIVITY_PAIR
    summary = {
        "nodes": num_nodes,
        "pair": list(SELECTIVITY_PAIR),
        "choices": {str(k): v for k, v in chosen_by_selectivity.items()},
        "auto_flipped": (chosen_by_selectivity[low]["chosen"]
                         != chosen_by_selectivity[high]["chosen"]),
    }
    sweep.summary = summary

    if not is_smoke() and num_nodes >= 32:
        for selectivity, point in chosen_by_selectivity.items():
            assert point["rows_match"], (
                f"auto rows differ from forced {point['chosen']} at {selectivity}"
            )
        assert summary["auto_flipped"], (
            f"expected AUTO to flip strategy across the pair, got {summary}"
        )
    return rows


def test_optimizer_pair(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("optimizer_pair",
           "Optimizer smoke pair: AUTO vs forced strategies", rows,
           extra={"summary": sweep.summary})


def main(argv=None):
    from bench_common import run_main
    run_main("optimizer_pair",
             "Optimizer smoke pair: AUTO vs forced strategies", sweep, argv,
             extra=lambda: {"summary": sweep.summary})


if __name__ == "__main__":
    main()
