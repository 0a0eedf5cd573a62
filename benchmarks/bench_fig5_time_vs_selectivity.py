"""Figure 5 — time to the last result tuple vs. selectivity of the predicate on S.

With the baseline 10 Mbps inbound links, the completion time of each
strategy tracks the traffic it pushes through the bottleneck links
(Figure 4) at low selectivities; as selectivity rises, the growing stream of
1 KB result tuples makes the *query site's* inbound link the bottleneck and
every strategy's completion time converges toward that common cost.  This
benchmark reproduces both regimes — and additionally runs the sweep with
``strategy="auto"``: the cost-based optimizer plans each point from
DHT-published statistics, and the sweep records the chosen strategy, the
model's predicted completion time, and the *regret* versus the best forced
strategy.  The per-selectivity optimizer trajectory is written to
``BENCH_optimizer.json`` at the repository root.
"""

import json
from pathlib import Path

from bench_common import (build_loaded_network, report, row_key,
                          run_benchmark_query, scaled)
from repro.core.query import JoinStrategy

SELECTIVITIES = (0.1, 0.4, 0.7, 1.0)

#: Committed optimizer-trajectory artifact.
BENCH_OPTIMIZER_PATH = Path(__file__).resolve().parent.parent / "BENCH_optimizer.json"

#: Acceptance bar: AUTO completion time within 15 % of the best forced
#: strategy at every selectivity.
MAX_REGRET = 0.15

_OPTIMIZER_DOC = {}


def run_point(strategy, selectivity):
    """One (strategy, selectivity) run on a freshly built, identical network."""
    pier, workload = build_loaded_network(
        scaled(64), s_tuples_per_node=3, seed=7,
        # A slower inbound link accentuates the bandwidth bottleneck
        # at this reduced scale (the paper has ~500x more data/node).
        bandwidth_bytes_per_s=500_000 / 8,   # 0.5 Mbps
    )
    outcome = run_benchmark_query(pier, workload, strategy,
                                  s_selectivity=selectivity)
    return pier, outcome


def sweep():
    rows = []
    trajectory = []
    for selectivity in SELECTIVITIES:
        forced = {}
        forced_rows = {}
        for strategy in JoinStrategy.physical():
            pier, outcome = run_point(strategy, selectivity)
            forced[strategy.value] = outcome.latency.time_to_last
            forced_rows[strategy.value] = sorted(map(row_key, outcome.rows))
            rows.append({
                "selectivity_pct": int(selectivity * 100),
                "strategy": strategy.value,
                "results": outcome.result_count,
                "t_last_s": outcome.latency.time_to_last,
                "initiator_inbound_mb":
                    outcome.stats.inbound_bytes.get(0, 0) / 1e6,
            })

        pier, outcome = run_point(JoinStrategy.AUTO, selectivity)
        query = outcome.cursor.query
        report_obj = query.optimizer_report
        chosen = query.strategy.value
        t_auto = outcome.latency.time_to_last
        best = min(forced.values())
        rows.append({
            "selectivity_pct": int(selectivity * 100),
            "strategy": "auto",
            "results": outcome.result_count,
            "t_last_s": t_auto,
            "initiator_inbound_mb":
                outcome.stats.inbound_bytes.get(0, 0) / 1e6,
        })
        trajectory.append({
            "selectivity_pct": int(selectivity * 100),
            "chosen_strategy": chosen,
            "predicted_t_last_s": (
                round(report_obj.chosen_cost.completion_time_s, 3)
                if report_obj is not None else None
            ),
            "observed_t_last_s": t_auto,
            "best_forced_strategy": min(forced, key=forced.get),
            "best_forced_t_last_s": best,
            "forced_t_last_s": forced,
            "regret": round(t_auto / best - 1.0, 4) if best else 0.0,
            "rows_match_forced_choice": (
                sorted(map(row_key, outcome.rows)) == forced_rows[chosen]
            ),
        })
    _OPTIMIZER_DOC.clear()
    _OPTIMIZER_DOC.update({
        "name": "optimizer_trajectory",
        "nodes": scaled(64),
        "max_regret_threshold": MAX_REGRET,
        "points": trajectory,
    })
    BENCH_OPTIMIZER_PATH.write_text(
        json.dumps(_OPTIMIZER_DOC, indent=2) + "\n", encoding="utf-8"
    )
    return rows


def curve(rows, strategy):
    return {row["selectivity_pct"]: row["t_last_s"]
            for row in rows if row["strategy"] == strategy}


def test_fig5_time_vs_selectivity(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("fig5_time_vs_selectivity",
           "Figure 5: time to last result tuple vs. selectivity on S", rows,
           extra={"optimizer": _OPTIMIZER_DOC})

    shj = curve(rows, "symmetric_hash")
    semi = curve(rows, "symmetric_semi_join")
    bloom = curve(rows, "bloom")
    low, high = min(shj), max(shj)

    # Completion time grows with selectivity (more data and more results
    # must cross the bottleneck links); strategies whose work scales with
    # selectivity must grow strictly, and none may get meaningfully faster.
    assert shj[high] > shj[low]
    assert semi[high] > semi[low]
    for strategy_curve in (shj, semi, bloom):
        assert strategy_curve[high] > strategy_curve[low] * 0.9

    # At low selectivity the rewrites that move less data finish no later
    # than a small factor above symmetric hash despite their extra phases
    # being latency-bound rather than bandwidth-bound.
    assert bloom[low] < shj[low] * 4.0

    # At high selectivity the result stream to the query site dominates, so
    # the strategies converge: the spread between the fastest and slowest
    # shrinks relative to low selectivity.
    def spread(selectivity):
        values = [curve(rows, strategy.value)[selectivity]
                  for strategy in JoinStrategy.physical()]
        return max(values) / min(values)

    assert spread(high) <= spread(low) * 1.5

    # Cost-based AUTO planning: within the regret bound of the best forced
    # strategy at every point, and row-identical to its chosen strategy.
    for point in _OPTIMIZER_DOC["points"]:
        assert point["rows_match_forced_choice"], point
        assert point["regret"] <= MAX_REGRET, point


def main(argv=None):
    from bench_common import run_main
    run_main("fig5_time_vs_selectivity",
             "Figure 5: time to k-th result tuple vs. selectivity", sweep, argv,
             extra=lambda: {"optimizer": _OPTIMIZER_DOC})


if __name__ == "__main__":
    main()
