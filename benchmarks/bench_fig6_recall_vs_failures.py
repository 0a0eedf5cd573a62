"""Figure 6 through the **real executor** — recall vs. failure rate per strategy.

The Figure 6 driver: a :class:`repro.harness.ChurnConfig` deployment fails
nodes continuously while the Section 5.1 benchmark query runs through the
PierClient → opgraph → executor path under every join strategy (the four
physical algorithms plus ``AUTO``), and each answer is scored against the
dilated-reachable reference set (paper §3.3.1) at submission time.  The
companion ``bench_fig6_recall_soft_state.py`` sweeps the refresh period
over the same :func:`build_point` / :func:`run_point`.

What the sweep must show (asserted under pytest and by CI's churn-smoke job):

* at failure rate 0 every strategy returns **exactly** the reference rows
  (recall = precision = 1.0, identical-row equivalence);
* recall degrades smoothly as the failure rate rises but stays positive;
* **zero hung queries** — every query terminates with no pending gets and
  no leftover per-node state once the teardown flood settles.

Results are written to the committed ``BENCH_churn.json`` at the repository
root (plus the usual ``benchmarks/results`` artifacts).
"""

import json
from pathlib import Path

from bench_common import (
    bench_seed,
    is_smoke,
    node_axis,
    report,
    row_key,
    smoke_trim,
)
from repro.core.query import JoinStrategy
from repro.harness import ChurnConfig, PierNetwork, SimulationConfig
from repro.metrics.recall import recall_and_precision
from repro.workloads import JoinWorkload, WorkloadConfig

#: Committed churn-trajectory artifact.
BENCH_CHURN_PATH = Path(__file__).resolve().parent.parent / "BENCH_churn.json"

#: Fractions of the population failing per minute (the paper sweeps 0..~6 %).
FAILURE_FRACTIONS = (0.0, 0.02, 0.06)
#: The four physical algorithms plus the cost-based optimizer.
STRATEGIES = ("auto", "symmetric_hash", "fetch_matches",
              "symmetric_semi_join", "bloom")
#: Chord rides along at the sweep's endpoints (full runs only).
CHORD_FRACTIONS = (0.0, 0.06)

REFRESH_PERIOD_S = 30.0
#: Tuples live two refresh periods, so one missed renewal does not drop them.
DATA_LIFETIME_S = 2 * REFRESH_PERIOD_S
WARMUP_S = 20.0
#: Per-query horizon, an upper bound only: a cursor ends as soon as nothing
#: but background events (renewal agents, the failure injector) is pending.
QUERY_HORIZON_S = 45.0
#: Time allowed for the teardown flood to settle before leak accounting.
TEARDOWN_GRACE_S = 5.0
#: Idle time after each query at the default refresh period; it scales with
#: the refresh period (see :func:`run_point`).
QUERY_GAP_S = 10.0
QUERIES_PER_POINT = 2


def build_point(num_nodes: int, dht: str, fraction: float, seed: int,
                refresh_s: float = REFRESH_PERIOD_S):
    """One churn deployment with the workload loaded and renewal running
    every ``refresh_s``; data lives two refresh periods."""
    churn = ChurnConfig(
        failure_rate_per_min=fraction * num_nodes,
        seed=seed + int(fraction * 1000),
    )
    pier = PierNetwork(SimulationConfig(num_nodes=num_nodes, dht=dht,
                                        seed=seed, churn=churn))
    workload = JoinWorkload(WorkloadConfig(num_nodes=num_nodes,
                                           s_tuples_per_node=1, seed=seed))
    pier.start_renewal_agents(refresh_s)
    pier.load_relation(workload.r_relation, workload.r_by_node,
                       lifetime=2 * refresh_s, track_renewal=True)
    pier.load_relation(workload.s_relation, workload.s_by_node,
                       lifetime=2 * refresh_s, track_renewal=True)
    pier.run(until=pier.now + WARMUP_S)
    client = pier.client(catalog=workload.catalog())
    return pier, workload, client


def run_point(pier, workload, client, strategy_name: str,
              refresh_s: float = REFRESH_PERIOD_S) -> dict:
    """Run the benchmark query a few times under live churn; aggregate.

    ``refresh_s`` is the deployment's refresh period (as given to
    :func:`build_point`).  The gap after each query is
    ``QUERY_GAP_S * refresh_s / REFRESH_PERIOD_S``, so the queries span more
    than one refresh period and land at different phases of the renewal
    cycle: a point with a long refresh period sees the losses that pile up
    between its renewals.
    """
    gap_s = QUERY_GAP_S * refresh_s / REFRESH_PERIOD_S
    recalls, precisions = [], []
    hung_queries = leftover_states = 0
    gets_failed = fragments_lost = degraded_ops = 0
    rows_match_reference = True
    for _ in range(QUERIES_PER_POINT):
        live = pier.reachable_snapshot()
        expected = workload.expected_results(live_publishers=live)
        query = workload.make_query(strategy=JoinStrategy(strategy_name))
        cursor = client.query(query, timeout_s=QUERY_HORIZON_S)
        rows = cursor.fetchall()
        completeness = cursor.completeness()
        pier.run(until=pier.now + TEARDOWN_GRACE_S)
        pending_after = sum(provider.pending_get_count(query.query_id)
                            for provider in pier.providers.values())
        leftover_states += sum(
            1 for executor in pier.executors.values()
            if executor.has_query_state(query.query_id)
        )
        if pending_after > 0:
            hung_queries += 1
        gets_failed += completeness.gets_failed
        fragments_lost += completeness.fragments_lost
        degraded_ops += completeness.degraded_ops
        point_recall, point_precision = recall_and_precision(rows, expected)
        recalls.append(point_recall)
        precisions.append(point_precision)
        rows_match_reference = rows_match_reference and (
            sorted(map(row_key, rows)) == sorted(map(row_key, expected))
        )
        pier.run(until=pier.now + gap_s)
    return {
        "strategy": strategy_name,
        "avg_recall": round(sum(recalls) / len(recalls), 4),
        "min_recall": round(min(recalls), 4),
        "avg_precision": round(sum(precisions) / len(precisions), 4),
        "rows_match_reference": rows_match_reference,
        "hung_queries": hung_queries,
        "leftover_states": leftover_states,
        "gets_failed": gets_failed,
        "fragments_lost": fragments_lost,
        "degraded_ops": degraded_ops,
    }


def sweep():
    num_nodes = node_axis([48])[0]
    seed = bench_seed(5)
    series = [("can", smoke_trim(FAILURE_FRACTIONS, keep=2))]
    if not is_smoke():
        series.append(("chord", list(CHORD_FRACTIONS)))
    rows = []
    for dht, fractions in series:
        for fraction in fractions:
            pier, workload, client = build_point(num_nodes, dht, fraction, seed)
            for strategy_name in STRATEGIES:
                point = run_point(pier, workload, client, strategy_name)
                point.update({
                    "dht": dht,
                    "failure_pct_per_min": round(fraction * 100, 1),
                    "failures_per_min": round(fraction * num_nodes, 2),
                })
                rows.append(point)
    _write_root_artifact(rows, num_nodes, seed)
    return rows


def _write_root_artifact(rows, num_nodes: int, seed: int) -> None:
    """Write the committed ``BENCH_churn.json`` churn-trajectory point."""
    payload = {
        "figure": "fig6_real_executor",
        "title": "Recall vs. failure rate through the real executor "
                 "(dilated-reachable reference set)",
        "num_nodes": num_nodes,
        "seed": seed,
        "smoke": is_smoke(),
        "refresh_period_s": REFRESH_PERIOD_S,
        "data_lifetime_s": DATA_LIFETIME_S,
        "query_horizon_s": QUERY_HORIZON_S,
        "queries_per_point": QUERIES_PER_POINT,
        "points": rows,
    }
    BENCH_CHURN_PATH.write_text(json.dumps(payload, indent=2, default=str) + "\n",
                                encoding="utf-8")


def _points(rows, dht="can"):
    return [row for row in rows if row["dht"] == dht]


def test_fig6_recall_vs_failures(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("fig6_recall_vs_failures",
           "Figure 6 (real executor): recall vs. failure rate per strategy",
           rows)

    # Hard churn invariants: every query terminated cleanly everywhere.
    for row in rows:
        assert row["hung_queries"] == 0, row
        assert row["leftover_states"] == 0, row

    # Failure-free runs are exact for every strategy on both overlays.
    for row in rows:
        if row["failure_pct_per_min"] == 0.0:
            assert row["avg_recall"] == 1.0, row
            assert row["avg_precision"] == 1.0, row
            assert row["rows_match_reference"], row

    # Recall degrades with the failure rate but never collapses to zero:
    # answers degrade, they do not disappear (the paper's core claim).
    for row in rows:
        assert row["avg_recall"] > 0.0, row
    by_strategy = {}
    for row in _points(rows):
        by_strategy.setdefault(row["strategy"], []).append(
            (row["failure_pct_per_min"], row["avg_recall"])
        )
    for strategy, points in by_strategy.items():
        points.sort()
        # A small tolerance absorbs per-query sampling noise.
        assert points[-1][1] <= points[0][1] + 0.02, (strategy, points)


def main(argv=None):
    from bench_common import run_main
    run_main("fig6_recall_vs_failures",
             "Figure 6 (real executor): recall vs. failure rate per strategy",
             sweep, argv)


if __name__ == "__main__":
    main()
