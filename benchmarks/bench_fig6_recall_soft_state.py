"""Figure 6 — average recall vs. failure rate for several refresh periods.

The paper fails nodes continuously (up to 240 failures/minute in a 4096-node
network, i.e. about 6 % of the nodes per minute), keeps tuples alive through
publisher renewal with refresh periods of 30/60/150/225 s, and reports the
average recall of the benchmark query against reachable-snapshot semantics.
The shape: recall decreases as the failure rate increases and increases as
the refresh period shrinks, staying in the 91–100 % band for the paper's
parameter range.

We run the same experiment at a reduced node count through the Figure 6
driver of ``bench_fig6_recall_vs_failures.py``: one
:class:`repro.harness.ChurnConfig` deployment per (refresh period, failure
rate) point, publishers renewing every refresh period and the benchmark
query running through PierClient cursors.  The failure rates are chosen to
cover the same *fraction of nodes failing per minute* as the paper's sweep,
and the analytic estimate of Section 5.6 is printed alongside.

Each point averages two queries whose spacing grows with the refresh period
(:func:`run_point`), so they span more than one renewal cycle.  At 48 nodes a
node failing while a query runs costs about as much recall as the losses
that pile up between renewals, so the 6 %/min column falls with the refresh
period on average over seeds, not necessarily in every run; the assertions
below hold the slowest refresh period to the fastest one.
"""

from bench_common import bench_seed, report, scaled, smoke_trim
from bench_fig6_recall_vs_failures import build_point, run_point
from repro.harness import analytical

REFRESH_PERIODS = (30.0, 60.0, 150.0)
#: Fractions of the population failing per minute (the paper sweeps 0..~6 %).
FAILURE_FRACTIONS = (0.0, 0.02, 0.06)


def recall_grid(num_nodes: int, seed: int):
    """Average recall of every (refresh period, failure rate) point."""
    rows = []
    for refresh in smoke_trim(REFRESH_PERIODS, keep=1):
        for fraction in smoke_trim(FAILURE_FRACTIONS, keep=2):
            failure_rate = fraction * num_nodes
            pier, workload, client = build_point(num_nodes, "can", fraction, seed,
                                                 refresh_s=refresh)
            point = run_point(pier, workload, client, "symmetric_hash",
                              refresh_s=refresh)
            rows.append({
                "refresh_s": refresh,
                "failure_pct_per_min": round(fraction * 100, 1),
                "paper_equiv_failures_per_min_at_4096": round(fraction * 4096),
                "avg_recall_pct": round(100 * point["avg_recall"], 2),
                "model_recall_pct": round(
                    100 * analytical.expected_recall(failure_rate, refresh, num_nodes), 2),
            })
    return rows


def sweep():
    return recall_grid(scaled(48), bench_seed(8))


def test_fig6_recall_soft_state(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("fig6_recall_soft_state",
           "Figure 6: average recall vs. failure rate and refresh period", rows)

    def recall_of(refresh, fraction_pct):
        for row in rows:
            if row["refresh_s"] == refresh and row["failure_pct_per_min"] == fraction_pct:
                return row["avg_recall_pct"]
        raise AssertionError("missing sweep point")

    # No failures -> perfect recall, for every refresh period.
    for refresh in REFRESH_PERIODS:
        assert recall_of(refresh, 0.0) == 100.0

    # Recall degrades as the failure rate rises (for the slowest refresh);
    # a small tolerance absorbs sampling noise from the two-query average.
    slowest = max(REFRESH_PERIODS)
    assert recall_of(slowest, 6.0) <= recall_of(slowest, 2.0) + 2.0
    assert recall_of(slowest, 6.0) < 100.0

    # At the highest failure rate, refreshing more often repairs losses
    # sooner and therefore yields at least as much recall.
    assert recall_of(30.0, 6.0) >= recall_of(slowest, 6.0) - 2.0

    # The band is wider than the paper's 91-100 % because at 48 nodes each
    # failure wipes ~2 % of all stored tuples and in-flight query state,
    # versus ~0.02 % per failure at the paper's 4096 nodes (see
    # EXPERIMENTS.md); the trends above are the reproduced shape.  Recall
    # must still stay well above chance even at the worst point.
    assert all(row["avg_recall_pct"] >= 50.0 for row in rows)


def main(argv=None):
    from bench_common import run_main
    run_main("fig6_recall_soft_state",
             "Figure 6: average recall vs. failure rate and refresh period",
             sweep, argv)


if __name__ == "__main__":
    main()
