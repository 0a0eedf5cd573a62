"""End-to-end tests for strategy=AUTO planning, feedback and re-optimization."""

import pytest

from repro.core import costmodel
from repro.core.query import JoinStrategy
from repro.core.stats import STATS_NAMESPACE, ColumnStats, RelationStats
from tests.conftest import build_pier, build_workload, load_join_tables


def client_setup(num_nodes=12, **workload_overrides):
    workload = build_workload(num_nodes, **workload_overrides)
    pier = build_pier(num_nodes)
    load_join_tables(pier, workload)
    return pier, workload, pier.client(catalog=workload.catalog())


# ------------------------------------------------------------ AUTO planning


def test_auto_resolves_to_physical_strategy_and_matches_forced_rows():
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text())  # AUTO is the client default
    auto_rows = cursor.fetchall()
    chosen = cursor.query.strategy
    assert chosen in JoinStrategy.physical()
    assert cursor.query.optimizer_report is not None

    forced_pier, forced_workload, forced_client = client_setup(12)
    forced = forced_client.sql(forced_workload.sql_text(), strategy=chosen)
    forced_rows = forced.fetchall()

    def key(row):
        return tuple(sorted(row.items()))

    assert sorted(map(key, auto_rows)) == sorted(map(key, forced_rows))
    assert len(auto_rows) == len(workload.expected_results())


def test_auto_planning_uses_dht_published_stats():
    pier, workload, client = client_setup(12)
    query = client.plan(workload.sql_text())
    stats = query.stats_map
    assert stats is not None
    # Fetched-and-merged global view matches the loaded data volumes.
    assert stats["R"].cardinality == workload.config.total_r_tuples
    assert stats["S"].cardinality == workload.config.total_s_tuples
    assert query.topology.num_nodes == pier.num_nodes


def test_forced_strategy_is_respected():
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text(),
                        strategy=JoinStrategy.SYMMETRIC_SEMI_JOIN)
    assert cursor.query.strategy is JoinStrategy.SYMMETRIC_SEMI_JOIN
    assert len(cursor.fetchall()) == len(workload.expected_results())


def test_auto_sizes_bloom_from_stats_when_bloom_chosen():
    """When the optimizer picks Bloom, the filter is sized for the inputs."""
    pier, workload, client = client_setup(12)
    query = client.plan(workload.sql_text())
    report = query.optimizer_report
    bloom_cost = report.cost_for(JoinStrategy.BLOOM)
    assert bloom_cost is not None  # candidate was enumerated and costed
    if query.strategy is JoinStrategy.BLOOM:
        assert query.bloom_bits == report.bloom_bits


# ---------------------------------------------------------------- EXPLAIN


def test_explain_renders_estimates_and_candidates():
    pier, workload, client = client_setup(12)
    text = client.explain(workload.sql_text())
    assert "~rows=" in text
    assert "estimated: time" in text
    assert "optimizer: chose" in text
    # Every feasible candidate's total appears (winner plus losers).
    for strategy in JoinStrategy.physical():
        assert strategy.value in text


def test_explain_annotates_forced_strategies_too():
    pier, workload, client = client_setup(12)
    text = client.explain(workload.sql_text(), strategy=JoinStrategy.BLOOM)
    assert "bloom join" in text
    assert "~rows=" in text
    assert "optimizer: chose" not in text  # no AUTO resolution happened


# ---------------------------------------------------------------- feedback


def test_query_finish_records_and_publishes_observed_selectivity():
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text())
    cursor.fetchall()
    signature = costmodel.query_join_signature(cursor.query)

    observed = client.stats.join_selectivity(signature)
    assert observed is not None and observed > 0

    # The observation also reached the __pier_stats__ namespace.
    pier.run_until_idle()
    from repro.core.stats import join_observation_resource_id

    owner = pier.owner_of(STATS_NAMESPACE,
                          join_observation_resource_id(signature))
    values = [item.value for item in
              pier.provider(owner).lscan(STATS_NAMESPACE)
              if item.resource_id == join_observation_resource_id(signature)]
    assert values and values[0].selectivity == pytest.approx(observed)


def test_participants_record_observed_scan_cardinalities():
    pier, workload, client = client_setup(8)
    cursor = client.sql(workload.sql_text())
    cursor.fetchall()
    pier.run_until_idle()
    # After teardown, nodes folded their local scan counts into their
    # registries (at least one node scanned some R rows).  The counts live
    # in the side table, never overwriting real relation statistics.
    recorded = [
        pier.executor(address).stats.observed_scan("R")
        for address in range(pier.num_nodes)
    ]
    assert any(stats is not None and stats.cardinality > 0
               for stats in recorded)


def test_second_query_plans_with_observed_feedback():
    pier, workload, client = client_setup(12)
    client.sql(workload.sql_text()).fetchall()
    query = client.plan(workload.sql_text())
    assert query.join_selectivity_hint is not None
    assert query.optimizer_report.observed_join_selectivity == pytest.approx(
        query.join_selectivity_hint
    )


def test_truncated_queries_record_no_feedback():
    """LIMIT/timeout/cancel truncation must not publish a fake selectivity."""
    pier, workload, client = client_setup(12)
    signature_holder = []

    cursor = client.sql(workload.sql_text(), limit=1)
    cursor.fetchall()
    signature_holder.append(costmodel.query_join_signature(cursor.query))
    assert cursor.cancelled  # LIMIT cut the dataflow short
    assert client.stats.join_selectivity(signature_holder[0]) is None

    cancelled = client.sql(workload.sql_text())
    cancelled.cancel()
    assert client.stats.join_selectivity(signature_holder[0]) is None

    # A completed run afterwards does record.
    client.sql(workload.sql_text()).fetchall()
    assert client.stats.join_selectivity(signature_holder[0]) is not None


def test_forced_queries_without_stats_basis_record_no_feedback():
    """A forced A/B run has no stats-normalisation basis; publishing a
    selectivity computed against default cardinalities would poison the
    hint AUTO planning reads."""
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text(),
                        strategy=JoinStrategy.SYMMETRIC_HASH)
    cursor.fetchall()
    signature = costmodel.query_join_signature(cursor.query)
    assert client.stats.join_selectivity(signature) is None


# ------------------------------------------------- continuous re-optimization


def test_continuous_reoptimizes_each_window_and_flips_on_drift():
    pier, workload, client = client_setup(16)
    monitor = client.continuous(workload.sql_text(), period_s=30.0)
    strategies = []
    monitor.on_window = lambda handle: strategies.append(handle.query.strategy)

    monitor.start(immediate=True)
    assert monitor.query_template.strategy is JoinStrategy.AUTO  # unresolved
    pier.run(until=10.0)
    assert len(strategies) == 1
    first = strategies[0]
    assert first in JoinStrategy.physical()

    # Drift: pretend R exploded while S stayed tiny — rehashing the full R
    # input becomes prohibitive, while fetching the small hashed S side per
    # scanned row stays cheap, so a data-lighter plan must take over next
    # window.
    client.stats.install(RelationStats(
        name="R", cardinality=1_000_000, total_bytes=1_000_000 * 1040,
        columns={"num1": ColumnStats(distinct=1_000_000, min_value=0,
                                     max_value=999_999)},
    ))
    client.stats.install(RelationStats(
        name="S", cardinality=1000, total_bytes=1000 * 40,
        columns={"pkey": ColumnStats(distinct=1000, min_value=0,
                                     max_value=999)},
    ))
    pier.run(until=40.0)
    monitor.stop()
    pier.run_until_idle()

    assert len(strategies) >= 2
    assert strategies[1] is not first, strategies
    assert strategies[1] in JoinStrategy.physical()


def test_continuous_forced_strategy_not_reoptimized():
    pier, workload, client = client_setup(8)
    monitor = client.continuous(workload.sql_text(), period_s=30.0,
                                strategy=JoinStrategy.BLOOM)
    assert monitor.prepare_window is None
    monitor.start(immediate=True)
    pier.run(until=5.0)
    monitor.stop()
    pier.run_until_idle()
    assert monitor.handles[0].query.strategy is JoinStrategy.BLOOM
