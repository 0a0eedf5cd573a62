"""Unit tests for the cost model / optimizer layer (core/costmodel.py)."""

import pytest

from repro.core import costmodel
from repro.core.costmodel import (
    TopologyParams,
    bloom_false_positive_rate,
    bloom_parameters,
    cost_graph,
    estimate_selectivity,
    optimize_query,
    resolve_auto_strategy,
)
from repro.core.expressions import And, Comparison, col, lit
from repro.core.opgraph import build_opgraph
from repro.core.query import JoinClause, JoinStrategy, QuerySpec, TableRef
from repro.core.stats import ColumnStats, RelationStats
from repro.core.tuples import Column, RelationDef, Schema


def relation(name, columns, tuple_bytes=None):
    return RelationDef(name, Schema([Column(*spec) for spec in columns]),
                       tuple_bytes=tuple_bytes)


def join_query(strategy=JoinStrategy.SYMMETRIC_HASH, **overrides):
    r = relation("R", [("pkey", "int"), ("num1", "int"), ("num2", "float"),
                       ("pad", "str", 1000)], tuple_bytes=1040)
    s = relation("S", [("pkey", "int"), ("num2", "float")], tuple_bytes=40)
    options = dict(
        tables=[TableRef(r, "R"), TableRef(s, "S")],
        output_columns=["R.pkey", "S.pkey", "R.pad"],
        join=JoinClause("R", "num1", "S", "pkey"),
        strategy=strategy,
    )
    options.update(overrides)
    return QuerySpec(**options)


def stats_for(query, r_card=1000, s_card=100):
    r_stats = RelationStats(
        name="R", cardinality=r_card, total_bytes=r_card * 1040,
        columns={
            "num1": ColumnStats(distinct=min(r_card, 2 * s_card), min_value=0,
                                max_value=2 * s_card - 1),
            "num2": ColumnStats(distinct=r_card, min_value=0.0, max_value=100.0),
        },
    )
    s_stats = RelationStats(
        name="S", cardinality=s_card, total_bytes=s_card * 40,
        columns={
            "pkey": ColumnStats(distinct=s_card, min_value=0, max_value=s_card - 1),
            "num2": ColumnStats(distinct=s_card, min_value=0.0, max_value=100.0),
        },
    )
    return {"R": r_stats, "S": s_stats}


# -------------------------------------------------------- selectivity model


def test_range_selectivity_from_min_max():
    stats = stats_for(join_query())["R"]
    assert estimate_selectivity(
        Comparison(">", col("num2"), lit(75.0)), stats
    ) == pytest.approx(0.25)
    assert estimate_selectivity(
        Comparison("<", col("num2"), lit(25.0)), stats
    ) == pytest.approx(0.25)
    # Out-of-range constants clamp to 0/1.
    assert estimate_selectivity(
        Comparison(">", col("num2"), lit(500.0)), stats) == 0.0
    assert estimate_selectivity(
        Comparison(">", col("num2"), lit(-5.0)), stats) == 1.0


def test_equality_selectivity_from_distinct():
    stats = stats_for(join_query(), s_card=50)["S"]
    assert estimate_selectivity(
        Comparison("=", col("pkey"), lit(7)), stats
    ) == pytest.approx(1.0 / 50)


def test_conjunction_multiplies_and_unknown_defaults():
    stats = stats_for(join_query())["R"]
    conjunction = And([
        Comparison(">", col("num2"), lit(50.0)),
        Comparison(">", col("num2"), lit(50.0)),
    ])
    assert estimate_selectivity(conjunction, stats) == pytest.approx(0.25)
    # Column-to-column comparisons are opaque.
    opaque = Comparison(">", col("num2"), col("pkey"))
    assert estimate_selectivity(opaque, stats) == costmodel.DEFAULT_SELECTIVITY
    assert estimate_selectivity(None, stats) == 1.0


def test_flipped_literal_side():
    stats = stats_for(join_query())["R"]
    assert estimate_selectivity(
        Comparison("<", lit(75.0), col("num2")), stats  # 75 < num2 == num2 > 75
    ) == pytest.approx(0.25)


# ------------------------------------------------------------- bloom sizing


def test_bloom_parameters_hit_target_fpr():
    bits, hashes = bloom_parameters(1000, target_fpr=0.03)
    fpr = bloom_false_positive_rate(bits, hashes, 1000)
    assert fpr < 0.05
    # More keys need more bits for the same target.
    bigger_bits, _ = bloom_parameters(10_000, target_fpr=0.03)
    assert bigger_bits > bits


def test_bloom_parameters_clamped():
    bits, hashes = bloom_parameters(1, target_fpr=0.03)
    assert bits >= costmodel.MIN_BLOOM_BITS
    assert 1 <= hashes <= 16


# ---------------------------------------------------------------- topology


def test_topology_params_from_config_and_lookup_hops():
    from repro.harness import SimulationConfig

    config = SimulationConfig(num_nodes=1024, dht="chord", latency_s=0.05)
    topo = TopologyParams.from_config(config)
    assert topo.num_nodes == 1024
    assert topo.lookup_hops() == pytest.approx(5.0)  # (1/2) log2 1024
    can = TopologyParams(num_nodes=1024, dht="can")
    assert can.lookup_hops() == pytest.approx(16.0)  # (2/4) * 32


def test_transfer_time_spreads_over_links():
    topo = TopologyParams(num_nodes=10, bandwidth_bytes_per_s=1000.0)
    assert topo.transfer_time(10_000) == pytest.approx(10.0)
    assert topo.transfer_time(10_000, parallel_links=10) == pytest.approx(1.0)
    assert TopologyParams(num_nodes=10).transfer_time(10_000) == 0.0


# ------------------------------------------------------------- graph costing


def test_cost_graph_annotates_every_operator():
    query = join_query()
    graph = build_opgraph(query)
    cost = cost_graph(graph, stats_map=stats_for(query),
                      topology=TopologyParams(num_nodes=64))
    assert set(cost.per_op) == {node.op_id for node in graph.nodes}
    assert cost.completion_time_s > 0
    assert cost.moved_bytes > 0


def test_cost_model_prefers_data_light_plans_when_bandwidth_bound():
    """With *both* inputs fat and slow links, the semi-join rewrite must win.

    Fetch Matches would ship the fat fetched side for every scanned row and
    symmetric hash rehashes a full input; at low join selectivity the
    rewrites that only move matching tuples are cheaper.
    """
    query = join_query(
        local_predicates={"S": Comparison(">", col("num2"), lit(95.0))},
    )
    stats = stats_for(query, r_card=5000, s_card=500)
    stats["S"].total_bytes = 500 * 1040  # fat S tuples, like R's
    slow = TopologyParams(num_nodes=64, hop_latency_s=0.02,
                          bandwidth_bytes_per_s=25_000.0)
    report = optimize_query(query, stats_map=stats, topology=slow)
    assert report.chosen in (JoinStrategy.SYMMETRIC_SEMI_JOIN,
                             JoinStrategy.BLOOM)
    # All four candidates were costed (S is hashed on its join key).
    assert {cost.strategy for cost in report.costs} == set(JoinStrategy.physical())


def test_cost_model_prefers_low_latency_plans_with_infinite_bandwidth():
    """With free bandwidth the Section 5.5.1 phase counts decide: SHJ wins."""
    query = join_query()
    report = optimize_query(query, stats_map=stats_for(query),
                            topology=TopologyParams(num_nodes=256))
    assert report.chosen is JoinStrategy.SYMMETRIC_HASH
    # Bloom pays two extra dissemination phases plus the collection window.
    bloom = report.cost_for(JoinStrategy.BLOOM)
    shj = report.cost_for(JoinStrategy.SYMMETRIC_HASH)
    assert bloom.completion_time_s > shj.completion_time_s


def test_fetch_matches_only_offered_when_feasible():
    query = join_query(join=JoinClause("R", "num1", "S", "num2"))
    report = optimize_query(query, stats_map=stats_for(query),
                            topology=TopologyParams(num_nodes=64))
    assert all(cost.strategy is not JoinStrategy.FETCH_MATCHES
               for cost in report.costs)


def test_observed_selectivity_overrides_distinct_estimate():
    query = join_query()
    stats = stats_for(query)
    topo = TopologyParams(num_nodes=64, bandwidth_bytes_per_s=100_000.0)
    base = optimize_query(query, stats_map=stats, topology=topo)
    observed = optimize_query(query, stats_map=stats, topology=topo,
                              observed_join_selectivity=1e-6)
    assert (observed.chosen_cost.result_rows
            < base.chosen_cost.result_rows)


# --------------------------------------------------------------- resolution


def test_resolve_auto_mutates_spec_and_sizes_bloom():
    query = join_query(strategy=JoinStrategy.AUTO)
    query.stats_map = stats_for(query)
    query.topology = TopologyParams(num_nodes=64)
    report = resolve_auto_strategy(query)
    assert query.strategy in JoinStrategy.physical()
    assert query.optimizer_report is report
    assert report.costs[0].strategy is query.strategy
    if query.strategy is JoinStrategy.BLOOM:
        assert query.bloom_bits == report.bloom_bits


def test_resolve_auto_without_context_uses_defaults():
    query = join_query(strategy=JoinStrategy.AUTO)
    resolve_auto_strategy(query)
    assert query.strategy in JoinStrategy.physical()


def test_build_opgraph_resolves_auto():
    query = join_query(strategy=JoinStrategy.AUTO)
    graph = build_opgraph(query)
    assert query.strategy in JoinStrategy.physical()
    assert graph.query is query


def test_non_join_auto_normalises():
    r = relation("R", [("pkey", "int"), ("num2", "float")])
    query = QuerySpec(tables=[TableRef(r, "R")], output_columns=["R.pkey"],
                      strategy=JoinStrategy.AUTO)
    build_opgraph(query)
    assert query.strategy is JoinStrategy.SYMMETRIC_HASH
