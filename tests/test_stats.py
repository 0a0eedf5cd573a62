"""Unit tests for the statistics layer (core/stats.py)."""

import pytest

from repro.core.stats import (
    STATS_LIFETIME_S,
    STATS_NAMESPACE,
    ColumnStats,
    JoinObservation,
    RelationStats,
    StatsRegistry,
    join_observation_resource_id,
    join_signature,
)
from repro.core.tuples import Column, RelationDef, Schema
from tests.conftest import build_pier


def make_relation(name="T", tuple_bytes=100):
    return RelationDef(
        name,
        Schema([Column("id", "int"), Column("value", "float"),
                Column("label", "str")]),
        tuple_bytes=tuple_bytes,
    )


def rows_for(ids, values=None):
    return [
        {"id": i, "value": (values[k] if values else float(i)), "label": f"x{i}"}
        for k, i in enumerate(ids)
    ]


# -------------------------------------------------------------- column stats


def test_column_stats_from_values_tracks_distinct_and_bounds():
    stats = ColumnStats.from_values([3, 1, 4, 1, 5, 9, 2, 6])
    assert stats.distinct == 7
    assert stats.min_value == 1 and stats.max_value == 9
    assert stats.width == 8


def test_column_stats_ignores_unhashable_and_non_numeric():
    stats = ColumnStats.from_values(["a", "b", "a", ["unhashable"]])
    assert stats.distinct == 2
    assert stats.min_value is None and stats.width is None


def test_column_stats_merge_caps_distinct_at_integer_domain():
    left = ColumnStats.from_values([0, 1, 2, 3])
    right = ColumnStats.from_values([2, 3, 4, 5])
    merged = left.merge(right)
    # Sum (8) overcounts the overlap; the 0..5 integer domain caps it at 6.
    assert merged.distinct == 6
    assert merged.min_value == 0 and merged.max_value == 5


def test_column_stats_merge_unions_overlapping_string_domains():
    """String domains have no min/max cap, so pre-HLL merges double-counted
    any overlap.  The HLL union sees through it: 50 + 50 values sharing 25
    must merge to ~75 distinct, not 100."""
    left = ColumnStats.from_values([f"v{i}" for i in range(50)])
    right = ColumnStats.from_values([f"v{i}" for i in range(25, 75)])
    merged = left.merge(right)
    assert merged.hll is not None
    assert max(left.distinct, right.distinct) <= merged.distinct <= 82
    assert abs(merged.distinct - 75) <= 7


def test_column_stats_merge_without_hll_falls_back_to_sum():
    """Partials published by pre-sketch nodes carry no HLL; merging with
    them keeps the legacy sum-of-distincts behaviour."""
    legacy = ColumnStats(distinct=10)
    fresh = ColumnStats.from_values([f"v{i}" for i in range(20)])
    merged = legacy.merge(fresh)
    assert merged.distinct == 30
    assert merged.hll is None
    merged_other_way = fresh.merge(legacy)
    assert merged_other_way.distinct == 30
    assert merged_other_way.hll is None


# ------------------------------------------------------------ relation stats


def test_relation_stats_from_rows():
    relation = make_relation(tuple_bytes=50)
    stats = RelationStats.from_rows(relation, rows_for(range(10)), at=3.0)
    assert stats.cardinality == 10
    assert stats.total_bytes == 500
    assert stats.avg_tuple_bytes == 50
    assert stats.distinct("id") == 10
    assert stats.column("T.id") is stats.column("id")  # qualified fallback
    assert stats.collected_at == 3.0


def test_relation_stats_merge_combines_partials():
    relation = make_relation()
    first = RelationStats.from_rows(relation, rows_for(range(5)))
    second = RelationStats.from_rows(relation, rows_for(range(5, 12)))
    merged = first.merge(second)
    assert merged.cardinality == 12
    assert merged.distinct("id") == 12
    assert merged.column("id").max_value == 11


# ---------------------------------------------------------------- registry


def test_registry_merge_partial_accumulates():
    registry = StatsRegistry()
    relation = make_relation()
    registry.merge_partial(RelationStats.from_rows(relation, rows_for(range(4))))
    registry.merge_partial(RelationStats.from_rows(relation, rows_for(range(4, 10))))
    stats = registry.get("T")
    assert stats.cardinality == 10
    assert registry.relation_names() == ["T"]


def test_registry_install_replaces():
    registry = StatsRegistry()
    relation = make_relation()
    registry.merge_partial(RelationStats.from_rows(relation, rows_for(range(4))))
    registry.install(RelationStats(name="T", cardinality=99))
    assert registry.get("T").cardinality == 99


def test_registry_observe_join_blends():
    registry = StatsRegistry()
    sig = join_signature("R", "num1", "S", "pkey")
    registry.observe_join(sig, 0.4, result_rows=10, at=1.0)
    assert registry.join_selectivity(sig) == pytest.approx(0.4)
    registry.observe_join(sig, 0.0, result_rows=0, at=2.0)
    # EMA: one zero observation halves the estimate instead of erasing it.
    assert registry.join_selectivity(sig) == pytest.approx(0.2)


def test_registry_observe_scan_keeps_max_in_side_table():
    registry = StatsRegistry()
    registry.observe_scan("T", 10, at=1.0)
    registry.observe_scan("T", 4, at=2.0)
    # Scan observations are per-node, post-predicate floors: they never
    # masquerade as real relation statistics...
    assert registry.get("T") is None
    assert registry.observed_scan("T").cardinality == 10
    # ... but serve as the last-resort estimate when nothing better exists.
    assert registry.best_estimate("T").cardinality == 10
    registry.install(RelationStats(name="T", cardinality=500))
    assert registry.best_estimate("T").cardinality == 500


def test_join_signature_is_order_independent():
    assert (join_signature("R", "a", "S", "b")
            == join_signature("S", "b", "R", "a"))


# ------------------------------------------------------- DHT publication path


def fetch(pier, node, name):
    """What ``node``'s own registry fetches of ``name`` from the DHT."""
    fetched = []
    pier.executor(node).stats.fetch_relation(pier.provider(node), name,
                                             fetched.append)
    pier.run_until_idle()
    assert len(fetched) == 1
    return fetched[0]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_fetch_merges_the_partials_two_loads_published(dht):
    """A node that published nothing fetches both publishers' partials:
    cardinalities add and distinct counts are the sketches' union (the
    publishers share three labels, which a sum would count twice)."""
    pier = build_pier(8, dht=dht)
    relation = make_relation()
    rows_by_node = {1: rows_for(range(6)), 2: rows_for(range(3, 10))}
    pier.load_relation(relation, rows_by_node)
    first, second = (RelationStats.from_rows(relation, rows)
                     for rows in rows_by_node.values())
    union = first.columns["label"].hll.copy()
    union.merge(second.columns["label"].hll)

    assert pier.executor(5).stats.get("T") is None
    fetched = fetch(pier, 5, "T")
    assert fetched.cardinality == 13
    assert fetched.total_bytes == 1300
    label = fetched.column("label")
    assert label.hll.to_payload() == union.to_payload()
    assert label.distinct == round(union.estimate()) == 10
    assert fetched.distinct("id") == 10
    assert pier.executor(5).stats.get("T") is fetched


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_loaded_partials_expire_without_a_renewal_agent(dht):
    pier = build_pier(8, dht=dht)
    pier.load_relation(make_relation(), {1: rows_for(range(6))})
    pier.run(until=pier.now + STATS_LIFETIME_S - 1.0)
    assert fetch(pier, 5, "T").cardinality == 6
    pier.run(until=pier.now + 2.0)
    assert fetch(pier, 5, "T") is None


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_renewed_partials_outlive_their_lifetime_without_duplicating(dht):
    """The renewal agents re-put each loaded partial under its instanceID:
    past two lifetimes each publisher still has one stored partial and the
    fetch counts every row once."""
    pier = build_pier(8, dht=dht)
    pier.start_renewal_agents(STATS_LIFETIME_S / 3)
    pier.load_relation(make_relation(),
                       {1: rows_for(range(6)), 2: rows_for(range(3, 10))},
                       track_renewal=True)
    pier.run(until=pier.now + 2.5 * STATS_LIFETIME_S)
    partials = [item.value for provider in pier.providers.values()
                for item in provider.lscan(STATS_NAMESPACE)]
    assert sorted(partial.cardinality for partial in partials) == [6, 7]
    fetched = []  # renewal timers never let the network idle: run a while
    pier.executor(5).stats.fetch_relation(pier.provider(5), "T", fetched.append)
    pier.run(until=pier.now + 60.0)
    assert [stats.cardinality for stats in fetched] == [13]


def test_join_observation_publish_and_fetch():
    pier = build_pier(8)
    sig = join_signature("R", "num1", "S", "pkey")
    registry = StatsRegistry()
    registry.observe_join(sig, 0.25, result_rows=40, at=pier.now)
    assert registry.publish_join_observation(pier.provider(0), sig)
    pier.run_until_idle()

    remote = StatsRegistry()
    fetched = []
    remote.fetch_join_observation(pier.provider(3), sig, fetched.append)
    pier.run_until_idle()
    assert fetched and isinstance(fetched[0], JoinObservation)
    assert remote.join_selectivity(sig) == pytest.approx(0.25)


def test_republished_join_observation_replaces_its_item():
    """A second publication of a signature reuses the first's instanceID:
    its owner holds one item, the blended observation."""
    pier = build_pier(8)
    sig = join_signature("R", "num1", "S", "pkey")
    registry = StatsRegistry()
    registry.observe_join(sig, 0.25, result_rows=40, at=pier.now)
    assert registry.publish_join_observation(pier.provider(0), sig)
    pier.run_until_idle()
    blended = registry.observe_join(sig, 0.75, result_rows=120, at=pier.now)
    assert registry.publish_join_observation(pier.provider(0), sig)
    pier.run_until_idle()

    owner = pier.owner_of(STATS_NAMESPACE, join_observation_resource_id(sig))
    items = list(pier.provider(owner).lscan(STATS_NAMESPACE))
    assert [item.value for item in items] == [blended]
    assert 0.25 < blended.selectivity < 0.75


def test_load_relation_publishes_partials_into_stats_namespace():
    from tests.conftest import build_workload, load_join_tables

    pier = build_pier(8)
    workload = build_workload(8)
    load_join_tables(pier, workload)

    # Ground-truth registry matches the loaded volumes.
    assert pier.relation_stats.get("R").cardinality == workload.config.total_r_tuples
    assert pier.relation_stats.get("S").cardinality == workload.config.total_s_tuples

    # Any node can fetch and merge the published partials.
    registry = StatsRegistry()
    fetched = []
    registry.fetch_relation(pier.provider(4), "R", fetched.append)
    pier.run_until_idle()
    assert fetched[0] is not None
    assert fetched[0].cardinality == workload.config.total_r_tuples
    assert fetched[0].avg_tuple_bytes == pytest.approx(
        workload.config.r_tuple_bytes
    )
