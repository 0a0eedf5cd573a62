"""Statistics partials fold when read, into what an eager fold built.

``StatsRegistry.merge_partial`` parks a partial; ``get``, ``best_estimate``
and ``relation_names`` fold the parked partials in arrival order, ``install``
drops them.  Interleaved sequences of those calls must read, column for
column, what a registry that merged every partial on arrival reads — on a
bare registry, on ``PierNetwork.relation_stats`` and the executors'
registries after a fast load, and on the ``RemotePier`` registry
``RemoteExecutor`` plans from.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import STATS_NAMESPACE, ColumnStats, RelationStats, StatsRegistry
from repro.remote import RemotePier
from tests.conftest import FakeGateway, build_pier, build_workload

WORKLOAD = build_workload(8)
PARTIALS = [RelationStats.from_rows(relation, rows, at=float(publisher))
            for relation, by_node in ((WORKLOAD.r_relation, WORKLOAD.r_by_node),
                                      (WORKLOAD.s_relation, WORKLOAD.s_by_node))
            for publisher, rows in by_node.items() if rows]
# Partials whose fold order shows: different column sets, sketchless
# columns, and bounds that tie across types (1 == 1.0).
PARTIALS += [
    RelationStats("T", 1, 10, {"x": ColumnStats(1, 1, 1)}, collected_at=3.0),
    RelationStats("T", 2, 20, {"y": ColumnStats(2, 0.5, 2.0),
                               "x": ColumnStats(1, 1.0, 1.0)}, collected_at=1.0),
    RelationStats("T", 4, 40, {"x": ColumnStats(3, 1, 3.0)}, collected_at=2.0),
]
NAMES = ["R", "S", "T"]


class EagerRegistry(StatsRegistry):
    """The registry as it was: each partial merged in on arrival."""

    def merge_partial(self, partial):
        existing = self._relations.get(partial.name)
        self._relations[partial.name] = (
            partial if existing is None else existing.merge(partial))


def view(stats):
    """Everything a planner reads of one relation's statistics."""
    if stats is None:
        return None
    return (stats.name, stats.cardinality, stats.total_bytes,
            stats.collected_at,
            [(column, column_stats.distinct,
              repr(column_stats.min_value), repr(column_stats.max_value),
              column_stats.hll and column_stats.hll.to_payload())
             for column, column_stats in stats.columns.items()])


def apply(registry, step):
    """Run one call on ``registry``; returns what it read."""
    call, argument = step
    if call == "merge":
        registry.merge_partial(PARTIALS[argument % len(PARTIALS)])
        return None
    name = NAMES[argument % len(NAMES)]
    if call == "install":
        registry.install(PARTIALS[argument % len(PARTIALS)].scaled(argument))
        return None
    if call == "get":
        return view(registry.get(name))
    if call == "best_estimate":
        return view(registry.best_estimate(name))
    return registry.relation_names()


steps = st.lists(st.tuples(
    st.sampled_from(["merge", "merge", "merge", "get", "best_estimate",
                     "relation_names", "install"]),
    st.integers(min_value=0, max_value=len(PARTIALS) * 3)), max_size=30)


@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_interleaved_calls_read_what_an_eager_fold_reads(steps):
    deferred, eager = StatsRegistry(), EagerRegistry()
    for step in steps:
        assert apply(deferred, step) == apply(eager, step), step
    for name in NAMES:
        assert view(deferred.get(name)) == view(eager.get(name))


def eager_fold(partials):
    registry = EagerRegistry()
    for partial in partials:
        registry.merge_partial(partial)
    return registry


LOADS = [(WORKLOAD.r_relation, WORKLOAD.r_by_node),
         (WORKLOAD.s_relation, WORKLOAD.s_by_node),
         (WORKLOAD.r_relation, WORKLOAD.r_by_node)]  # on top of a read view


def test_pier_registries_read_an_eager_fold():
    pier = build_pier(8)
    eager = EagerRegistry()
    eager_nodes = {address: EagerRegistry() for address in pier.executors}
    for relation, by_node in LOADS:
        pier.load_relation(relation, by_node)
        for publisher, rows in by_node.items():
            if rows:
                partial = RelationStats.from_rows(relation, rows, at=pier.now)
                eager.merge_partial(partial)
                eager_nodes[publisher].merge_partial(partial)
        for name in ("R", "S"):
            assert view(pier.relation_stats.get(name)) == view(eager.get(name))
            for address, registry in eager_nodes.items():
                assert (view(pier.executor(address).stats.best_estimate(name))
                        == view(registry.get(name)))
    assert pier.relation_stats.relation_names() == ["R", "S"]


def test_remote_registry_reads_an_eager_fold():
    gateway = FakeGateway()
    pier = RemotePier(gateway)
    pier._connections.update({address: gateway for address in pier.endpoints})
    planning = pier.executor(pier.gateway_address).stats
    assert planning is pier.relation_stats
    eager = EagerRegistry()
    for relation, by_node in LOADS:
        del gateway.stored[:]
        pier.load_relation(relation, by_node)
        for item in gateway.stored:
            if item["namespace"] == STATS_NAMESPACE:
                eager.merge_partial(item["value"])
        for name in ("R", "S"):
            assert view(planning.best_estimate(name)) == view(eager.get(name))
    assert planning.relation_names() == ["R", "S"]
