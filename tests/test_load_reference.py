"""The one-pass fast load leaves exactly what the per-row load did.

``PierNetwork.load_relation(fast=True)`` and ``tests/reference/load.py`` load
the same relations into two fresh deployments; on CAN and Chord, with and
without renewal tracking, every storage manager must then hold the same
partitions with their items in order, the same expiry heap (so the same pop
order), the same instanceID counters and renewal records — each naming the
owner whose routing layer ``owns`` its key — and partials whose sketches
serialise to the same bytes.
"""

from __future__ import annotations

import pytest

from repro.core.stats import STATS_NAMESPACE, RelationStats
from repro.harness import PierNetwork
from tests.conftest import build_pier, build_workload
from tests.reference import load as reference

NODES = 32


def comparable(value):
    """A stored value, with a partial reduced to its fields and sketch bytes."""
    if not isinstance(value, RelationStats):
        return value
    return (value.name, value.cardinality, value.total_bytes,
            value.collected_at,
            [(column, stats.distinct, stats.min_value, stats.max_value,
              stats.hll.to_payload())
             for column, stats in value.columns.items()])


def item_fields(item):
    return (item.namespace, item.resource_id, item.instance_id,
            comparable(item.value), item.key, item.expires_at,
            item.stored_at, item.publisher, item.size_bytes)


def snapshot(pier):
    """Everything a load can leave behind, per node, in stored order."""
    nodes = []
    for address, provider in pier.providers.items():
        storage = provider.storage
        partitions = [
            (namespace, [(key, item_fields(item))
                         for key, item in partition.items.items()],
             [(resource_id, list(bucket))
              for resource_id, bucket in partition.buckets.items()])
            for namespace, partition in storage._partitions.items()]
        heap = [(expires_at, seq, partition.namespace, key)
                for expires_at, seq, partition, key in storage._expiry_heap]
        agent = pier.renewal_agents.get(address)
        records = [] if agent is None else [
            (key, record.lifetime, record.size_bytes, record.owner,
             comparable(record.value))
            for key, record in agent.records.items()]
        nodes.append((address, partitions, heap, storage._heap_stale,
                      next(provider._instance_ids), records))
    return nodes


def load_both(dht, track_renewal):
    workload = build_workload(NODES)
    loads = [(workload.r_relation, workload.r_by_node, 1e9),
             (workload.s_relation, workload.s_by_node, 120.0),
             # A second publication of R later on, expiring first: a heap
             # whose pop order is not its push order.
             (workload.r_relation, workload.r_by_node, 60.0)]
    piers = []
    for loader in (PierNetwork.load_relation, reference.fast_load):
        pier = build_pier(NODES, dht=dht)
        if track_renewal:
            pier.start_renewal_agents(30.0)
        loaded = []
        for step, (relation, by_node, lifetime) in enumerate(loads):
            pier.run(until=7.5 * step)
            loaded.append(loader(pier, relation, by_node, lifetime=lifetime,
                                 track_renewal=track_renewal))
        piers.append((pier, loaded))
    return piers


@pytest.mark.parametrize("track_renewal", [False, True])
@pytest.mark.parametrize("dht", ["can", "chord"])
def test_fast_load_matches_the_per_row_reference(dht, track_renewal):
    (pier, loaded), (expected, expected_loaded) = load_both(dht, track_renewal)
    assert loaded == expected_loaded
    assert snapshot(pier) == snapshot(expected)
    partials = [item.value for provider in pier.providers.values()
                for item in provider.storage.scan(STATS_NAMESPACE, pier.now)]
    assert len(partials) > NODES  # every publisher of R twice, and of S
    if track_renewal:
        assert all(agent.records for agent in pier.renewal_agents.values())
        assert all(record.owner is not None
                   for agent in pier.renewal_agents.values()
                   for record in agent.records.values())
    for name in ("R", "S"):
        for registry, reference_registry in (
                [(pier.relation_stats, expected.relation_stats)]
                + [(pier.executors[a].stats, expected.executors[a].stats)
                   for a in pier.executors]):
            got, want = registry.get(name), reference_registry.get(name)
            assert (got is None) == (want is None)
            if got is not None:
                assert comparable(got) == comparable(want)
