"""The per-row fast load: the reference ``PierNetwork.load_relation`` is held to.

Until the load went one pass per publisher this was the harness's fast path:
each publisher collected its statistics with a per-value sketch loop, stored
the partial at the statistics owner, and then derived one key, looked up one
owner and stored one item per row, handing each to the renewal agent as it
went.  It stays here because it is the shortest statement of what a fast
load leaves behind: the stored items in each owner's partitions and expiry
heap, the publishers' instanceIDs, the renewal records (with the owner each
item was placed at) and the partials' sketch bytes.  An owner is the one node
whose routing layer ``owns`` the key, so the builders' batched owner lookup
is checked too, and with it the owner a renewal round goes to.

Unlike today's loader it checks each publisher only when it reaches it, so a
rejected load could leave the earlier publishers' items stored.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.core.stats import (
    STATS_HLL_LOG2M,
    STATS_ITEM_BYTES,
    STATS_LIFETIME_S,
    STATS_NAMESPACE,
    ColumnStats,
    RelationStats,
    relation_stats_resource_id,
)
from repro.dht.naming import hash_key
from repro.dht.storage import StoredItem
from repro.exceptions import ExperimentError
from repro.sketches import HyperLogLog


def column_stats(values: Iterable[Any]) -> ColumnStats:
    """One column's statistics, one ``HyperLogLog.add`` per distinct value."""
    exact: Dict[Any, None] = {}
    for value in values:
        try:
            exact[type(value), value] = None
        except TypeError:
            continue  # unhashable values carry no distinct information
    low: Optional[float] = None
    high: Optional[float] = None
    hll = HyperLogLog(log2m=STATS_HLL_LOG2M)
    for _kind, value in exact:
        hll.add(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            low = value if low is None else min(low, value)
            high = value if high is None else max(high, value)
    return ColumnStats(distinct=len({value for _kind, value in exact}),
                       min_value=low, max_value=high, hll=hll)


def relation_stats(relation, rows: List[dict], at: float) -> RelationStats:
    """One publisher's partial, column by column."""
    return RelationStats(
        name=relation.name,
        cardinality=len(rows),
        total_bytes=len(rows) * (relation.tuple_bytes or 0),
        columns={column: column_stats(row.get(column) for row in rows)
                 for column in relation.schema.column_names},
        collected_at=at,
    )


def owner(pier, key: int) -> int:
    """The one node whose routing layer owns ``key``."""
    owners = [address for address, routing in pier.routings.items()
              if routing.owns(key)]
    assert len(owners) == 1, f"key {key} has owners {owners}"
    return owners[0]


def fast_load(pier, relation, rows_by_node: Dict[int, List[dict]],
              lifetime: float = 1e9, track_renewal: bool = False) -> int:
    """Fast-load ``rows_by_node`` into ``pier`` one row at a time."""
    loaded = 0
    for publisher, rows in rows_by_node.items():
        if publisher >= pier.num_nodes:
            raise ExperimentError(f"publisher address {publisher} outside "
                                  f"the {pier.num_nodes}-node network")
        provider = pier.providers[publisher]
        agent = pier.renewal_agents.get(publisher)
        if track_renewal and agent is None and rows:
            raise ExperimentError(
                "track_renewal=True requires start_renewal_agents() first")
        if rows:
            partial = relation_stats(relation, rows, pier.now)
            pier.relation_stats.merge_partial(partial)
            pier.executors[publisher].stats.merge_partial(partial)
            stats_rid = relation_stats_resource_id(relation.name)
            stats_key = hash_key(STATS_NAMESPACE, stats_rid)
            stats_instance = provider.next_instance_id()
            stats_owner = owner(pier, stats_key)
            pier.providers[stats_owner].storage.store(
                StoredItem(namespace=STATS_NAMESPACE, resource_id=stats_rid,
                           instance_id=stats_instance, value=partial,
                           key=stats_key,
                           expires_at=pier.now + STATS_LIFETIME_S,
                           stored_at=pier.now, publisher=publisher,
                           size_bytes=STATS_ITEM_BYTES))
            if track_renewal:
                agent.track(STATS_NAMESPACE, stats_rid, stats_instance,
                            partial, STATS_LIFETIME_S, STATS_ITEM_BYTES,
                            stats_owner)
        for row in rows:
            resource_id = relation.resource_id(row)
            key = hash_key(relation.namespace, resource_id)
            instance_id = provider.next_instance_id()
            row_owner = owner(pier, key)
            pier.providers[row_owner].storage.store(StoredItem(
                namespace=relation.namespace, resource_id=resource_id,
                instance_id=instance_id, value=row, key=key,
                expires_at=pier.now + lifetime, stored_at=pier.now,
                publisher=publisher, size_bytes=relation.tuple_bytes))
            if track_renewal:
                agent.track(relation.namespace, resource_id, instance_id,
                            row, lifetime, relation.tuple_bytes, row_owner)
            loaded += 1
    return loaded
