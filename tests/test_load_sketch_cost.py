"""The statistics fold of ``load_relation`` costs what the data costs.

Counts, not timings.  A publisher's partial holds a few dozen values per
column, so on a 64-node CAN fast load of the fig-3 relations: every sketch of
a publisher partial is a sparse map; the batch hash ``hash64_many`` is handed
each type-exactly distinct value per column per publisher once (not each
row); and the work done inside ``sketches/hll.py`` by the load and the first
read of every registry it fed (the fold of the parked partials) —
interpreter line events, which a loop over all ``2**log2m`` registers per
merge would multiply by the publisher count — doubles, and does not more than
double, when ``s_tuples_per_node`` doubles.
The same holds for the client-side load and fold of ``RemotePier``.
"""

from __future__ import annotations

import sys

import pytest

import repro.sketches.hll as hll_module
from repro.core.stats import STATS_HLL_LOG2M, STATS_NAMESPACE, RelationStats
from repro.remote import RemotePier
from tests.conftest import FakeGateway, build_pier, build_workload

NODES = 64
REGISTERS = 1 << STATS_HLL_LOG2M


class FoldCost:
    """Values hashed by ``hash64_many`` and line events in ``sketches/hll.py``."""

    def __init__(self):
        self.hashes = 0
        self.lines = 0

    def _hash64_many(self, values, seed):
        values = list(values)
        self.hashes += len(values)
        return self._original(values, seed)

    def _on_call(self, frame, event, arg):
        inside = frame.f_code.co_filename == hll_module.__file__
        return self._on_line if inside else None

    def _on_line(self, frame, event, arg):
        if event == "line":
            self.lines += 1
        return self._on_line

    def __enter__(self):
        self._original = hll_module.hash64_many
        hll_module.hash64_many = self._hash64_many
        self._previous = sys.gettrace()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc_info):
        sys.settrace(self._previous)
        hll_module.hash64_many = self._original


def type_exact_distinct(workload) -> int:
    """Σ over relations, publishers and columns of the distinct hash inputs."""
    total = 0
    for relation, by_node in ((workload.r_relation, workload.r_by_node),
                              (workload.s_relation, workload.s_by_node)):
        for rows in by_node.values():
            for column in relation.schema.column_names:
                total += len({(type(row.get(column)), row.get(column))
                              for row in rows})
    return total


def read_back(registries):
    """Read R and S from each registry (the deployment-wide one first): the
    parked partials fold here."""
    read = [registry.get(name) for registry in registries for name in "RS"]
    assert read[0] is not None and read[1] is not None


def sim_load(s_tuples_per_node):
    pier = build_pier(NODES)
    workload = build_workload(NODES, s_tuples_per_node=s_tuples_per_node)
    registries = [pier.relation_stats] + [executor.stats
                                          for executor in pier.executors.values()]
    with FoldCost() as cost:
        pier.load_relation(workload.r_relation, workload.r_by_node)
        pier.load_relation(workload.s_relation, workload.s_by_node)
        read_back(registries)
    partials = [item.value for provider in pier.providers.values()
                for item in provider.storage.scan(STATS_NAMESPACE, pier.now)]
    return workload, cost, partials


def remote_load(s_tuples_per_node):
    gateway = FakeGateway()
    pier = RemotePier(gateway)
    pier._connections.update({address: gateway for address in pier.endpoints})
    workload = build_workload(NODES, s_tuples_per_node=s_tuples_per_node)
    with FoldCost() as cost:
        loaded = (pier.load_relation(workload.r_relation, workload.r_by_node)
                  + pier.load_relation(workload.s_relation, workload.s_by_node))
        read_back([pier.relation_stats])
    partials = [item["value"] for item in gateway.stored
                if item["namespace"] == STATS_NAMESPACE]
    assert loaded == len(gateway.stored) - len(partials)
    return workload, cost, partials


@pytest.mark.parametrize("load", [sim_load, remote_load])
def test_the_fold_follows_the_data_not_the_register_count(load):
    workload, cost, partials = load(2)
    publishers = sum(1 for by_node in (workload.r_by_node, workload.s_by_node)
                     for rows in by_node.values() if rows)
    assert len(partials) == publishers > NODES
    sketches = [stats.hll for partial in partials
                for stats in partial.columns.values()]
    assert all(isinstance(partial, RelationStats) for partial in partials)
    assert sketches and not any(sketch._dense for sketch in sketches)
    assert cost.hashes == type_exact_distinct(workload)
    # One Python pass over the register file per column sketch — one merge
    # or one estimate the old way — would already execute more lines than the
    # whole fold does, every add included.
    assert cost.lines < len(sketches) * REGISTERS

    doubled_workload, doubled, doubled_partials = load(4)
    assert doubled.hashes == type_exact_distinct(doubled_workload)
    assert not any(stats.hll._dense for partial in doubled_partials
                   for stats in partial.columns.values())
    # Twice the S rows: at most twice the work (R, ten times larger, grows
    # with it; per-publisher overheads do not).
    assert cost.lines < doubled.lines <= 2 * cost.lines
    assert cost.hashes < doubled.hashes <= 2 * cost.hashes
