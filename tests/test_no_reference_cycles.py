"""A query leaves nothing behind that only the cyclic collector can free.

With the collector switched off, each step below — building and loading a
deployment, every join strategy, a join with GROUP BY, scan aggregations, a
LIMIT cancel and a continuous window — must leave ``gc.collect() == 0``:
every object a finished query made is freed by reference counting alone.
A cycle that holds per-query state is also a leak, so this is a leak check
as much as a collector-cost check.  On failure the message names the types
the collector found.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core.query import JoinStrategy
from tests.conftest import build_pier, build_workload, load_join_tables

JOIN_SQL = ("SELECT R.pkey, S.pkey FROM R, S "
            "WHERE R.num1 = S.pkey AND R.num2 > 20")
GROUPED_JOIN_SQL = ("SELECT R.num1, count(*) AS cnt, sum(S.num2) AS total "
                    "FROM R, S WHERE R.num1 = S.pkey "
                    "GROUP BY R.num1 HAVING cnt > 0")
SCAN_AGG_SQL = "SELECT R.num1, count(*) AS cnt FROM R GROUP BY R.num1"


@pytest.fixture
def collector_off():
    """Collector disabled; cyclic garbage is kept in ``gc.garbage`` to name."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def assert_no_cycles(step: str) -> None:
    found = gc.collect()
    leaked = Counter(type(obj).__qualname__ for obj in gc.garbage)
    gc.garbage.clear()
    assert found == 0, f"{step} left {found} cyclic objects: {leaked.most_common(12)}"


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_queries_leave_no_reference_cycles(collector_off, dht):
    pier = build_pier(16, dht=dht)
    workload = build_workload(16)
    load_join_tables(pier, workload)
    client = pier.client(catalog=workload.catalog())
    assert_no_cycles("build + load")

    for strategy in JoinStrategy:
        assert client.sql(JOIN_SQL, strategy=strategy).fetchall()
        assert_no_cycles(f"{strategy.value} join")

    assert client.sql(GROUPED_JOIN_SQL).fetchall()
    assert_no_cycles("join with GROUP BY")

    for hierarchical, distributed in ((False, True), (True, True),
                                      (False, False)):
        query = client.plan(SCAN_AGG_SQL, collection_window_s=1.0,
                            hierarchical_aggregation=hierarchical)
        query.distributed_aggregation = distributed
        assert client.query(query).fetchall()
        del query
        assert_no_cycles(f"scan aggregation (hierarchical={hierarchical}, "
                         f"distributed={distributed})")

    cursor = client.sql(JOIN_SQL, strategy=JoinStrategy.SYMMETRIC_HASH, limit=2)
    assert len(cursor.fetchall()) == 2 and cursor.cancelled
    assert_no_cycles("LIMIT cancel")

    monitor = client.continuous(SCAN_AGG_SQL, period_s=5.0,
                                collection_window_s=1.0)
    monitor.start(immediate=True)
    pier.run(until=pier.now + 3.0)
    monitor.stop()
    pier.run_until_idle()
    assert monitor.windows_executed == 1
    assert monitor.handles[0].final_rows()
    del monitor
    assert_no_cycles("continuous window")
