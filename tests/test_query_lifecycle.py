"""Query lifecycle: teardown regression, LIMIT, timeouts, EXPLAIN, continuous.

Queries are long-lived dataflows with soft-state lifetimes.  These tests pin
the lifecycle contract introduced with the PierClient API: finishing or
cancelling a query releases *all* per-node state (executor bookkeeping,
``newData`` probes, multicast subscriptions, temporary fragments), stale
state is reaped lazily once its soft-state lifetime elapses, and the
initiator cursor enforces ``LIMIT`` and per-query timeouts by cancelling
the distributed dataflow.
"""

import sys
from pathlib import Path

import pytest

from repro import JoinStrategy
from repro.core.opgraph import bloom_distribution_namespace
from repro.exceptions import PlanError
from tests.conftest import build_pier, build_workload, load_join_tables

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_fig3_scaleup_full_mesh import run_one  # noqa: E402


def client_setup(num_nodes=12, **workload_overrides):
    workload = build_workload(num_nodes, **workload_overrides)
    pier = build_pier(num_nodes)
    load_join_tables(pier, workload)
    return pier, workload, pier.client(catalog=workload.catalog())


# ------------------------------------------------------------------ teardown


def test_completion_tears_down_every_nodes_state():
    """Regression: per-node query state used to leak after every query."""
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text(), strategy=JoinStrategy.BLOOM)
    rows = cursor.fetchall()
    assert len(rows) == len(workload.expected_results())

    query = cursor.query
    rehash = query.rehash_namespace()
    for address in range(pier.num_nodes):
        executor = pier.executor(address)
        provider = pier.provider(address)
        assert executor.active_query_ids() == []
        assert provider.new_data_callback_count(rehash) == 0
        assert provider.storage.count(rehash) == 0
        for alias in query.aliases:
            bloom_ns = query.bloom_namespace(alias)
            assert provider.storage.count(bloom_ns) == 0
            distribution = bloom_distribution_namespace(query, alias)
            assert provider.multicast_service.subscriber_count(distribution) == 0


def test_open_cursor_state_is_reaped_after_soft_state_lifetime():
    """The lazy sweep bounds long simulations even without explicit finish."""
    pier, workload, client = client_setup(8)
    query = workload.make_query(temp_lifetime_s=60.0)
    cursor = client.query(query)
    assert list(cursor)
    # A cursor that is never finished leaves the query's state in place...
    assert not cursor.closed
    assert any(pier.executor(a).has_query_state(query.query_id) for a in range(8))
    # ...until its soft-state lifetime elapses and a later query arrives.
    pier.run(until=pier.now + 61.0)
    follow_up = client.sql(workload.sql_text())
    follow_up.fetchall()
    for address in range(8):
        assert not pier.executor(address).has_query_state(query.query_id)


# --------------------------------------------------------------------- LIMIT


def test_sql_limit_caps_rows_and_cancels_the_dataflow():
    pier, workload, client = client_setup(16, s_tuples_per_node=3)
    expected = len(workload.expected_results())
    assert expected > 5
    cursor = client.sql(workload.sql_text() + " LIMIT 5")
    rows = cursor.fetchall()
    assert len(rows) == 5
    assert cursor.cancelled  # LIMIT satisfied -> dataflow cancelled
    pier.run_until_idle()
    assert cursor.result_count == 5
    for address in range(pier.num_nodes):
        assert pier.executor(address).active_query_ids() == []


def test_limit_cancel_pin():
    """A fixed-seed AUTO query with LIMIT: the statistics refresh and every
    cursor step are the deployment's ``wait``, and the cancel lands at the
    same virtual instant after the same events as when the cursor peeked at
    the simulator itself."""
    pier, workload, client = client_setup(16, s_tuples_per_node=3)
    query = client.plan(workload.sql_text() + " LIMIT 5")
    query.query_id = 4242  # ids name the rehash namespace
    assert query.strategy is JoinStrategy.SYMMETRIC_HASH
    cursor = client.query(query)
    assert len(cursor.fetch(5)) == 5 and cursor.cancelled
    # Re-recorded when CAN became a torus (1.5097248 s after 295 events,
    # idle at 2.2120512 s after 542 on the square): the rows come sooner,
    # but on the 4 x 4 torus keys bound for the antipodal row or column
    # split between the two ways round, so lookup batches split into more
    # replies and put chunks (162 -> 174 of each in the whole query), and
    # more of the rehash wave is delivered before the cancel.  Re-recorded
    # when relays began to forward one routed batch per next hop per
    # delivery group (1.2142688 s after 422 events, idle at 1.6149744 s
    # after 608): fewer lookup messages, so fewer deliveries, and the sends
    # a group defers to its end reorder the link queues by microseconds.
    # Re-recorded when a lookup began to end at the node whose routing table
    # names the owner (1.2141536 s after 422 events, idle at 1.61496 s after
    # 604): every rehash lookup is one 100 ms hop shorter, so the cancel and
    # the idle point each come 0.2 s sooner (the statistics fetch and the
    # rehash both route), after fewer routed batches and replies.
    # Re-recorded when a key's point became its own bit fields instead of a
    # salted re-hash (1.0137664 s after 270 events, idle at 1.4145728 s after
    # 445): placement moved, so the statistics fetch asks three owners one
    # 100 ms hop farther away (``prov.get_batch`` 1 -> 3) and ends at 0.60 s,
    # not 0.50 s, and the fifth row comes 0.09 s after the submit, not
    # 0.01 s, from other owners.
    assert pier.now == pytest.approx(1.2060768, rel=1e-12)
    assert pier.network.simulator.events_processed == 287
    assert cursor.completeness().nodes_with_state == 16
    pier.run_until_idle()
    assert pier.now == pytest.approx(1.6070848, rel=1e-12)
    assert pier.network.simulator.events_processed == 412


def test_limit_larger_than_result_returns_everything():
    pier, workload, client = client_setup(8)
    expected = len(workload.expected_results())
    cursor = client.sql(workload.sql_text() + f" LIMIT {expected + 50}")
    rows = cursor.fetchall()
    assert len(rows) == expected
    assert not cursor.cancelled


def test_limit_kwarg_overrides_statement():
    pier, workload, client = client_setup(12)
    cursor = client.sql(workload.sql_text() + " LIMIT 10", limit=2)
    assert len(cursor.fetchall()) == 2


def test_limit_applies_to_aggregated_groups():
    pier, workload, client = client_setup(12)
    sql = ("SELECT R.num1, count(*) AS cnt FROM R "
           "GROUP BY R.num1 LIMIT 3")
    rows = pier.client(catalog=workload.catalog()).sql(sql).fetchall()
    assert len(rows) == 3


def test_limit_on_initiator_aggregation_keeps_aggregates_exact():
    """Join + GROUP BY aggregates at the initiator over the streamed join
    rows; LIMIT must cap the finalised groups, not truncate their inputs."""
    sql_base = ("SELECT R.num1, count(*) AS cnt FROM R, S "
                "WHERE R.num1 = S.pkey GROUP BY R.num1")
    pier_a, workload, _ = client_setup(12)
    full = {row["R.num1"]: row["cnt"]
            for row in pier_a.client(catalog=workload.catalog()).sql(sql_base).fetchall()}
    assert len(full) > 2
    pier_b, workload_b, client_b = client_setup(12)
    limited = client_b.sql(sql_base + " LIMIT 2").fetchall()
    assert len(limited) == 2
    for row in limited:
        assert full[row["R.num1"]] == row["cnt"], "LIMIT truncated group inputs"


def test_sql_rejects_non_positive_limit_kwarg():
    pier, workload, client = client_setup(8)
    with pytest.raises(PlanError):
        client.sql(workload.sql_text(), limit=0)
    with pytest.raises(PlanError):
        client.sql(workload.sql_text(), limit=-5)


# ------------------------------------------------------------------- timeout


def test_per_query_timeout_cancels_and_clears_state():
    pier, workload, client = client_setup(16, s_tuples_per_node=3)
    cursor = client.sql(workload.sql_text(), timeout_s=0.5)
    rows = cursor.fetchall()  # drains the teardown flood before returning
    assert cursor.timed_out
    assert len(rows) < len(workload.expected_results())
    # Every delivered row arrived before the deadline cut the query short.
    assert all(t <= 0.5 for t in cursor.arrival_times())
    for address in range(pier.num_nodes):
        assert pier.executor(address).active_query_ids() == []


def test_timeout_not_flagged_when_query_completes_first():
    pier, workload, client = client_setup(8)
    cursor = client.sql(workload.sql_text(), timeout_s=1000.0)
    rows = cursor.fetchall()
    assert not cursor.timed_out
    assert len(rows) == len(workload.expected_results())
    assert pier.now < 1000.0  # the clock was not dragged to the deadline


def test_cursor_driving_is_bounded_on_never_idle_networks():
    """Foreground work that never ends (a one-shot timer that re-arms
    itself) keeps the deployment busy forever; the cursor must still
    terminate — at the query's own soft-state lifetime at the latest."""
    pier, workload, client = client_setup(8)
    node = pier.network.node(0)

    def busy():
        node.schedule(1.0, busy)

    busy()
    cursor = client.sql(workload.sql_text(), temp_lifetime_s=30.0)
    rows = list(cursor)  # fetchall would wait for idle, which never comes
    assert len(rows) == len(workload.expected_results())
    assert cursor.timed_out
    assert pier.now <= 31.0


# ------------------------------------------------------------------- EXPLAIN


@pytest.mark.parametrize("strategy, expected_ops", [
    (JoinStrategy.SYMMETRIC_HASH, ["Scan(R)", "Scan(S)", "RehashExchange",
                                   "Probe", "Sink"]),
    (JoinStrategy.FETCH_MATCHES, ["Scan(R)", "FetchMatches", "Sink"]),
    (JoinStrategy.SYMMETRIC_SEMI_JOIN, ["RehashExchange", "Probe", "PairFetch",
                                        "RejoinFilter", "Sink"]),
    (JoinStrategy.BLOOM, ["BloomBuild", "BloomCombine", "BloomGate",
                          "RehashExchange", "Probe", "Sink"]),
])
def test_explain_lists_physical_operators_per_strategy(strategy, expected_ops):
    pier, workload, client = client_setup(8)
    plan = client.explain(workload.sql_text(), strategy=strategy)
    for op in expected_ops:
        assert op in plan, f"{op} missing from {strategy} plan:\n{plan}"
    assert "ResidualFilter" in plan  # the f(R.num3, S.num3) residual


def test_explain_aggregation_plan():
    pier, workload, client = client_setup(8)
    plan = client.explain("SELECT R.num1, count(*) AS cnt FROM R GROUP BY R.num1")
    assert "PartialAgg" in plan and "FinalAgg" in plan and "Sink" in plan


def test_explain_does_not_execute_anything():
    pier, workload, client = client_setup(8)
    client.explain(workload.sql_text())
    assert pier.network.simulator.pending_events == 0
    for address in range(8):
        assert pier.executor(address).active_query_ids() == []


# ---------------------------------------------------------------- continuous


def test_client_continuous_tears_down_previous_windows():
    pier, workload, client = client_setup(8)
    monitor = client.continuous(
        "SELECT R.num1, count(*) AS cnt FROM R GROUP BY R.num1",
        period_s=30.0, collection_window_s=3.0,
    )
    monitor.start(immediate=True)
    pier.run(until=95.0)   # four windows submitted
    assert monitor.windows_executed == 4
    # Only the newest window may still hold state on any node.
    live_ids = {query_id
                for address in range(8)
                for query_id in pier.executor(address).active_query_ids()}
    newest = monitor.latest_handle().query.query_id
    assert live_ids <= {newest}
    monitor.stop()
    pier.run(until=100.0)
    for address in range(8):
        assert pier.executor(address).active_query_ids() == []


# ------------------------------------------------------------------ query ids


def test_a_run_does_not_depend_on_what_ran_before_it_in_the_process():
    """The executor that submits a query names it, so the fig-3
    symmetric-hash query on 32 nodes runs the same alone and after a
    16-node run (the id names the rehash namespace, so an id that depended
    on earlier runs would move every fragment)."""

    def simulated(row):
        return {key: value for key, value in row.items()
                if not key.startswith("wall_")}

    alone = simulated(run_one(32, None))
    run_one(16, None)
    assert simulated(run_one(32, None)) == alone
    # 1 213 before CAN became a torus; 1 148 before relays forwarded one
    # routed batch per next hop per delivery group; 1 147 before a lookup
    # ended at the node whose routing table names the owner; 899 before a
    # key's point became its own bit fields (placement moved: other owners,
    # other paths, the same 78 rows).
    assert alone["sim_events"] == 939
