"""Idle means "no foreground work pending", and every executor reaps and
falls back.

Periodic timers, the executors' per-state reapers and churn's failure
injection are background events: a simulated deployment whose renewal
agents run forever still goes idle, so its cursors end when their query's
work is done.  Every executor arms the reaper and the Bloom-gate fallback,
failure-free deployments included: a node cut off from a teardown drops the
state at its soft-state deadline, and a gate whose summary never arrives
rehashes unfiltered.
"""

from repro.core import costmodel
from repro.core.executor import QUERY_NAMESPACE, QueryExecutor
from repro.core.opgraph import build_opgraph
from repro.core.query import JoinStrategy, QueryTeardown
from tests.conftest import build_pier, build_workload, load_join_tables

NUM_NODES = 12


def withhold(pier, address, drop):
    """Node ``address`` no longer sees the multicast entries ``drop(namespace,
    item)`` picks; the flood still passes through it to everyone else."""
    service = pier.provider(address).multicast_service
    deliver = service._deliver

    def filtered(envelope):
        entries = [entry for entry in envelope["entries"]
                   if not drop(entry["namespace"], entry["item"])]
        if entries:
            deliver({**envelope, "entries": entries})

    service._deliver = filtered


def loaded(num_nodes=NUM_NODES):
    pier = build_pier(num_nodes)
    workload = build_workload(num_nodes)
    load_join_tables(pier, workload)
    return pier, workload


def fallback_delay_s(query):
    """The delay every Bloom gate of ``query`` arms its fallback at."""
    (delay,) = {node.params["fallback_delay_s"]
                for node in build_opgraph(query).nodes
                if "fallback_delay_s" in node.params}
    return delay


# ------------------------------------------------------------- Bloom gates


def test_a_bloom_summary_cancels_its_gate_fallback():
    """Failure-free, every summary arrives: no gate degrades, and the
    cursor returns before the fallbacks would have been due."""
    pier, workload = loaded()
    query = workload.make_query(strategy=JoinStrategy.BLOOM)
    cursor = pier.client().query(query)
    rows = cursor.fetchall()
    assert sorted(map(repr, rows)) == sorted(
        map(repr, workload.expected_results()))
    assert cursor.completeness().degraded_ops == 0
    assert cursor.completeness().complete
    due = cursor.handle.submitted_at + fallback_delay_s(query)
    assert pier.now < due
    assert pier.network.simulator.idle


def test_an_empty_join_side_ends_the_gates_without_a_fallback(monkeypatch):
    """Failure-free, S selects no row anywhere: its collector announces an
    empty summary, so R's gates cancel their fallbacks and never rehash R,
    and the empty answer is complete before the fallbacks' due time."""
    filtered_scans = []
    run_source_chain = QueryExecutor._run_source_chain

    def spy(self, query, state, scan_node, bloom_filter=None):
        if bloom_filter is not None:
            filtered_scans.append(scan_node.params["alias"])
        return run_source_chain(self, query, state, scan_node, bloom_filter)

    monkeypatch.setattr(QueryExecutor, "_run_source_chain", spy)
    pier, workload = loaded()
    query = workload.make_query(strategy=JoinStrategy.BLOOM, s_selectivity=0.0)
    cursor = pier.client().query(query)
    assert cursor.fetchall() == []
    assert cursor.completeness().degraded_ops == 0
    assert cursor.completeness().complete
    assert not cursor.timed_out
    assert pier.now < cursor.handle.submitted_at + fallback_delay_s(query)
    assert query.aliases == ["R", "S"]
    assert filtered_scans and set(filtered_scans) == {"S"}


def test_a_gate_whose_summary_never_arrives_rehashes_unfiltered():
    """One node never sees either summary: both its gates fall back at the
    delay, and the answer is still complete."""
    pier, workload = loaded()
    withhold(pier, 5, lambda namespace, item:
             namespace.startswith("__pier_bloomdist_"))
    query = workload.make_query(strategy=JoinStrategy.BLOOM)
    cursor = pier.client().query(query)
    rows = cursor.fetchall()
    assert sorted(map(repr, rows)) == sorted(
        map(repr, workload.expected_results()))
    assert cursor.completeness().degraded_ops == 2
    assert pier.now >= cursor.handle.submitted_at + fallback_delay_s(query)


# ------------------------------------------------------- cut-off teardowns


def test_a_node_cut_off_from_the_teardown_reaps_at_the_soft_state_deadline():
    """Failure-free: the reaper (a background timer) drops the state of a
    node that missed the teardown at ``temp_lifetime_s + 1`` after the
    query arrived there, with no later query to trigger the lazy expiry."""
    pier, workload = loaded()
    withhold(pier, 3, lambda namespace, item:
             namespace == QUERY_NAMESPACE and isinstance(item, QueryTeardown))
    query = workload.make_query(temp_lifetime_s=40.0)
    cursor = pier.client().query(query)
    assert len(cursor.fetchall()) == len(workload.expected_results())
    cut_off = pier.executor(3)
    assert cut_off.active_query_ids() == [query.query_id]
    assert [address for address, executor in pier.executors.items()
            if executor.has_query_state(query.query_id)] == [3]
    assert pier.network.simulator.idle  # the reaper does not hold the run
    reap_at = cut_off._states[query.query_id].arrived_at + (
        query.temp_lifetime_s + 1.0)
    pier.run(until=reap_at - 1e-6)
    assert cut_off.has_query_state(query.query_id)
    pier.run(until=reap_at)
    assert not cut_off.has_query_state(query.query_id)
    assert pier.network.simulator.pending_events == 0


# ------------------------------------------------------ periodic processes


def test_renewal_agents_hold_neither_a_load_nor_a_cursor():
    """Renewal agents run forever, as background timers: a put load returns,
    and a cursor ends when its query is done — not timed out, so the
    observed join selectivity is recorded."""
    pier = build_pier(NUM_NODES)
    workload = build_workload(NUM_NODES)
    pier.start_renewal_agents(30.0)
    for relation, by_node in ((workload.r_relation, workload.r_by_node),
                              (workload.s_relation, workload.s_by_node)):
        pier.load_relation(relation, by_node, lifetime=120.0, fast=False,
                           track_renewal=True)
    assert pier.now < 30.0  # no renewal period had to pass
    client = pier.client(catalog=workload.catalog())
    cursor = client.sql(workload.sql_text())
    signature = costmodel.query_join_signature(cursor.query)
    assert client.stats.join_selectivity(signature) is None
    rows = cursor.fetchall()
    assert len(rows) == len(workload.expected_results())
    assert not cursor.timed_out
    assert pier.now < cursor.handle.submitted_at + 30.0
    assert client.stats.join_selectivity(signature) is not None
    # The agents still renew when the deployment is driven on.
    renewals = pier.network.stats.protocol_messages.copy()
    pier.run(until=pier.now + 60.0)
    assert pier.network.stats.protocol_messages != renewals
