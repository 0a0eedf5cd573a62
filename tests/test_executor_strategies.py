"""Integration tests: all four distributed join strategies produce the right answer."""

import sys

import pytest

from repro.core.query import JoinStrategy
from repro.metrics.recall import recall_and_precision
from repro.metrics.traffic import breakdown_traffic
from tests.conftest import build_pier, build_workload, load_join_tables
from tests.reference import row_multiset


def run_strategy(strategy, num_nodes=16, dht="can", initiator=0, s_selectivity=None,
                 **workload_overrides):
    workload = build_workload(num_nodes, **workload_overrides)
    pier = build_pier(num_nodes, dht=dht)
    load_join_tables(pier, workload)
    query = workload.make_query(strategy=strategy, s_selectivity=s_selectivity)
    cursor = pier.client(node=initiator).query(query)
    cursor.fetchall()
    expected = workload.expected_results(s_selectivity=s_selectivity)
    return cursor, expected


def data_shipping_bytes(strategy, s_selectivity=None):
    """Provider bytes one query delivered on 24 nodes, read before its
    teardown is delivered."""
    workload = build_workload(24, s_tuples_per_node=3)
    pier = build_pier(24)
    load_join_tables(pier, workload)
    query = workload.make_query(strategy=strategy, s_selectivity=s_selectivity)
    pier.client().query(query).fetch(sys.maxsize)  # every row, no teardown
    return breakdown_traffic(pier.network.stats).data_shipping_bytes


@pytest.mark.parametrize("strategy", list(JoinStrategy))
def test_strategy_returns_exactly_the_golden_result(strategy):
    result, expected = run_strategy(strategy)
    assert result.result_count == len(expected)
    observed_recall, observed_precision = recall_and_precision(result.rows, expected)
    assert observed_recall == pytest.approx(1.0)
    assert observed_precision == pytest.approx(1.0)


@pytest.mark.parametrize("strategy", list(JoinStrategy))
def test_strategy_correct_over_chord(strategy):
    result, expected = run_strategy(strategy, dht="chord")
    assert result.result_count == len(expected)


def test_result_rows_contain_only_projected_columns():
    result, expected = run_strategy(JoinStrategy.SYMMETRIC_HASH)
    assert expected  # sanity: the workload produces output
    for row in result.rows:
        assert set(row) == {"R.pkey", "S.pkey", "R.pad"}


def test_results_stream_incrementally_not_in_one_batch():
    result, _expected = run_strategy(JoinStrategy.SYMMETRIC_HASH, num_nodes=24,
                                     s_tuples_per_node=3)
    times = result.arrival_times()
    assert len(set(times)) > 1  # arrivals spread over time (pipelined execution)


def test_initiator_can_be_any_node():
    result_a, expected = run_strategy(JoinStrategy.SYMMETRIC_HASH, initiator=0)
    result_b, _ = run_strategy(JoinStrategy.SYMMETRIC_HASH, initiator=11)
    assert result_a.result_count == result_b.result_count == len(expected)


def test_empty_selectivity_produces_no_results():
    workload = build_workload(8)
    pier = build_pier(8)
    load_join_tables(pier, workload)
    # Selectivity 0 on S: no S tuple passes, so no join results.
    query = workload.make_query(s_selectivity=0.0)
    assert pier.client().query(query).fetchall() == []


def test_full_selectivity_returns_more_results_than_half():
    _result_half, expected_half = run_strategy(JoinStrategy.SYMMETRIC_HASH,
                                               s_selectivity=0.5)
    _result_full, expected_full = run_strategy(JoinStrategy.SYMMETRIC_HASH,
                                                s_selectivity=1.0)
    assert len(expected_full) > len(expected_half)


def test_symmetric_hash_uses_more_data_traffic_than_semi_join():
    """Figure 4's headline: SHJ rehashes everything, the semi-join rewrite does not."""
    assert (data_shipping_bytes(JoinStrategy.SYMMETRIC_HASH)
            > data_shipping_bytes(JoinStrategy.SYMMETRIC_SEMI_JOIN))


def test_bloom_join_reduces_rehash_traffic_at_low_selectivity():
    assert (data_shipping_bytes(JoinStrategy.BLOOM, s_selectivity=0.1)
            < data_shipping_bytes(JoinStrategy.SYMMETRIC_HASH, s_selectivity=0.1))


def test_bloom_join_takes_longer_than_symmetric_hash():
    """Table 4: the two extra phases (collect + redistribute filters) cost latency."""
    shj, _ = run_strategy(JoinStrategy.SYMMETRIC_HASH)
    bloom, _ = run_strategy(JoinStrategy.BLOOM)
    assert bloom.time_to_last() > shj.time_to_last()


def test_fetch_matches_requires_a_side_hashed_on_join_key():
    from repro.core.query import JoinClause, QuerySpec, TableRef
    from repro.exceptions import PlanError

    workload = build_workload(8)
    pier = build_pier(8)
    load_join_tables(pier, workload)
    # Join on a non-resourceID column of both sides: Fetch Matches cannot run.
    query = QuerySpec(
        tables=[TableRef(workload.r_relation, "R"), TableRef(workload.s_relation, "S")],
        output_columns=["R.pkey", "S.pkey"],
        join=JoinClause("R", "num2", "S", "num2"),
        strategy=JoinStrategy.FETCH_MATCHES,
    )
    with pytest.raises(PlanError):
        pier.executor(0).submit(query)
        pier.run_until_idle()


#: ``(prov.get_batch, pier.result, messages sent, bytes delivered, t_last)``
#: of one symmetric semi-join on 64 nodes x 8 S tuples (514 result rows).
#: With two ``get`` calls and one result message per matched pair these read
#: (2 084, 495, 27 559, 4 710 412, 4.7467264) on CAN and (2 060, 496,
#: 21 633, 4 142 524, 2.2074144) on Chord; one ``get_batch`` per side per
#: probe call and one result message per owner reply give the values below.
#: Chord read (1 508, 447, 17 631, 3 777 612, 2.2075936) while its multicast
#: flooded; the finger-interval tree sends 63 ``mc.flood`` instead of 448
#: and is one 100 ms hop deeper, so fragments reach their probes at other
#: times and batch into other ``get_batch`` calls (rows do not move).
#: CAN read (1 711, 419, 23 794, 4 358 412, 4.74632) on the square; on the
#: torus its paths are shorter (``can.route_batch`` 13 605 -> 11 349), its
#: multicast goes outward (``mc.flood`` 161 -> 128), and the last row comes
#: 1.9 s sooner, so fragments batch into other ``get_batch`` calls.
#: CAN read (1 672, 411, 21 440, 3 979 672, 2.817392) and Chord (1 523, 440,
#: 17 354, 3 612 732, 2.3125632) before relays forwarded one routed batch per
#: next hop per delivery group: lookups that meet at a relay now share a
#: message (CAN -1 630 messages, Chord -1 207), and the sends a group defers
#: to its end reorder the link queues, which moves the last row by < 1 ms
#: and, on Chord, which fragments share a ``get_batch`` (rows do not move).
#: CAN read (1 672, 411, 19 810, 3 907 808, 2.8170144) and Chord (1 521, 443,
#: 16 147, 3 558 608, 2.3118272) before a lookup ended at the node whose
#: routing table names the owner: ``can.route_batch`` 9 719 -> 7 237 and
#: ``chord.route_batch`` 8 030 -> 5 601, lookup replies 3 940 -> 3 690 and
#: 3 045 -> 3 001, and the last row, two lookups deep, comes two 100 ms hops
#: sooner; fragments reach their probes at other times and batch into other
#: ``get_batch`` calls (rows do not move).
#: CAN read (1 675, 415, 17 088, 3 551 980, 2.615248) before a key's point
#: became its own bit fields instead of a salted re-hash: placement moved, so
#: owners and paths moved with it (``can.route_batch`` 7 237 -> 7 217,
#: ``prov.put_chunk`` 2 268 -> 2 297) and fragments batch into other
#: ``get_batch`` calls (rows do not move).
SEMI_JOIN_PINS = {
    "can": (1_663, 422, 17_099, 3_560_248, 2.6147232),
    "chord": (1_520, 442, 13_671, 3_231_292, 2.1127776),
}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_semi_join_fixed_seed_pin(dht):
    workload = build_workload(64, s_tuples_per_node=8)
    pier = build_pier(64, dht=dht)
    load_join_tables(pier, workload)
    pier.network.stats.reset()
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_SEMI_JOIN)
    query.query_id = 9002
    # Iterating drives the query until idle without tearing it down, so the
    # teardown's sends are not counted.
    cursor = pier.client().query(query)
    rows = list(cursor)
    stats = pier.network.stats
    assert row_multiset(rows) == row_multiset(workload.expected_results())
    assert (stats.protocol_messages["prov.get_batch"],
            stats.protocol_messages["pier.result"], stats.messages_sent,
            stats.bytes_delivered,
            round(cursor.time_to_last(), 9)) == SEMI_JOIN_PINS[dht]


def test_computation_nodes_confine_rehash_state():
    workload = build_workload(16)
    pier = build_pier(16)
    load_join_tables(pier, workload)
    computation_nodes = [2, 5]
    query = workload.make_query()
    query.computation_nodes = computation_nodes
    # Iterating leaves the query's state in place for inspection.
    rows = list(pier.client().query(query))
    assert len(rows) == len(workload.expected_results())
    rehash_namespace = query.rehash_namespace()
    for address in range(16):
        count = pier.provider(address).storage.count(rehash_namespace)
        if address in computation_nodes:
            continue
        assert count == 0, f"node {address} unexpectedly holds rehash state"
    held = sum(pier.provider(address).storage.count(rehash_namespace)
               for address in computation_nodes)
    assert held > 0


def test_single_computation_node_receives_more_inbound_traffic():
    workload = build_workload(16, s_tuples_per_node=3)
    pier_all = build_pier(16)
    load_join_tables(pier_all, workload)
    # Read before the teardowns are sent: their traffic is not counted.
    rows_all = pier_all.client().query(workload.make_query()).fetch(sys.maxsize)

    pier_one = build_pier(16)
    load_join_tables(pier_one, workload)
    query_one = workload.make_query()
    query_one.computation_nodes = [3]
    rows_one = pier_one.client().query(query_one).fetch(sys.maxsize)

    assert len(rows_one) == len(rows_all)
    inbound_single = pier_one.network.stats.inbound_bytes[3]
    max_inbound_all = pier_all.network.stats.max_inbound_bytes()
    assert inbound_single > max_inbound_all


def grouped_resource_id_tables(pier):
    """R published under a non-key column: two rows per ``grp``, one join key
    per ``grp``, so one resourceID names two tuples."""
    from repro.core.tuples import Column, RelationDef, Schema

    r_relation = RelationDef(
        "RG", Schema([Column("id", "int"), Column("grp", "int"),
                      Column("k", "int"), Column("v", "int")]),
        primary_key="id", resource_id_column="grp")
    s_relation = RelationDef(
        "SK", Schema([Column("sid", "int"), Column("k", "int")]),
        primary_key="sid")
    r_rows = [{"id": i, "grp": i // 2, "k": i // 2, "v": i} for i in range(16)]
    s_rows = [{"sid": i, "k": i % 8} for i in range(12)]
    nodes = pier.config.num_nodes
    pier.load_relation(r_relation, {n: r_rows[n::nodes] for n in range(nodes)})
    pier.load_relation(s_relation, {n: s_rows[n::nodes] for n in range(nodes)})
    return r_relation, s_relation, {"RG": r_rows, "SK": s_rows}


def test_semi_join_refuses_a_resource_id_that_is_not_the_primary_key():
    """The rejoin fetches every tuple under a resourceID and never re-applies
    the local predicate, so over R published by ``grp`` it returned rows that
    fail ``R.v > 4`` and every other row twice.  Forcing it is a plan error
    raised before anything is sent; AUTO never picks it."""
    from repro.core.expressions import compare
    from repro.core.query import JoinClause, QuerySpec, TableRef
    from repro.exceptions import PlanError
    from tests.reference import evaluate_query

    pier = build_pier(8)
    r_relation, s_relation, tables = grouped_resource_id_tables(pier)
    client = pier.client()

    def query(strategy):
        return QuerySpec(
            tables=[TableRef(r_relation, "R"), TableRef(s_relation, "S")],
            output_columns=["R.id", "S.sid"],
            join=JoinClause("R", "k", "S", "k"),
            local_predicates={"R": compare("R.v", ">", 4)},
            strategy=strategy,
        )

    simulator = pier.network.simulator
    pending, sent = simulator.pending_events, pier.network.stats.messages_sent
    with pytest.raises(PlanError):
        client.query(query(JoinStrategy.SYMMETRIC_SEMI_JOIN))
    assert simulator.pending_events == pending
    assert pier.network.stats.messages_sent == sent

    auto = query(JoinStrategy.AUTO)
    rows = client.query(auto).fetchall()
    assert auto.strategy is not JoinStrategy.SYMMETRIC_SEMI_JOIN
    expected = evaluate_query(query(JoinStrategy.SYMMETRIC_HASH), tables)
    assert len(expected) == 14
    assert row_multiset(rows) == row_multiset(expected)
