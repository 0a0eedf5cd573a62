"""A finished query leaves nothing behind on the client's gateway connection.

The gateway names every query it runs, so a spec id another client session
already ran is not mistaken for a finished query, and a loss-free query
audits the same on a cluster as on the simulator.

``GatewayConnection.handles`` routes streamed row frames to their cursors.
``RemoteExecutor.finish`` drops a query's entry once the ``finish`` RPC
returned — the gateway flushes the query's last rows before it replies — so
a long-lived session holds no rows of queries it is done with.  A failed
``submit`` or ``finish`` RPC drops the entry as well, so a later gateway
failover has nothing stale to carry over.  A session that cannot open (the
gateway is not ready, or its ``status`` RPC fails) closes its connection.
"""

from __future__ import annotations

import dataclasses
import signal

import pytest

from repro import JoinStrategy, PierNetwork, SimulationConfig
from repro.core.query import JoinClause, QuerySpec, TableRef
from repro.core.stats import StatsRegistry
from repro.exceptions import GatewayError, NetworkError, NodeNotReadyError
from repro.harness.realcluster import LocalCluster
from repro.remote import RemoteExecutor, RemotePier
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.reference import row_multiset

TEST_BUDGET_S = 120  # SIGALRM guard (pytest-timeout is not installed)


@pytest.fixture(autouse=True)
def wall_clock_guard():
    def on_alarm(signum, frame):
        raise TimeoutError(f"test exceeded {TEST_BUDGET_S}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def two_node_workload() -> JoinWorkload:
    return JoinWorkload(WorkloadConfig(num_nodes=2, s_tuples_per_node=6,
                                       seed=3))


def test_cancelled_and_closed_cursors_release_their_gateway_handles():
    workload = two_node_workload()
    expected = row_multiset(workload.expected_results())
    wanted = len(expected)
    assert wanted
    with LocalCluster(2) as cluster:
        pier = cluster.pier
        pier.load_relation(workload.r_relation, workload.r_by_node)
        pier.load_relation(workload.s_relation, workload.s_by_node)
        client = pier.client(catalog=workload.catalog())
        for index, strategy in enumerate((JoinStrategy.SYMMETRIC_HASH,
                                          JoinStrategy.FETCH_MATCHES) * 2):
            cursor = client.query(workload.make_query(strategy=strategy),
                                  timeout_s=30.0)
            assert cursor.query_id in pier.gateway.handles
            rows = cursor.fetch(wanted)
            if index % 2:
                cursor.close()
            else:
                cursor.cancel()
            assert row_multiset(rows) == expected
            assert row_multiset(cursor.rows) == expected
            assert pier.gateway.handles == {}


def test_a_plan_the_gateway_cannot_lower_is_rejected_by_the_submit_rpc():
    """The gateway lowers the spec before it floods, so the error comes back
    as the submit RPC's reply, not as an empty timed-out cursor — whether
    the strategy cannot run or a HAVING reference does not resolve."""
    workload = two_node_workload()
    expected = row_multiset(workload.expected_results())
    with LocalCluster(2) as cluster:
        pier = cluster.pier
        pier.load_relation(workload.r_relation, workload.r_by_node)
        pier.load_relation(workload.s_relation, workload.s_by_node)
        client = pier.client(catalog=workload.catalog())
        unlowerable = [
            (QuerySpec(  # Fetch Matches on a non-resourceID column
                tables=[TableRef(workload.r_relation, "R"),
                        TableRef(workload.s_relation, "S")],
                output_columns=["R.pkey", "S.pkey"],
                join=JoinClause("R", "num2", "S", "num2"),
                strategy=JoinStrategy.FETCH_MATCHES,
            ), "PlanError"),
            (client.plan("SELECT R.num1, count(*) AS cnt FROM R "
                         "GROUP BY R.num1 HAVING nosuch > 1"), "ExpressionError"),
        ]
        for spec, error in unlowerable:
            with pytest.raises(GatewayError, match=error):
                client.query(spec, timeout_s=30.0)
            assert pier.gateway.handles == {}

        cursor = client.query(
            workload.make_query(strategy=JoinStrategy.FETCH_MATCHES),
            timeout_s=30.0)
        assert row_multiset(cursor.fetch(len(expected))) == expected
        cursor.close()
        assert pier.gateway.handles == {}


def test_a_spec_id_another_session_ran_still_returns_every_row():
    """A client may send a spec named with an id the cluster has already
    finished (and keeps suppressing for the finished marker's lifetime) —
    another session's, say.  The gateway assigns its own."""
    workload = two_node_workload()
    expected = row_multiset(workload.expected_results())
    with LocalCluster(2) as cluster:
        pier = cluster.pier
        pier.load_relation(workload.r_relation, workload.r_by_node)
        pier.load_relation(workload.s_relation, workload.s_by_node)
        client = pier.client(catalog=workload.catalog())

        def run(query):
            cursor = client.query(query, timeout_s=10.0)
            assert row_multiset(cursor.fetch(len(expected))) == expected
            assert not cursor.timed_out
            cursor.cancel()

        first = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
        run(first)
        second = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
        second.query_id = first.query_id  # what another session would send
        run(second)
        assert first.query_id != second.query_id
        assert pier.gateway.handles == {}


def completeness_fields(pier, workload):
    """Rows and delivery report of one loss-free Fetch Matches query."""
    cursor = pier.client(catalog=workload.catalog()).query(
        workload.make_query(strategy=JoinStrategy.FETCH_MATCHES), timeout_s=3.0)
    rows = cursor.fetchall()
    assert cursor.completeness().complete
    fields = dataclasses.asdict(cursor.completeness())
    del fields["query_id"]
    return row_multiset(rows), fields


def test_a_loss_free_query_audits_the_same_on_both_backends():
    workload = two_node_workload()
    sim = PierNetwork(SimulationConfig(num_nodes=2))
    sim.load_relation(workload.r_relation, workload.r_by_node)
    sim.load_relation(workload.s_relation, workload.s_by_node)
    sim_rows, sim_fields = completeness_fields(sim, workload)
    assert sim_rows == row_multiset(workload.expected_results())
    assert sim_fields["gets_issued"] > 0 and sim_fields["nodes_with_state"] == 2
    with LocalCluster(2) as cluster:
        pier = cluster.pier
        pier.load_relation(workload.r_relation, workload.r_by_node)
        pier.load_relation(workload.s_relation, workload.s_by_node)
        assert completeness_fields(pier, workload) == (sim_rows, sim_fields)


class FailingGateway:
    """A gateway connection whose every RPC fails."""

    def __init__(self):
        self.handles = {}

    def rpc(self, op, **fields):
        raise NetworkError(f"rpc {op!r} timed out")


class OneGatewayPier:
    def __init__(self, gateway):
        self.gateway = gateway
        self.gateway_address = 0
        self.relation_stats = StatsRegistry()


class StatusGateway:
    """A gateway connection that answers ``status`` (or fails it) and
    records whether it was closed."""

    def __init__(self, status):
        self.status = status
        self.closed = False

    def rpc(self, op, **fields):
        if isinstance(self.status, Exception):
            raise self.status
        return self.status

    def close(self):
        self.closed = True


@pytest.mark.parametrize("status, error", [
    ({"ready": False}, NodeNotReadyError),
    (NetworkError("rpc 'status' timed out"), NetworkError),
], ids=["not-ready", "rpc-fails"])
def test_a_session_that_cannot_open_closes_its_connection(status, error):
    """``LocalCluster.connect`` polls this path while a cluster boots: every
    refused attempt must release its socket."""
    gateway = StatusGateway(status)
    with pytest.raises(error):
        RemotePier(gateway)
    assert gateway.closed


@pytest.mark.parametrize("op", ["submit", "finish"])
def test_a_failed_rpc_drops_the_query_handle(op):
    gateway = FailingGateway()
    executor = RemoteExecutor(OneGatewayPier(gateway), 0)
    query = two_node_workload().make_query()
    with pytest.raises(NetworkError):
        if op == "submit":
            executor.submit(query)
        else:
            gateway.handles[query.query_id] = object()
            executor.finish(query.query_id)
    assert gateway.handles == {}
