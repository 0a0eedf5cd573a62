"""End-to-end: a localhost TCP cluster answers queries row-identically.

Boots 4 real ``python -m repro.node`` processes on loopback sockets, loads
the Figure-3 join workload through :class:`repro.remote.RemotePier`, runs
joins and an aggregation through the unmodified :class:`repro.client.
PierClient`, and checks the result rows are byte-identical to the same
workload executed under the discrete-event simulator.  A join with GROUP BY
(the monitoring workload's reputation-weighted summary) ships partial
records through the wire codec and the gateway's result pump; its groups
must match the simulator's.

Every test runs under a hard SIGALRM wall-clock guard: a hang in the real
transport must fail the suite, not stall it.
"""

from __future__ import annotations

import functools
import math
import signal

import pytest

from repro import JoinStrategy, PierNetwork, SimulationConfig
from repro.harness.realcluster import LocalCluster
from repro.workloads import JoinWorkload, NetworkMonitoringWorkload, WorkloadConfig

NUM_NODES = 4
WORKLOAD = WorkloadConfig(num_nodes=NUM_NODES, s_tuples_per_node=4, seed=11)
AGGREGATE_SQL = "SELECT R.num1, count(*) AS cnt FROM R GROUP BY R.num1"
TEST_BUDGET_S = 180  # SIGALRM guard per test (pytest-timeout is not installed)
WEIGHTED_SQL = ("SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt "
                "FROM intrusions I, reputation R "
                "WHERE R.address = I.address AND I.port = 22 "
                "GROUP BY I.fingerprint HAVING wcnt > 1")


def canonical(rows):
    """Order-independent, hashable view of a result row set."""
    return sorted(tuple(sorted(row.items())) for row in rows)


def workload():
    return JoinWorkload(WORKLOAD)


@functools.lru_cache(maxsize=None)
def simulator_rows(dht, sql, strategy, collection_window_s=None):
    """Reference result: the identical workload under the simulator."""
    wl = workload()
    pier = PierNetwork(SimulationConfig(num_nodes=NUM_NODES, dht=dht))
    pier.load_relation(wl.r_relation, wl.r_by_node)
    pier.load_relation(wl.s_relation, wl.s_by_node)
    client = pier.client(node=0, catalog=wl.catalog())
    options = {}
    if collection_window_s is not None:
        options["collection_window_s"] = collection_window_s
    cursor = client.sql(sql, strategy=strategy, **options)
    rows = cursor.fetchall()
    return canonical(rows)


@pytest.fixture(autouse=True)
def wall_clock_guard():
    """Hard per-test timeout: kill the test, not the CI job."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"real-transport test exceeded {TEST_BUDGET_S}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Cluster(LocalCluster):
    """A subprocess cluster with the Figure-3 workload pre-loaded."""

    def __init__(self, num_nodes, dht):
        super().__init__(num_nodes, dht=dht)
        self.connect()
        wl = workload()
        self.pier.load_relation(wl.r_relation, wl.r_by_node)
        self.pier.load_relation(wl.s_relation, wl.s_by_node)

    def client(self, **options):
        return self.pier.client(catalog=workload().catalog(), **options)


@pytest.fixture(scope="module")
def can_cluster():
    cluster = Cluster(NUM_NODES, "can")
    yield cluster
    cluster.stop()


@pytest.fixture(scope="module")
def chord_cluster():
    cluster = Cluster(NUM_NODES, "chord")
    yield cluster
    cluster.stop()


def run_join(cluster, strategy):
    wl = workload()
    expected = simulator_rows(cluster.dht, wl.sql_text(), strategy)
    cursor = cluster.client().sql(wl.sql_text(), strategy=strategy)
    rows = cursor.fetch(len(expected))
    cursor.cancel()
    return expected, canonical(rows)


def test_cluster_membership(can_cluster):
    pier = can_cluster.pier
    assert pier.num_nodes == NUM_NODES
    assert sorted(pier.endpoints) == list(range(NUM_NODES))
    assert pier.config["dht"] == "can"


def test_fast_load_places_every_row(can_cluster):
    wl = workload()
    pier = can_cluster.pier
    assert pier.scan_count(wl.r_relation.namespace) == sum(
        len(rows) for rows in wl.r_by_node.values())
    assert pier.scan_count(wl.s_relation.namespace) == sum(
        len(rows) for rows in wl.s_by_node.values())


def test_symmetric_hash_join_matches_simulator(can_cluster):
    expected, actual = run_join(can_cluster, JoinStrategy.SYMMETRIC_HASH)
    assert len(expected) > 0
    assert actual == expected


def test_fetch_matches_join_matches_simulator(can_cluster):
    # FETCH_MATCHES exercises the DHT get/reply request path over TCP.
    expected, actual = run_join(can_cluster, JoinStrategy.FETCH_MATCHES)
    assert len(expected) > 0
    assert actual == expected


def test_aggregation_matches_simulator(can_cluster):
    wl = workload()
    expected = simulator_rows("can", AGGREGATE_SQL, JoinStrategy.SYMMETRIC_HASH,
                              collection_window_s=1.0)
    groups = {row["num1"] for rows in wl.r_by_node.values() for row in rows}
    assert len(expected) == len(groups)
    cursor = can_cluster.client().sql(AGGREGATE_SQL,
                                      strategy=JoinStrategy.SYMMETRIC_HASH,
                                      collection_window_s=1.0)
    rows = cursor.fetch(len(expected))
    cursor.cancel()
    assert canonical(rows) == expected


def test_approx_aggregation_matches_simulator(can_cluster):
    """The shared-seed HLL makes the estimate deterministic: the real TCP
    cluster must produce row-identical APPROX results to the simulator."""
    sql = "SELECT APPROX COUNT(DISTINCT R.num1) AS d FROM R"
    expected = simulator_rows("can", sql, JoinStrategy.SYMMETRIC_HASH,
                              collection_window_s=1.0)
    assert len(expected) == 1
    wl = workload()
    truth = len({row["num1"] for rows in wl.r_by_node.values() for row in rows})
    (((_, estimate),),) = expected
    assert abs(estimate - truth) / truth <= 0.02
    cursor = can_cluster.client().sql(sql,
                                      strategy=JoinStrategy.SYMMETRIC_HASH,
                                      collection_window_s=1.0)
    rows = cursor.fetch(len(expected))
    cursor.cancel()
    assert canonical(rows) == expected


def test_chord_join_matches_simulator(chord_cluster):
    expected, actual = run_join(chord_cluster, JoinStrategy.SYMMETRIC_HASH)
    assert len(expected) > 0
    assert actual == expected


def test_join_aggregation_partials_match_simulator(can_cluster):
    """Partial records cross the wire codec and the result pump; the client
    merges them into the simulator's groups.  Sums are compared with
    ``math.isclose``: partials may be merged in another order."""
    monitoring = NetworkMonitoringWorkload(num_nodes=NUM_NODES,
                                           intrusions_per_node=40, seed=5)
    relations = ((monitoring.intrusions, monitoring.intrusions_by_node),
                 (monitoring.reputation, monitoring.reputation_by_node))
    sim = PierNetwork(SimulationConfig(num_nodes=NUM_NODES, dht="can"))
    for relation, by_node in relations:
        sim.load_relation(relation, by_node)
        can_cluster.pier.load_relation(relation, by_node)
    cursors = []
    for pier, options in ((sim, {}), (can_cluster.pier, {"timeout_s": 5.0})):
        client = pier.client(catalog=monitoring.catalog())
        cursors.append(client.sql(WEIGHTED_SQL,
                                  strategy=JoinStrategy.SYMMETRIC_HASH, **options))
    expected = {row["I.fingerprint"]: row["wcnt"] for row in cursors[0].fetchall()}
    joined = cursors[0].completeness().result_rows
    assert len(expected) > 1 and joined > len(expected)
    remote = cursors[1]
    remote.fetch(joined)  # every partial record has arrived
    assert remote.result_count == joined
    assert all("groups" in record for record in remote.rows)
    actual = {row["I.fingerprint"]: row["wcnt"] for row in remote.fetchall()}
    assert actual.keys() == expected.keys()
    assert all(math.isclose(actual[key], expected[key], rel_tol=1e-9)
               for key in expected)
