"""Live membership on real TCP clusters: joins, leaves, kill -9.

Covers the churn-hardening of the real transport stack:

* transport teardown and peer death bounce queued frames instead of
  leaking tasks or hanging senders;
* the gateway RPC surface rejects bad requests with *typed* errors
  (``NodeNotReadyError``, ``UnknownNamespaceError``);
* a node that joins after bootstrap is folded into the overlay and serves
  lookups for its key range (items migrate to it);
* a graceful leave hands every stored item off before the process exits;
* ``kill -9`` of a storage-owning node mid-query lets the query *finish*
  (degraded, never hung) through the same detection/bounce/timeout lanes
  the simulator's churn experiments exercise, and the client session fails
  over to a surviving gateway when the victim was its gateway.

Every test runs under a hard SIGALRM wall-clock guard: a hang is a
failure, not a stall.
"""

from __future__ import annotations

import asyncio
import signal
import time

import pytest

from repro import JoinStrategy
from repro.dht.naming import hash_key, hash_keys
from repro.exceptions import NodeNotReadyError, UnknownNamespaceError
from repro.harness.realcluster import LocalCluster, free_ports
from repro.metrics.recall import recall_and_precision
from repro.net.node import Node
from repro.net.real import RealTransport
from repro.workloads import JoinWorkload, WorkloadConfig

NUM_NODES = 4
WORKLOAD = WorkloadConfig(num_nodes=NUM_NODES, s_tuples_per_node=4, seed=23)
TEST_BUDGET_S = 180  # SIGALRM guard per test (pytest-timeout is not installed)
#: Fast-detection knobs: the paper's 15 s suspicion compressed for CI.
HEARTBEAT_S = 0.25
SUSPICION_S = 2.0
REQUEST_TIMEOUT_S = 3.0
#: Cursor horizon for degraded queries (must outlive suspicion + timeouts).
QUERY_HORIZON_S = 12.0


@pytest.fixture(autouse=True)
def wall_clock_guard():
    def on_alarm(signum, frame):
        raise TimeoutError(f"real-churn test exceeded {TEST_BUDGET_S}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def workload():
    return JoinWorkload(WORKLOAD)


# --------------------------------------------------------------------------
# Transport-level: teardown and peer-death bounce semantics (no cluster).
# --------------------------------------------------------------------------


def test_close_bounces_queued_frames_and_leaks_no_tasks():
    """close() must cancel writer tasks mid-backoff and bounce their queues."""

    async def scenario():
        transport = RealTransport(0)
        await transport.start()
        node = Node(0, transport)
        transport.attach_node(node)
        bounced = []
        node.register_bounce_handler(
            "test.proto", lambda _node, message: bounced.append(message))
        (dead_port,) = free_ports(1)  # nobody listens here
        transport.update_peers({1: ("127.0.0.1", dead_port)})
        for seq in range(5):
            node.send(1, "test.proto", payload={"seq": seq}, payload_bytes=8)
        # Let the writer task enter its connect/backoff loop, then tear down
        # well before the backoff budget would bounce the frames on its own.
        await asyncio.sleep(0.02)
        await transport.close()
        assert len(bounced) == 5
        assert sorted(m.payload["seq"] for m in bounced) == list(range(5))
        leftover = [t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task() and not t.done()]
        assert leftover == []

    asyncio.run(scenario())


def test_sends_during_close_are_dropped_not_pooled():
    """A bounce handler that resends during teardown must not refill the pool."""

    async def scenario():
        transport = RealTransport(0)
        await transport.start()
        node = Node(0, transport)
        transport.attach_node(node)

        def resend(_node, message):
            node.send(1, "test.proto", payload=message.payload, payload_bytes=8)

        node.register_bounce_handler("test.proto", resend)
        (dead_port,) = free_ports(1)
        transport.update_peers({1: ("127.0.0.1", dead_port)})
        node.send(1, "test.proto", payload={"seq": 0}, payload_bytes=8)
        await asyncio.sleep(0.02)
        await transport.close()
        assert transport._pool == {}

    asyncio.run(scenario())


def test_peer_killed_after_connect_bounces_within_backoff_budget():
    """Frames to a peer that dies *after* a healthy connect must bounce.

    This is the kill -9 shape: the pooled connection was established and
    carrying traffic, then the peer vanishes (RST on the live socket,
    connection refused on reconnect).  Queued frames must come back through
    ``deliver_bounce`` within the reconnect backoff budget — that bounce is
    what drives the DHT's reroute/repair paths.
    """

    async def scenario():
        received, server_conns = [], []

        async def handle(reader, writer):
            server_conns.append(writer)
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                received.append(data)

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        transport = RealTransport(0)
        await transport.start()
        node = Node(0, transport)
        transport.attach_node(node)
        bounced = []
        node.register_bounce_handler(
            "test.proto", lambda _node, message: bounced.append(message))
        transport.update_peers({1: ("127.0.0.1", port)})

        node.send(1, "test.proto", payload={"seq": 0}, payload_bytes=8)
        deadline = asyncio.get_running_loop().time() + 5.0
        while not received and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        assert received, "healthy connect never delivered a frame"

        # kill -9: abort the established connection and stop listening.
        server.close()
        for conn in server_conns:
            conn.transport.abort()
        await server.wait_closed()
        await asyncio.sleep(0.2)  # let the RST reach the client socket

        for seq in range(1, 4):
            node.send(1, "test.proto", payload={"seq": seq}, payload_bytes=8)
        # The frame in flight when the RST lands may be lost (it reached
        # the kernel buffer before the error surfaced — same loss a real
        # kill -9 inflicts); every frame *behind* it must bounce within
        # the backoff budget: 4 failed attempts at 0.05/0.1/0.2 plus slack.
        deadline = asyncio.get_running_loop().time() + 5.0
        while len(bounced) < 2 and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
        assert len(bounced) >= 2
        assert {m.payload["seq"] for m in bounced} <= {1, 2, 3}
        assert transport.bounces >= 2
        await transport.close()

    asyncio.run(scenario())


# --------------------------------------------------------------------------
# Gateway RPC: typed structured errors.
# --------------------------------------------------------------------------


def test_rpc_before_ready_raises_typed_not_ready_error():
    """A joiner still waiting for its membership rejects work with not_ready."""
    import os
    import socket
    import subprocess
    import sys

    from repro.harness import realcluster
    from repro.remote import GatewayConnection, RemotePier

    # The joiner's "member" accepts the hello and never answers with the
    # membership: the joiner stays forever not-ready.
    silent_member = socket.create_server(("127.0.0.1", 0))
    (port,) = free_ports(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = (realcluster._SRC_DIR + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.node",
         "--listen", f"127.0.0.1:{port}",
         "--join", f"127.0.0.1:{silent_member.getsockname()[1]}"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=realcluster._die_with_parent)  # a killed run leaves no node
    try:
        deadline = time.monotonic() + 30.0
        conn = None
        while conn is None:
            try:
                conn = GatewayConnection("127.0.0.1", port, timeout_s=2.0)
            except OSError:
                assert time.monotonic() < deadline, "joiner never bound"
                time.sleep(0.1)
        try:
            status = conn.rpc("status", timeout_s=2.0)
            assert status["ready"] is False
            with pytest.raises(NodeNotReadyError):
                conn.rpc("scan_count", namespace="anything", timeout_s=2.0)
        finally:
            conn.close()
        with pytest.raises(NodeNotReadyError):
            RemotePier.connect("127.0.0.1", port, timeout_s=2.0)
    finally:
        proc.kill()
        proc.wait()
        silent_member.close()


def test_submit_unknown_namespace_raises_typed_error():
    """Submitting a query over namespaces nobody loaded is rejected."""
    with LocalCluster(2) as cluster:
        wl = workload()
        client = cluster.pier.client(catalog=wl.catalog())
        with pytest.raises(UnknownNamespaceError):
            client.query(wl.make_query(strategy=JoinStrategy.SYMMETRIC_HASH))


# --------------------------------------------------------------------------
# Live membership on a running cluster.
# --------------------------------------------------------------------------


@pytest.fixture()
def churn_cluster():
    cluster = LocalCluster(
        NUM_NODES,
        heartbeat_period_s=HEARTBEAT_S,
        suspicion_timeout_s=SUSPICION_S,
        request_timeout_s=REQUEST_TIMEOUT_S,
    )
    cluster.connect()
    wl = workload()
    cluster.pier.load_relation(wl.r_relation, wl.r_by_node)
    cluster.pier.load_relation(wl.s_relation, wl.s_by_node)
    yield cluster
    cluster.stop()


def loaded_totals(wl):
    return (sum(len(rows) for rows in wl.r_by_node.values()),
            sum(len(rows) for rows in wl.s_by_node.values()))


def poll_scan_counts(pier, wl, expected, deadline_s=30.0):
    """Wait until the cluster-wide scan counts settle at ``expected``."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        counts = (pier.scan_count(wl.r_relation.namespace),
                  pier.scan_count(wl.s_relation.namespace))
        if counts == expected:
            return counts
        time.sleep(0.25)
    return counts


def query_rows(cluster, strategy, timeout_s=QUERY_HORIZON_S,
               expected=None):
    wl = workload()
    client = cluster.pier.client(catalog=wl.catalog())
    cursor = client.query(wl.make_query(strategy=strategy),
                          timeout_s=timeout_s)
    if expected is not None:
        rows = cursor.fetch(expected)
        cursor.cancel()
    else:
        rows = cursor.fetchall()
    return rows, cursor


def test_dynamic_join_serves_its_key_range(churn_cluster):
    """A node joining after bootstrap absorbs its key range and serves it."""
    wl = workload()
    pier = churn_cluster.pier
    totals = loaded_totals(wl)
    assert poll_scan_counts(pier, wl, totals) == totals

    new_address = churn_cluster.add_node()
    pier.refresh_membership()
    assert new_address in pier.endpoints
    assert pier.num_nodes == NUM_NODES + 1

    # Migration is asynchronous behind the membership broadcast: every
    # loaded tuple must survive the handoff (none lost, none duplicated).
    assert poll_scan_counts(pier, wl, totals) == totals
    migrated = (churn_cluster.local_scan_count(new_address,
                                               wl.r_relation.namespace)
                + churn_cluster.local_scan_count(new_address,
                                                 wl.s_relation.namespace))
    assert migrated > 0, "the joiner owns no data: migration never happened"

    # The get/reply path resolves keys at the *new* owner: full recall.
    expected = wl.expected_results()
    rows, _ = query_rows(churn_cluster, JoinStrategy.FETCH_MATCHES,
                         expected=len(expected))
    r, p = recall_and_precision(rows, expected)
    assert (r, p) == (1.0, 1.0)


def test_late_joiner_accepts_queries_on_loaded_namespaces():
    """A node that joins after a load learns what the cluster holds: a query
    submitted through it is served, not refused as an unknown namespace
    (on 2-node Chord with this seed no S item moves to the joiner)."""
    from repro.remote import RemotePier

    wl = JoinWorkload(WorkloadConfig(num_nodes=2, s_tuples_per_node=1,
                                     seed=3))
    with LocalCluster(2, dht="chord") as cluster:
        cluster.pier.load_relation(wl.r_relation, wl.r_by_node)
        cluster.pier.load_relation(wl.s_relation, wl.s_by_node)
        new_address = cluster.add_node()
        cluster.pier.refresh_membership()
        totals = loaded_totals(wl)
        assert poll_scan_counts(cluster.pier, wl, totals) == totals
        pier = RemotePier.connect("127.0.0.1", cluster.port_of[new_address])
        try:
            expected = wl.expected_results()
            cursor = pier.client(catalog=wl.catalog()).query(
                wl.make_query(strategy=JoinStrategy.SYMMETRIC_HASH),
                timeout_s=QUERY_HORIZON_S)
            rows = cursor.fetch(len(expected))
            cursor.cancel()
        finally:
            pier.close()
    assert recall_and_precision(rows, expected) == (1.0, 1.0)


def test_graceful_leave_hands_off_storage(churn_cluster):
    """A leaving node's items reappear at their new owners before it exits."""
    wl = workload()
    pier = churn_cluster.pier
    totals = loaded_totals(wl)
    assert poll_scan_counts(pier, wl, totals) == totals

    victim = max(a for a in churn_cluster.live_addresses()
                 if a != pier.gateway_address)
    pier.leave_node(victim)
    assert victim not in pier.endpoints
    assert pier.num_nodes == NUM_NODES - 1

    assert poll_scan_counts(pier, wl, totals) == totals
    expected = wl.expected_results()
    rows, _ = query_rows(churn_cluster, JoinStrategy.FETCH_MATCHES,
                         expected=len(expected))
    r, p = recall_and_precision(rows, expected)
    assert (r, p) == (1.0, 1.0)


def storage_owning_victim(cluster, wl, exclude):
    """The non-gateway member holding the most loaded tuples."""
    best, best_count = None, -1
    for address in cluster.live_addresses():
        if address in exclude:
            continue
        count = (cluster.local_scan_count(address, wl.r_relation.namespace)
                 + cluster.local_scan_count(address, wl.s_relation.namespace))
        if count > best_count:
            best, best_count = address, count
    assert best is not None and best_count > 0
    return best


def rows_not_stored_at(pier, wl, rows, victim):
    """The join ``rows`` whose R and S tuples are both stored at owners other
    than ``victim``: what a query can still produce once ``victim`` died."""
    owner_of = {}
    for alias, relation, by_node in (("R", wl.r_relation, wl.r_by_node),
                                     ("S", wl.s_relation, wl.s_by_node)):
        tuples = [row for rows in by_node.values() for row in rows]
        keys = hash_keys(relation.namespace, map(relation.resource_id, tuples))
        owner_of[alias] = {row["pkey"]: owner for row, owner in
                           zip(tuples, pier.builder.owners_of_keys(keys))}
    return [row for row in rows if victim not in (
        owner_of["R"][row["R.pkey"]], owner_of["S"][row["S.pkey"]])]


def test_kill9_mid_query_degrades_without_hanging(churn_cluster):
    """kill -9 on a storage owner mid-query: the query finishes, reports loss."""
    wl = workload()
    pier = churn_cluster.pier
    expected = wl.expected_results()
    victim = storage_owning_victim(churn_cluster, wl,
                                   exclude={pier.gateway_address})
    reachable = rows_not_stored_at(pier, wl, expected, victim)
    assert reachable

    client = pier.client(catalog=wl.catalog())
    cursor = client.query(wl.make_query(strategy=JoinStrategy.FETCH_MATCHES),
                          timeout_s=QUERY_HORIZON_S)
    cursor.fetch(1)  # the dataflow is live before the failure lands
    churn_cluster.kill(victim)
    started = time.monotonic()
    rows = cursor.fetchall()
    elapsed = time.monotonic() - started
    assert elapsed < QUERY_HORIZON_S + 30.0, "query hung past its horizon"

    # The rows whose R and S tuples both live on survivors depend on no dead
    # owner, so the loss of one node must cost almost none of them.
    r, _ = recall_and_precision(rows, reachable)
    assert r >= 0.9, f"recall collapsed to {r} after one node loss"
    _, p = recall_and_precision(rows, expected)
    assert p == 1.0  # losing a node must never invent rows

    # A later query against the shrunk (but healed) cluster also finishes.
    # The dead node still owns its key range (ownership never remaps on a
    # crash), so gets for its keys fail: completeness MUST report loss.
    survivors = list(churn_cluster.live_addresses())
    expected_after = wl.expected_results(live_publishers=survivors)
    rows_after, cursor_after = query_rows(churn_cluster,
                                          JoinStrategy.FETCH_MATCHES)
    r_after, _ = recall_and_precision(rows_after, expected_after)
    assert r_after >= 0.5
    # The dead node's *published* tuples live on at surviving owners until
    # their soft-state lifetime lapses, so they may still join — precision
    # is judged against the full reference: no invented rows, ever.
    _, p_after = recall_and_precision(rows_after, expected)
    assert p_after == 1.0
    report = cursor_after.completeness()
    assert report.result_rows == len(rows_after)
    assert not report.complete, f"no loss reported after kill -9: {report}"


def test_gateway_kill_fails_over_mid_session(churn_cluster):
    """Killing the session gateway re-homes the client on a live member."""
    pier = churn_cluster.pier
    wl = workload()
    old_gateway = pier.gateway_address

    client = pier.client(catalog=wl.catalog())
    cursor = client.query(wl.make_query(strategy=JoinStrategy.SYMMETRIC_HASH),
                          timeout_s=8.0)
    cursor.fetch(1)
    churn_cluster.kill(old_gateway)
    rows = cursor.fetchall()  # must not raise, must not hang
    assert pier.gateway_address != old_gateway
    assert pier.gateway_address in pier.endpoints
    assert isinstance(rows, list)

    # The re-homed session keeps working end to end.  The reference is the
    # rows the shrunk cluster can still produce: both base tuples *and* the
    # rehash fragment (namespace named after the query id, keyed by the join
    # value S.pkey) live on surviving owners.  Against any other reference
    # the recall depends on where this query's id happens to hash relative
    # to the dead zone — 0.25 to 0.81 over ids 2..25 on this very cluster,
    # so the test would pass or fail with the id the gateway assigns.
    pier.refresh_membership()
    query = wl.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    client = pier.client(catalog=wl.catalog())
    rows_after = client.query(query, timeout_s=QUERY_HORIZON_S).fetchall()

    def owner_of(namespace, resource_id):
        return pier.builder.owners_of_keys([hash_key(namespace, resource_id)])[0]

    reachable = [
        row for row in wl.expected_results()
        if old_gateway not in (
            owner_of(wl.r_relation.namespace, row["R.pkey"]),
            owner_of(wl.s_relation.namespace, row["S.pkey"]),
            owner_of(query.rehash_namespace(), row["S.pkey"]))]
    assert reachable, "the workload leaves nothing to recall"
    assert recall_and_precision(rows_after, reachable) == (1.0, 1.0)
