"""The fast load over TCP: ``RemotePier.load_relation`` and the ``store`` RPC.

The client cuts each publisher's batch by owner into chunks of parallel
``resource_ids`` / ``values`` / ``keys`` arrays, sends every owner's
``store`` frames before it awaits any acknowledgement, and returns once all
of them acknowledged.  Against fake gateways (no sockets): the keys each
frame carries, the frame limit, the send-then-await order, and that a
failed store leaves no reply parked (nor does a reply that comes after its
request timed out, over a plain socket).  Against a real 4-node cluster
(``LocalCluster``): every stored item is what the per-row load stored
before — key, lifetime, publisher, size, one fresh instanceID per item in
item order — and a malformed frame is refused whole.
"""

from __future__ import annotations

import signal
import socket
from collections import Counter

import pytest

from repro.core.stats import (STATS_ITEM_BYTES, STATS_LIFETIME_S,
                              STATS_NAMESPACE, relation_stats_resource_id)
from repro.dht.naming import hash_key, hash_keys
from repro.exceptions import GatewayError, NetworkError
from repro.harness.realcluster import LocalCluster
from repro.net.wire import FrameTooLargeError, encode_frame
from repro.remote import GatewayConnection, RemotePier
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.conftest import FakeGateway

NODES = 4
LIFETIME = 1e9
TEST_BUDGET_S = 180  # SIGALRM guard per test (pytest-timeout is not installed)


def workload(s_tuples_per_node=3):
    return JoinWorkload(WorkloadConfig(num_nodes=NODES, seed=5,
                                       s_tuples_per_node=s_tuples_per_node))


def loads(wl):
    return ((wl.r_relation, wl.r_by_node), (wl.s_relation, wl.s_by_node))


def per_row_shares(builder, wl):
    """What the per-row load stored at each owner, in the order it stored
    it: ``(namespace, resource_id, key, lifetime, publisher, item_bytes)``
    per item, each publisher's statistics partial before its rows."""
    shares = {}
    for relation, by_node in loads(wl):
        for publisher, rows in by_node.items():
            if not rows:
                continue
            items = [(STATS_NAMESPACE, relation_stats_resource_id(relation.name),
                      STATS_LIFETIME_S, STATS_ITEM_BYTES)]
            items += [(relation.namespace, relation.resource_id(row), LIFETIME,
                       relation.tuple_bytes) for row in rows]
            for namespace, resource_id, lifetime, size in items:
                key = hash_key(namespace, resource_id)
                shares.setdefault(builder.owner_of_key(key), []).append(
                    (namespace, resource_id, key, lifetime, publisher, size))
    return shares


def fake_pier(**fakes):
    """A ``RemotePier`` whose four members are fake gateways sharing a log;
    ``fakes`` maps an address to the keyword arguments of its gateway."""
    log = []
    gateways = {address: FakeGateway(address, log=log,
                                      **fakes.get(f"node{address}", {}))
                for address in range(NODES)}
    pier = RemotePier(gateways[0])
    pier._connections.update(gateways)
    return pier, gateways, log


def load(pier, wl, log):
    """Load R and S; whether each load sent all its frames before it
    awaited the first acknowledgement."""
    pipelined = True
    for relation, by_node in loads(wl):
        del log[:]
        pier.load_relation(relation, by_node, lifetime=LIFETIME)
        kinds = [kind for kind, _address, op in log]
        pipelined &= kinds == sorted(kinds, key=["send", "await"].index)
    return pipelined


def received(gateway):
    """The items ``gateway`` was sent, in order, as ``per_row_shares`` names them."""
    return [(chunk["namespace"], resource_id, key, chunk["lifetime"],
             chunk["publisher"], chunk["item_bytes"])
            for frame in gateway.frames for chunk in frame["chunks"]
            for resource_id, key in zip(chunk["resource_ids"], chunk["keys"])]


# ---------------------------------------------------------- fake gateways


def test_every_frame_carries_the_keys_that_placed_its_items():
    wl = workload()
    pier, gateways, log = fake_pier()
    assert load(pier, wl, log)
    for gateway in gateways.values():
        assert gateway.frames
        for frame in gateway.frames:
            for chunk in frame["chunks"]:
                assert chunk["keys"] == hash_keys(chunk["namespace"],
                                                  chunk["resource_ids"])
                assert len(chunk["values"]) == len(chunk["keys"])
                owners = set(pier.builder.owners_of_keys(chunk["keys"]))
                assert owners == {gateway.address}
    expected = per_row_shares(pier.builder, wl)
    assert {address: received(gateway) for address, gateway in gateways.items()
            if gateway.frames} == expected
    # One frame per owner and load.
    assert [len(gateway.frames) for gateway in gateways.values()] == [2] * NODES
    assert not any(gateway._responses for gateway in gateways.values())


def test_a_share_over_the_frame_limit_leaves_in_several_frames_in_flight(
        monkeypatch):
    wl = workload(s_tuples_per_node=12)
    limit = 2200  # a statistics partial alone takes about 2 000 bytes
    monkeypatch.setattr("repro.remote.MAX_FRAME_BYTES", limit)
    pier, gateways, log = fake_pier()
    assert load(pier, wl, log)
    for gateway in gateways.values():
        assert len(gateway.frames) > 2
        for frame in gateway.frames:
            assert len(encode_frame(frame)) - 4 <= limit
    assert {address: received(gateway)
            for address, gateway in gateways.items()} == per_row_shares(
                pier.builder, wl)
    # A single row over the limit cannot be split: the load raises.
    monkeypatch.setattr("repro.remote.MAX_FRAME_BYTES", 60)
    with pytest.raises(FrameTooLargeError):
        load(pier, wl, log)
    assert not any(gateway._responses for gateway in gateways.values())


def test_a_refused_store_leaves_no_reply_parked():
    wl = workload()
    pier, gateways, log = fake_pier(node2={"refuse": True})
    with pytest.raises(GatewayError, match="refused"):
        pier.load_relation(wl.r_relation, wl.r_by_node)
    # The other owners' frames went out and their replies were awaited.
    assert all(len(gateway.frames) == 1 for gateway in gateways.values())
    assert Counter(kind for kind, _address, op in log if op == "store") == {
        "send": NODES, "await": NODES}
    assert not any(gateway._responses for gateway in gateways.values())


def test_a_reply_that_comes_after_its_timeout_is_not_parked():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    conn = GatewayConnection(*listener.getsockname())
    node, _address = listener.accept()
    try:
        late = conn.send("store", chunks=[])
        with pytest.raises(NetworkError, match="timed out"):
            conn.await_response(late, "store", timeout_s=0.05)
        prompt = conn.send("ping")
        node.sendall(encode_frame({"t": "res", "id": late, "ok": True})
                     + encode_frame({"t": "res", "id": prompt, "ok": True}))
        assert conn.await_response(prompt, "ping")["id"] == prompt
        assert not conn._responses and not conn._abandoned
    finally:
        conn.close()
        node.close()
        listener.close()


# ------------------------------------------------------- a real cluster


@pytest.fixture(autouse=True)
def wall_clock_guard():
    def on_alarm(signum, frame):
        raise TimeoutError(f"remote-load test exceeded {TEST_BUDGET_S}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def cluster():
    cluster = LocalCluster(NODES)
    cluster.connect()
    yield cluster
    cluster.stop()


def stored_items(pier, namespaces):
    """Each member's stored items of ``namespaces``, namespace by namespace."""
    return {address: [item for namespace in namespaces for item in
                      pier.connection(address).rpc(
                          "scan", namespace=namespace)["items"]]
            for address in sorted(pier.endpoints)}


def test_a_load_stores_what_the_per_row_load_stored(cluster, monkeypatch):
    wl = workload()
    pier = cluster.pier
    # R leaves in several frames per owner: the cuts must not show.
    sent = Counter()
    send = GatewayConnection.send

    def counting_send(self, op, **fields):
        sent[op] += 1
        return send(self, op, **fields)

    monkeypatch.setattr(GatewayConnection, "send", counting_send)
    monkeypatch.setattr("repro.remote.MAX_FRAME_BYTES", 2200)
    pier.load_relation(wl.r_relation, wl.r_by_node, lifetime=LIFETIME)
    monkeypatch.undo()
    assert sent["store"] > 2 * NODES
    pier.load_relation(wl.s_relation, wl.s_by_node, lifetime=LIFETIME)
    for relation, by_node in loads(wl):
        assert pier.scan_count(relation.namespace) == sum(
            len(rows) for rows in by_node.values())
    assert pier.scan_count(STATS_NAMESPACE) == sum(
        1 for _relation, by_node in loads(wl)
        for rows in by_node.values() if rows)

    expected = per_row_shares(pier.builder, wl)
    namespaces = (STATS_NAMESPACE, wl.r_relation.namespace,
                  wl.s_relation.namespace)
    rows = {(relation.namespace, relation.resource_id(row), publisher): row
            for relation, by_node in loads(wl)
            for publisher, publisher_rows in by_node.items()
            for row in publisher_rows}
    for address, items in stored_items(pier, namespaces).items():
        want = sorted(expected.get(address, ()),
                      key=lambda item: namespaces.index(item[0]))
        assert [(item.namespace, item.resource_id, item.key,
                 round(item.expires_at - item.stored_at), item.publisher,
                 item.size_bytes) for item in items] == want
        assert all(item.key == hash_key(item.namespace, item.resource_id)
                   for item in items)
        for item in items:
            if item.namespace != STATS_NAMESPACE:
                assert item.value == rows[item.namespace, item.resource_id,
                                          item.publisher]
        # One fresh instanceID per item, drawn by the owner in item order:
        # the stats partials interleave with the rows of both loads.
        base = address * 1_000_003
        assert sorted(item.instance_id for item in items) == list(
            range(base + 1, base + 1 + len(items)))
        for namespace in namespaces:
            ids = [item.instance_id for item in items
                   if item.namespace == namespace]
            assert ids == sorted(ids)


@pytest.mark.parametrize("chunk_fault", [
    "arrays that disagree in length", "no values", "a missing field",
    "an unhashable resourceID", "no chunk list"])
def test_a_malformed_store_frame_is_refused_whole(cluster, chunk_fault):
    namespace = "malformed"
    good = {"namespace": namespace, "publisher": 0, "lifetime": 60.0,
            "item_bytes": 8, "resource_ids": [1, 2], "values": [{"a": 1}, {"a": 2}],
            "keys": hash_keys(namespace, [1, 2])}
    bad = dict(good)
    if chunk_fault == "arrays that disagree in length":
        bad["keys"] = bad["keys"][:1]
    elif chunk_fault == "no values":
        bad["values"] = None
    elif chunk_fault == "a missing field":
        del bad["lifetime"]
    elif chunk_fault == "an unhashable resourceID":
        bad["resource_ids"] = [[1], [2]]
    fields = ({"items": [good, bad]} if chunk_fault == "no chunk list"
              else {"chunks": [good, bad]})
    pier = cluster.pier
    conn = pier.connection(1)
    with pytest.raises(GatewayError, match="store chunk|store frame|unhashable"):
        conn.rpc("store", **fields)
    # Nothing of the frame was stored, the good chunk included, and the
    # connection still serves.
    assert pier.scan_count(namespace) == 0
    assert conn.rpc("scan_count", namespace=namespace)["count"] == 0
    assert not conn._responses
