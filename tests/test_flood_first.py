"""Forward, then deliver: a multicast leaves a node before its local work.

``MulticastService`` sends a multicast to a node's children first — its
finger-interval tree children on Chord, its strictly farther neighbours
(outward from the origin zone's centre) on CAN — and runs the local
handlers on the next event at the same instant, at the origin and at every
relay.  Under the simulator that order shows in the send sequence and moves
no arrival time; on the TCP backend it means the frame is already written
when the handler — a node's whole scan and rehash for a query — starts.
Because the initiator's own handler runs after the flood,
``QueryExecutor.submit`` lowers the plan before it multicasts: a plan that
cannot be lowered raises to the submitter and nothing is sent.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import Counter, defaultdict

import pytest

from repro.core.executor import QueryExecutor
from repro.core.query import (JoinClause, JoinStrategy, QuerySpec,
                              QueryTeardown, TableRef)
from repro.dht.multicast import MulticastService
from repro.exceptions import PlanError
from repro.net.message import Message
from repro.net.node import Node
from repro.net.real import RealTransport
from repro.net.wire import FrameDecoder
from tests.conftest import build_pier, build_workload, load_join_tables
from tests.reference import row_multiset
from tests.test_real_hotpath import RecordingPeer, wait_for
from tests.test_routing_index import PINNED_BY_MODE, run_pinned_query


def kind_of(item) -> str:
    return "teardown" if isinstance(item, QueryTeardown) else "query"


#: Nodes that forward each multicast on 64 nodes: all but the antipode of
#: the origin in CAN's outward wave, the 30 inner nodes of the Chord tree.
RELAYS = {"can": 63, "chord": 30}
#: ``mc.flood`` copies of each multicast on 64 nodes.
TREE_SENDS = {"can": 128, "chord": 63}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_every_relay_floods_before_its_own_share_of_the_query(monkeypatch, dht):
    """Per node and per multicast (query, teardown): every ``mc.flood`` send
    — tree sends, each with a scope — precedes the local delivery, at the
    same instant, so all of the node's query work — which that delivery
    starts — is sent after it."""
    log = []  # (node, time, what, kind) in the order things happened
    scoped = Counter()  # mc.flood sends with / without a scope
    send, on_query = Node.send, QueryExecutor._on_query_multicast

    def logged_send(self, dst, protocol, payload=None, payload_bytes=0, hops=0):
        if protocol == MulticastService.PROTOCOL:
            entry = payload["envelope"]["entries"][0]
            scoped["scope" in payload] += 1
            log.append((self.address, self.now, "flood", kind_of(entry["item"])))
        else:
            log.append((self.address, self.now, "work", None))
        return send(self, dst, protocol, payload, payload_bytes, hops)

    def logged_on_query(self, namespace, resource_id, item, origin):
        log.append((self.node.address, self.now, "deliver", kind_of(item)))
        on_query(self, namespace, resource_id, item, origin)

    monkeypatch.setattr(Node, "send", logged_send)
    monkeypatch.setattr(QueryExecutor, "_on_query_multicast", logged_on_query)
    _pier, cursor = run_pinned_query(dht)

    by_node = defaultdict(list)
    for position, (node, at, what, kind) in enumerate(log):
        by_node[node].append((position, at, what, kind))
    relays = 0
    for node, entries in by_node.items():
        for kind in ("query", "teardown"):
            (delivered,) = [e for e in entries if e[2:] == ("deliver", kind)]
            floods = [e for e in entries if e[2:] == ("flood", kind)]
            relays += bool(floods)
            assert all(at == delivered[1] for _p, at, _w, _k in floods)
            assert all(position < delivered[0] for position, *_ in floods)
        query_flood = [e for e in entries if e[2:] == ("flood", "query")]
        if query_flood:
            instant = [e for e in entries
                       if e[1] == query_flood[0][1] and e[2] == "work"]
            assert all(work[0] > query_flood[-1][0] for work in instant)
    assert len(by_node) == 64 and relays >= 2 * RELAYS[dht]
    # Tree copies only: n - 1 per multicast on Chord, 2n on CAN's 8 x 8 torus
    # (the square's flood sent 161 copies without a scope).
    assert (scoped[True], scoped[False]) == (2 * TREE_SENDS[dht], 0)

    # The order costs events, not time: rows and arrival times are the pins'.
    times = tuple(cursor.arrival_times())
    pinned = PINNED_BY_MODE["window 0", dht]["arrivals"]
    assert [len(times), times[0], times[-1],
            hashlib.sha256(repr(times).encode()).hexdigest()[:16]] == pinned


def unlowerable_fetch_matches(workload) -> QuerySpec:
    """Fetch Matches joined on a column neither side is hashed on."""
    return QuerySpec(
        tables=[TableRef(workload.r_relation, "R"),
                TableRef(workload.s_relation, "S")],
        output_columns=["R.pkey", "S.pkey"],
        join=JoinClause("R", "num2", "S", "num2"),
        strategy=JoinStrategy.FETCH_MATCHES,
    )


def test_a_plan_that_cannot_be_lowered_raises_before_anything_is_sent():
    """The initiator lowers the spec before it floods: the submitter gets the
    error, no node is sent the query, and the session stays usable."""
    workload = build_workload(16)
    pier = build_pier(16)
    load_join_tables(pier, workload)
    client = pier.client(catalog=workload.catalog())
    simulator = pier.network.simulator
    pending, sent = simulator.pending_events, pier.network.stats.messages_sent
    with pytest.raises(PlanError):
        client.query(unlowerable_fetch_matches(workload))
    assert simulator.pending_events == pending
    assert pier.network.stats.messages_sent == sent
    assert client.executor.active_query_ids() == []

    cursor = client.query(workload.make_query(strategy=JoinStrategy.FETCH_MATCHES))
    assert row_multiset(cursor.fetchall()) == row_multiset(
        workload.expected_results())
    cursor.close()


class Children:
    """The two routing calls a multicast makes: every child gets ``scope``
    (an interval limit, as Chord's tree; ``None``, as CAN's flood)."""

    def __init__(self, scope, *addresses):
        self.scope = scope
        self.addresses = list(addresses)

    def broadcast_scope(self):
        return self.scope

    def broadcast_children(self, scope):
        return [(address, self.scope) for address in self.addresses]


@pytest.mark.parametrize("scope", [1 << 100, None], ids=["tree", "flood"])
@pytest.mark.parametrize("relay", [False, True], ids=["origin", "relay"])
def test_the_flood_frame_is_written_before_the_local_handler_runs(relay, scope):
    """The send's ``put_nowait`` wakes the peer's writer task, which runs
    before the zero-delay timer that delivers locally: when the handler
    starts, the frame to the child has been written — a tree copy (Chord)
    or a flood copy (CAN)."""

    async def scenario():
        peer = RecordingPeer()
        port = await peer.start()
        transport = RealTransport(0)
        await transport.start()
        node = Node(0, transport)
        transport.attach_node(node)
        transport.update_peers({1: ("127.0.0.1", port)})
        node.send(1, "test.warm", payload={"seq": -1})  # pool the connection
        await wait_for(lambda: peer.connections and peer.connections[0])
        # A relay excludes the node the copy came from (address 2).
        multicast = MulticastService(node, Children(scope, 1, 2) if relay
                                     else Children(scope, 1))
        written = []
        multicast.subscribe("ns", lambda *_: written.append(transport.bytes_sent))
        before = transport.bytes_sent
        if relay:
            copy = {"envelope": {"id": (2, 1), "origin": 2, "entries": [
                        {"namespace": "ns", "resource_id": 1, "item": "query"}]},
                    "payload_bytes": 64}
            if scope is not None:
                copy["scope"] = scope
            node.deliver(Message(2, 0, MulticastService.PROTOCOL,
                                 payload=copy, payload_bytes=64))
        else:
            multicast.multicast("ns", 1, "query", payload_bytes=64)
        assert written == []  # not inside the caller's turn
        await wait_for(lambda: written)
        assert written[0] > before  # the flood frame went first
        await wait_for(lambda: len(frames(peer)) == 2)
        frame = frames(peer)[1]
        assert frame["protocol"] == MulticastService.PROTOCOL
        assert frame["payload"].get("scope") == scope
        await transport.close()
        await peer.hang_up()

    asyncio.run(scenario())


def frames(peer: RecordingPeer):
    return FrameDecoder().feed(b"".join(peer.connections[0]))
