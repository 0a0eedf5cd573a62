"""The real backend's hot path between two frames of a query.

* ``RealTransport`` ships everything queued behind a message in **one**
  write, checks the connection for EOF *before* writing, and retries or
  bounces the in-flight batch as a whole;
* it hands the node the frames of one read inside one delivery scope, so a
  relay forwards the routed lookups that arrived together as one batch per
  next hop;
* the node's result pump pushes the rows of one loop turn at its end through
  a one-shot zero-delay flush, cut into frames of ``RESULT_FLUSH_ROWS``
  (no periodic timer, no row waits for an age);
* ``GatewayConnection.pump`` blocks on the socket and returns as soon as it
  dispatched a frame, and no later than behind a response;
  ``RemotePier.wait`` is one such pump, and ``wait(None)`` does not block;
* a real node's executor, like every executor, arms a reaper timer per
  query state, which ``finish`` cancels.

No subprocess clusters here: raw asyncio servers, in-process transports on
one loop, an in-process one-node ``PierNode`` and a plain listening socket
stand in for the peers.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import socket
import time

import pytest

from repro import JoinStrategy
from repro.core.executor import QueryHandle
from repro.exceptions import NetworkError
from repro.dht.naming import hash_key, hash_keys
from repro.net.message import Message
from repro.net.node import Node
from repro.net.real import MAX_BATCH_MESSAGES, RealTransport
from repro.net.wire import FrameDecoder, encode_frame, message_to_wire
from repro.node import RESULT_FLUSH_ROWS, PierNode, build_arg_parser
from repro.remote import GatewayConnection, RemotePier
from repro.stack import build_overlay
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.reference import answering_owner, walk_lookup


async def wait_for(predicate, timeout_s=5.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition not reached"
        await asyncio.sleep(0.005)


class RecordingPeer:
    """A raw frame server that records what each connection delivered."""

    def __init__(self):
        self.connections = []  # one list of read() chunks per accepted socket
        self.writers = []
        self.server = None

    async def start(self) -> int:
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer):
        chunks = []
        self.connections.append(chunks)
        self.writers.append(writer)
        while True:
            data = await reader.read(65536)
            if not data:
                return
            chunks.append(data)

    def seqs(self, connection: int):
        frames = FrameDecoder().feed(b"".join(self.connections[connection]))
        return [frame["payload"]["seq"] for frame in frames]

    async def hang_up(self):
        """Close every accepted socket gracefully (FIN) and stop listening."""
        self.server.close()
        for writer in self.writers:
            writer.close()
        await self.server.wait_closed()


async def connected_sender(peer: RecordingPeer):
    """A transport whose pooled connection to ``peer`` is up and idle."""
    port = await peer.start()
    transport = RealTransport(0)
    await transport.start()
    node = Node(0, transport)
    transport.attach_node(node)
    bounced = []
    node.register_bounce_handler(
        "test.proto", lambda _node, message: bounced.append(message.payload["seq"]))
    transport.update_peers({1: ("127.0.0.1", port)})
    send(node, [-1])
    await wait_for(lambda: peer.connections and peer.seqs(0) == [-1])
    return transport, node, bounced


def send(node: Node, seqs):
    for seq in seqs:
        node.send(1, "test.proto", payload={"seq": seq}, payload_bytes=8)


@pytest.fixture()
def writes(monkeypatch):
    """Sizes of every ``StreamWriter.write`` made while the test runs."""
    sizes = []
    original = asyncio.StreamWriter.write

    def recording_write(self, data):
        sizes.append(len(data))
        original(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
    return sizes


# ------------------------------------------------------- coalesced writes


@pytest.mark.parametrize("count", [50, MAX_BATCH_MESSAGES + 10])
def test_messages_queued_in_one_turn_leave_in_one_write(writes, count):
    async def scenario():
        peer = RecordingPeer()
        transport, node, bounced = await connected_sender(peer)
        del writes[:], peer.connections[0][:]
        send(node, range(count))  # one loop turn: the writer task runs after it
        await wait_for(lambda: len(peer.seqs(0)) == count)
        assert peer.seqs(0) == list(range(count))  # in order
        assert len(writes) == math.ceil(count / MAX_BATCH_MESSAGES)
        if count <= MAX_BATCH_MESSAGES:  # and one read-sized burst at the peer
            assert len(peer.connections[0]) == 1
        assert transport.bytes_sent >= sum(writes) and not bounced
        await transport.close()
        await peer.hang_up()

    asyncio.run(scenario())


def test_batch_queued_after_the_peers_fin_bounces_whole(writes):
    """A FIN has arrived, the peer is gone for good: nothing of the batch is
    written into the dead connection (where it would vanish without an
    error) and every message of it bounces."""

    async def scenario():
        peer = RecordingPeer()
        transport, node, bounced = await connected_sender(peer)
        await peer.hang_up()
        await asyncio.sleep(0.1)  # let the FIN reach the pooled connection
        del writes[:]
        send(node, range(5))
        await wait_for(lambda: len(bounced) == 5)
        assert bounced == list(range(5))  # none lost ...
        assert writes == []               # ... because none was written
        assert transport.bounces == 5 and transport.reconnects == 1
        await transport.close()

    asyncio.run(scenario())


def test_batch_in_flight_when_the_connection_resets_is_retried_whole(monkeypatch):
    async def scenario():
        peer = RecordingPeer()
        transport, node, bounced = await connected_sender(peer)
        original = asyncio.StreamWriter.drain
        failures = [ConnectionResetError("reset while the batch was in flight")]

        async def flaky_drain(self):
            if failures:
                raise failures.pop()
            await original(self)

        monkeypatch.setattr(asyncio.StreamWriter, "drain", flaky_drain)
        send(node, range(6))
        await wait_for(lambda: len(peer.connections) == 2
                       and len(peer.seqs(1)) == 6)
        # The whole batch went out again on the fresh connection, in order;
        # receivers tolerate the copies the first connection already took.
        assert peer.seqs(1) == list(range(6))
        assert transport.reconnects == 1 and not bounced
        await transport.close()
        await peer.hang_up()

    asyncio.run(scenario())


def test_unencodable_message_bounces_alone_and_its_batch_is_written(writes):
    """One message the codec refuses must not kill the writer task: it
    bounces, its neighbours are written, and the peer keeps draining."""

    async def scenario():
        peer = RecordingPeer()
        transport, node, bounced = await connected_sender(peer)
        del writes[:], peer.connections[0][:]
        send(node, [0, 1])
        node.send(1, "test.proto", payload={"seq": 2, "bad": object()},
                  payload_bytes=8)  # not a repro object: WireError on encode
        send(node, [3, 4])
        await wait_for(lambda: len(peer.seqs(0)) == 4)
        assert peer.seqs(0) == [0, 1, 3, 4] and len(writes) == 1
        assert bounced == [2] and transport.bounces == 1
        send(node, [5])  # the writer task survived
        await wait_for(lambda: peer.seqs(0)[-1] == 5)
        assert not transport._pool[1].pending and not transport._pool[1].task.done()
        await transport.close()
        await peer.hang_up()

    asyncio.run(scenario())


# ------------------------------------------------ one scope per read


async def loopback_overlay(dht, size):
    """``size`` transports on this loop carrying one stabilised overlay:
    ``(builder, transports, routings)``, every node knowing every peer."""
    transports = [RealTransport(address) for address in range(size)]
    ports = [(await transport.start())[1] for transport in transports]
    builder, routings = build_overlay(dht, range(size))
    for address, transport in enumerate(transports):
        node = Node(address, transport)
        transport.attach_node(node)
        routings[address].rebind(node)
        transport.update_peers({peer: ("127.0.0.1", port)
                                for peer, port in enumerate(ports)
                                if peer != address})
    return builder, transports, routings


async def write_at_once(transport, messages):
    """Write the frames of ``messages`` to ``transport`` in one write."""
    _reader, writer = await asyncio.open_connection("127.0.0.1",
                                                    transport.listen_port)
    received = transport.frames_received
    writer.write(b"".join(encode_frame(message_to_wire(message))
                          for message in messages))
    await writer.drain()
    await wait_for(lambda: transport.frames_received == received + len(messages))
    return writer


def first_hop(routings, origin, key):
    """``(relay, coordinate)`` of ``key`` looked up from ``origin``; the
    relay is ``None`` when the origin answers the lookup itself."""
    layer = routings[origin]
    coord = layer._coordinate(key)
    return (None if answering_owner(layer, coord) is not None
            else layer._next_hop(coord)), coord


def two_lookups_meeting_at_a_relay(routings):
    """Two lookups from two origins that reach one relay on their first hop
    and leave it for the same next hop: ``(relay, [(origin, key)])``.
    Only keys the relay must forward qualify: a key it owns, or whose owner
    its table names, is answered there."""
    by_exit = {}
    for index in range(4000):
        key = hash_key("meet", index)
        origin = index % len(routings)
        relay, coord = first_hop(routings, origin, key)
        if relay is None or answering_owner(routings[relay], coord) is not None:
            continue
        exit_hop = routings[relay]._next_hop(coord, origin)
        found = by_exit.setdefault((relay, exit_hop), {})
        found.setdefault(origin, (origin, key))
        if len(found) == 2:
            return relay, list(found.values())
    raise AssertionError("no two lookups meet at a relay")


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_routed_batches_of_one_read_leave_a_relay_as_one(dht):
    async def scenario():
        builder, transports, routings = await loopback_overlay(dht, 8)
        relay, lookups = two_lookups_meeting_at_a_relay(routings)
        heard = {}
        for origin, _key in lookups:
            layer = routings[origin]
            genuine = layer.node._handlers[layer.PROTOCOL_BATCH_LOOKUP_REPLY]

            def on_reply(node, message, genuine=genuine):
                payload = message.payload
                heard[node.address, payload["request_id"]] = (
                    payload["owner"], payload["hops"], payload["keys"])
                genuine(node, message)

            layer.node.replace_handler(layer.PROTOCOL_BATCH_LOOKUP_REPLY,
                                       on_reply)
        sent = []
        transport = transports[relay]
        genuine_send = transport.send

        def recording_send(message):
            sent.append(message)
            genuine_send(message)

        transport.send = recording_send
        protocol = routings[relay].PROTOCOL_ROUTE_BATCH
        frames = [Message(origin, relay, protocol,
                          {"keys": [key], "runs": [(origin, 100 + origin, 1, 1)]},
                          8, 1)
                  for origin, key in lookups]
        writer = await write_at_once(transport, frames)
        await wait_for(lambda: len(heard) == 2)
        forwarded = [message for message in sent if message.protocol == protocol]
        assert len(forwarded) == 1
        assert forwarded[0].payload["runs"] == [
            (origin, 100 + origin, 2, 1) for origin, _key in lookups]
        for origin, key in lookups:
            owner, hops = walk_lookup(routings, origin, [key])[0][key]
            assert owner == builder.owner_of_key(key)
            assert heard[origin, 100 + origin] == (owner, hops, [key])
        assert routings[relay]._outbox == {}
        writer.close()
        for transport in transports:
            await transport.close()

    asyncio.run(scenario())


# ------------------------------------------------------- node result pump


class FakeClient:
    """The gateway connection's writer, stamping frames on the loop clock."""

    def __init__(self):
        self.frames = []
        self.closing = False
        self._decoder = FrameDecoder()

    def is_closing(self):
        return self.closing

    def write(self, data):
        now = asyncio.get_running_loop().time()
        self.frames.extend((now, frame) for frame in self._decoder.feed(data))

    def rows(self):
        return [row for _at, frame in self.frames for row in frame["rows"]]


@contextlib.asynccontextmanager
async def one_node_cluster():
    """An in-process ``PierNode`` that is its own (ready) cluster."""
    node = PierNode(listen=("127.0.0.1", 0))
    await node.start()
    try:
        yield node
    finally:
        node.detector.stop()
        node.provider.close()
        await node.transport.close()


def run_on_a_one_node_cluster(scenario):
    """``scenario(node, client, handle, query_id)`` with one (resultless) join
    submitted through the node's gateway."""

    async def main():
        async with one_node_cluster() as node:
            workload = JoinWorkload(WorkloadConfig(num_nodes=1,
                                                   s_tuples_per_node=2, seed=1))
            query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
            node.known_namespaces.update(
                table.namespace for table in query.tables)
            client = FakeClient()
            reply = node._rpc_submit({"query": query}, client)
            assert reply == {"query_id": query.query_id}
            handle = node._pumps[query.query_id].handle
            await asyncio.sleep(0.05)  # the (empty) dataflow runs dry
            assert client.frames == []
            await scenario(node, client, handle, query.query_id)

    asyncio.run(main())


def arrive(node: PierNode, handle: QueryHandle, rows):
    for row in rows:
        handle.record(node.node.now, {"k": row})


def record_flushes(node: PierNode):
    """The delays of the result flushes ``node`` arms from now on."""
    delays = []
    schedule = node.node.schedule

    def recording(delay, callback, *args):
        if callback == node._push_results:
            delays.append(delay)
        return schedule(delay, callback, *args)

    node.node.schedule = recording
    return delays


def test_rows_of_one_loop_turn_leave_in_one_frame_at_its_end():
    async def scenario(node, client, handle, query_id):
        flushes = record_flushes(node)
        arrive(node, handle, range(3))
        assert client.frames == [] and flushes == [0.0]  # no row waits an age
        await wait_for(lambda: client.frames)
        assert [len(frame["rows"]) for _at, frame in client.frames] == [3]
        frame = client.frames[0][1]
        assert (frame["t"], frame["kind"], frame["query_id"]) == ("evt", "rows", query_id)
        assert len(frame["times"]) == 3
        await asyncio.sleep(0.05)  # nothing ticks while idle
        assert len(client.frames) == 1 and flushes == [0.0]

    run_on_a_one_node_cluster(scenario)


def test_a_burst_leaves_at_the_end_of_its_turn_cut_into_full_frames():
    burst = 2 * RESULT_FLUSH_ROWS + 88

    async def scenario(node, client, handle, query_id):
        flushes = record_flushes(node)
        arrive(node, handle, range(burst))  # one loop turn, one flush
        assert client.frames == [] and flushes == [0.0]
        await wait_for(lambda: client.frames)
        sizes = [len(frame["rows"]) for _at, frame in client.frames]
        assert sizes == [RESULT_FLUSH_ROWS, RESULT_FLUSH_ROWS, 88]
        assert client.rows() == [{"k": k} for k in range(burst)]
        assert all(len(frame["times"]) == len(frame["rows"])
                   for _at, frame in client.frames)
        arrive(node, handle, [burst])  # the next turn arms its own flush
        await wait_for(lambda: len(client.frames) == 4)
        assert flushes == [0.0, 0.0] and client.rows()[-1] == {"k": burst}

    run_on_a_one_node_cluster(scenario)


def test_finish_flushes_the_rest_and_disarms_the_pump():
    async def scenario(node, client, handle, query_id):
        arrive(node, handle, range(4))
        assert client.frames == []
        node._rpc_finish({"query_id": query_id})
        assert client.rows() == [{"k": k} for k in range(4)]  # in one frame
        assert len(client.frames) == 1
        assert query_id not in node._pumps and handle.on_row is None
        arrive(node, handle, [99])  # a straggler after teardown goes nowhere
        await asyncio.sleep(0.05)   # and the armed flush finds no pump
        assert len(client.frames) == 1

    run_on_a_one_node_cluster(scenario)


def test_the_initiators_own_rows_are_produced_after_submit_and_pushed():
    """On a one-node cluster the whole join runs on the events after
    ``submit()`` — the query multicast delivers locally on the next event,
    once the pump listens — and every row reaches the client without a
    later arrival to push it."""

    async def main():
        async with one_node_cluster() as node:
            workload = JoinWorkload(WorkloadConfig(num_nodes=1,
                                                   s_tuples_per_node=8, seed=2))
            for relation, rows in ((workload.r_relation, workload.r_by_node[0]),
                                   (workload.s_relation, workload.s_by_node[0])):
                ids = [relation.resource_id(row) for row in rows]
                node._rpc_store({"chunks": [{
                    "namespace": relation.namespace, "publisher": 0,
                    "lifetime": 1e9, "item_bytes": relation.tuple_bytes,
                    "resource_ids": ids, "values": rows,
                    "keys": hash_keys(relation.namespace, ids)}]})
            expected = workload.expected_results()
            assert expected
            client = FakeClient()
            query = workload.make_query(strategy=JoinStrategy.FETCH_MATCHES)
            node._rpc_submit({"query": query}, client)
            assert node._pumps[query.query_id].handle.arrivals == []
            await wait_for(lambda: len(client.rows()) == len(expected))
            assert (sorted(map(sorted, map(dict.items, client.rows())))
                    == sorted(map(sorted, map(dict.items, expected))))
            node._rpc_finish({"query_id": query.query_id})

    asyncio.run(main())


def test_a_real_node_arms_the_state_reaper_and_finish_cancels_it():
    """A real cluster can lose a node at any moment, so every executor
    reaps: the query's state holds a one-shot background reaper at its
    soft-state deadline, and a normal teardown cancels it."""

    async def main():
        async with one_node_cluster() as node:
            executor = node.executor
            reapers = []
            schedule = node.node.schedule_background

            def recording(delay, callback, *args):
                handle = schedule(delay, callback, *args)
                if callback == executor._teardown_local:
                    reapers.append((handle, args))
                return handle

            node.node.schedule_background = recording
            workload = JoinWorkload(WorkloadConfig(num_nodes=1,
                                                   s_tuples_per_node=2, seed=1))
            query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
            node.known_namespaces.update(
                table.namespace for table in query.tables)
            node._rpc_submit({"query": query}, FakeClient())
            await wait_for(lambda: executor.has_query_state(query.query_id))
            ((reaper, args),) = reapers
            assert args == (query.query_id,)
            assert reaper in executor._states[query.query_id].timers
            assert reaper.time - node.node.now == pytest.approx(
                query.temp_lifetime_s + 1.0, abs=0.5)
            node._rpc_finish({"query_id": query.query_id})
            await wait_for(lambda: not executor.has_query_state(query.query_id))
            assert reaper.cancelled

    asyncio.run(main())


def test_a_client_that_hung_up_stops_its_pump():
    async def scenario(node, client, handle, query_id):
        arrive(node, handle, range(3))
        client.closing = True
        await asyncio.sleep(0.05)  # the end-of-turn flush finds it closed
        assert query_id not in node._pumps and handle.on_row is None
        assert client.frames == []

    run_on_a_one_node_cluster(scenario)


# ---------------------------------------------------- client gateway pump


def rows_frame(query_id, rows):
    return encode_frame({"t": "evt", "kind": "rows", "query_id": query_id,
                         "rows": rows, "times": [0.25] * len(rows)})


def test_gateway_pump_returns_on_the_first_frame_not_at_the_deadline():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    conn = GatewayConnection(*listener.getsockname())
    node, _address = listener.accept()
    try:
        handle = conn.handles[7] = QueryHandle(None, submitted_at=time.monotonic())

        def timed(call, *args):
            started = time.monotonic()
            return call(*args), time.monotonic() - started

        node.sendall(rows_frame(7, [{"a": 1}]) + rows_frame(7, [{"a": 2}]))
        dispatched, elapsed = timed(conn.pump, time.monotonic() + 5.0)
        assert dispatched == 2 and elapsed < 1.0
        assert handle.rows == [{"a": 1}, {"a": 2}]
        # Silence is waited out, exactly until the deadline.
        dispatched, elapsed = timed(conn.pump, time.monotonic() + 0.05)
        assert dispatched == 0 and 0.04 <= elapsed < 1.0
        # Half a frame is no frame: the pump keeps blocking for the rest.
        frame = rows_frame(7, [{"a": 3}])
        node.sendall(frame[:7])
        assert conn.pump(time.monotonic() + 0.05) == 0
        node.sendall(frame[7:])
        dispatched, elapsed = timed(conn.pump, time.monotonic() + 5.0)
        assert dispatched == 1 and elapsed < 1.0 and len(handle.rows) == 3
        # Dispatch stops behind a response: the session's status reply is
        # read, the row frame that followed it waits for the next pump.
        status = {"t": "res", "id": 1, "ok": True, "ready": True,
                  "address": 0, "nodes": {0: list(listener.getsockname())},
                  "config": {"dht": "can", "can_dimensions": 2}}
        node.sendall(encode_frame(status) + rows_frame(7, [{"a": 4}]))
        pier = RemotePier(conn)
        assert FrameDecoder().feed(node.recv(65536))[0]["op"] == "status"
        assert len(handle.rows) == 3
        # RemotePier.wait is one pump: back on the first frame, before until ...
        until = time.monotonic() + 5.0
        next_time, elapsed = timed(pier.wait, until)
        assert next_time < until and elapsed < 1.0 and len(handle.rows) == 4
        # ... a silent socket is waited out until ``until`` ...
        until = time.monotonic() + 0.05
        next_time, elapsed = timed(pier.wait, until)
        assert next_time >= until and 0.04 <= elapsed < 1.0
        # ... and wait(None) has nothing to drain.
        next_time, elapsed = timed(pier.wait, None)
        assert next_time is None and elapsed < 0.01
        node.close()
        with pytest.raises(NetworkError):
            conn.pump(time.monotonic() + 1.0)
    finally:
        conn.close()
        node.close()
        listener.close()


@pytest.mark.parametrize("seconds", ["0", "-1", "nan"])
def test_the_node_cli_refuses_a_request_timeout_that_is_not_positive(
        seconds, capsys):
    """A real node always bounds its gets: ``--request-timeout 0`` is an
    error, not a way to turn the timeout off."""
    parser = build_arg_parser()
    assert parser.parse_args(["--listen", "127.0.0.1:1"]).request_timeout == 10.0
    with pytest.raises(SystemExit):
        parser.parse_args(["--listen", "127.0.0.1:1",
                           "--request-timeout", seconds])
    assert "positive number of seconds" in capsys.readouterr().err
