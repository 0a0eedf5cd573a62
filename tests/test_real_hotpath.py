"""The real backend's hot path between two frames of a query.

* ``RealTransport`` ships everything queued behind a message in **one**
  write, checks the connection for EOF *before* writing, and retries or
  bounces the in-flight batch as a whole;
* the node's result pump pushes the rows of one loop turn at its end through
  a one-shot zero-delay flush, cut into frames of ``RESULT_FLUSH_ROWS``
  (no periodic timer, no row waits for an age);
* ``GatewayConnection.pump`` blocks on the socket and returns as soon as it
  dispatched a frame, and no later than behind a response;
  ``RemotePier.wait`` is one such pump, and ``wait(None)`` does not block;
* a real node's executor is failure-aware: each query's state holds a
  reaper timer, which ``finish`` cancels.

No subprocess clusters here: raw asyncio servers, an in-process one-node
``PierNode`` and a plain listening socket stand in for the peers.
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
from repro.net.node import Node
from repro.net.real import MAX_BATCH_MESSAGES, RealTransport
from repro.net.wire import FrameDecoder, encode_frame
from repro.node import RESULT_FLUSH_ROWS, PierNode
from repro.remote import GatewayConnection, RemotePier
from repro.workloads import JoinWorkload, WorkloadConfig


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
    node = PierNode(listen=("127.0.0.1", 0), nodes=1)
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
                node._rpc_store({"items": [
                    {"namespace": relation.namespace, "value": row,
                     "resource_id": relation.resource_id(row)} for row in rows]})
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
    """A real cluster can lose a node at any moment, so a node process runs
    a failure-aware executor: the query's state holds a one-shot reaper at
    its soft-state deadline, and a normal teardown cancels it."""

    async def main():
        async with one_node_cluster() as node:
            executor = node.executor
            reapers = []
            schedule = node.node.schedule

            def recording(delay, callback, *args):
                handle = schedule(delay, callback, *args)
                if callback == executor._expire_stale_states:
                    reapers.append(handle)
                return handle

            node.node.schedule = recording
            workload = JoinWorkload(WorkloadConfig(num_nodes=1,
                                                   s_tuples_per_node=2, seed=1))
            query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
            node.known_namespaces.update(
                table.namespace for table in query.tables)
            node._rpc_submit({"query": query}, FakeClient())
            await wait_for(lambda: executor.has_query_state(query.query_id))
            (reaper,) = reapers
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
                  "config": {"dht": "can", "can_dimensions": 2, "seed": 0}}
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
