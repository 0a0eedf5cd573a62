"""Real-network transport: asyncio TCP sockets and wall-clock timers.

This is the second implementation of the :class:`repro.net.transport.Transport`
seam.  One :class:`RealTransport` hosts exactly one :class:`repro.net.node.Node`
per OS process; remote addresses resolve to ``(host, port)`` endpoints and
messages travel as length-prefixed msgpack frames (:mod:`repro.net.wire`).

Design notes
------------
* **Single-threaded.**  Everything — socket reads, handler dispatch, timers —
  runs on one asyncio event loop, which preserves the run-to-completion
  semantics handlers enjoy under the simulator (no locks anywhere above the
  transport).
* **Connection pooling.**  One pooled outbound connection per peer, created
  lazily and owned by a writer task that drains a per-peer queue, so sends
  never block the caller.  A broken connection is re-established with
  exponential backoff; in-flight and queued frames are retried on the new
  connection (peers tolerate duplicates the same way they tolerate
  re-multicasts — soft state).
* **One write per drain.**  The writer task ships everything queued behind
  the message that woke it (at most ``MAX_BATCH_MESSAGES``) as one ``write``
  + one ``drain()``, so a handler that sends hundreds of one-row messages in
  a loop turn costs one syscall.  The batch is the unit of failure handling:
  it stays on the peer until the drain returns, and a retry or a bounce
  covers all of it (a message the codec refuses to encode bounces alone; the
  rest of its batch is written).  Nothing is ever read from a pooled connection; the task
  keeps its ``StreamReader`` only to ask it *before* each write whether the
  peer hung up (``at_eof()`` after a FIN, ``exception()`` after a reset), so
  a batch queued behind a dead connection is retried, not written and lost.
* **Bounce semantics.**  When a peer stays unreachable past the backoff
  budget, the in-flight batch and every queued message are handed to the
  local node's ``deliver_bounce`` — the same "transport timeout" notification
  the simulator synthesises for dead destinations, so the DHT's
  re-route/repair paths work unchanged.
* **One delivery scope per hand-over.**  The frames of one ``reader.read``,
  a local send or the bounces of one peer reach the node in one delivery
  scope (:mod:`repro.net.node`), opened only by :meth:`RealTransport._hand_over`:
  a relay forwards what one read brought in as one routed batch per next hop.
* **Wall-clock timers.**  :class:`WallClockTimers` adapts ``loop.call_later``
  to the Simulator's ``schedule`` surface (``schedule_periodic`` is the
  shared one built on it); handles support ``cancel()`` exactly like the
  virtual-clock ones.
"""

from __future__ import annotations

import asyncio
import functools
import logging
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.message import Message
from repro.net.node import Node
from repro.net.transport import TimerService, Transport
from repro.net.wire import (
    FrameDecoder,
    WireError,
    encode_frame,
    message_from_wire,
    message_to_wire,
)

log = logging.getLogger("repro.net.real")

#: Reconnect backoff schedule (seconds): initial, multiplier, cap.
RECONNECT_INITIAL_S = 0.05
RECONNECT_MULTIPLIER = 2.0
RECONNECT_CAP_S = 2.0
#: Consecutive failed connection attempts before queued messages bounce.
MAX_CONNECT_ATTEMPTS = 4
#: Most messages one ``write`` carries (bounds the encode time per loop turn).
MAX_BATCH_MESSAGES = 256


class _WallClockHandle:
    """One-shot timer handle mirroring :class:`repro.net.simulator.EventHandle`."""

    __slots__ = ("_timer", "time", "cancelled")

    def __init__(self, timer: asyncio.TimerHandle, due: float):
        self._timer = timer
        self.time = due
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self._timer.cancel()


class WallClockTimers(TimerService):
    """The Simulator's timer surface over ``loop.call_later``.

    The clock is the event loop's monotonic clock; soft-state expiry,
    sweeps and request timeouts all read it through ``now`` exactly as they
    read virtual time under the simulator.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop

    @property
    def now(self) -> float:
        return self._loop.time()

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> _WallClockHandle:
        delay = max(0.0, delay)
        timer = self._loop.call_later(delay, callback, *args)
        return _WallClockHandle(timer, self.now + delay)


class _Peer:
    """Pooled outbound connection to one remote node.

    ``pending`` is the batch the writer loop is currently trying to
    deliver; it lives on the peer (not in a loop-local variable) so a
    shutdown can see it and bounce it instead of silently dropping it.
    """

    __slots__ = ("endpoint", "queue", "task", "pending")

    def __init__(self, endpoint: Tuple[str, int]):
        self.endpoint = endpoint
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None
        self.pending: List[Message] = []


class RealTransport(Transport):
    """asyncio-TCP transport hosting one node of a real cluster.

    Parameters
    ----------
    address:
        This node's overlay address (re-assigned by the join handshake
        before the node attaches).
    listen_host, listen_port:
        Where :meth:`start` binds the frame server.

    Frames in both directions are held to the codec's ``MAX_FRAME_BYTES``.
    """

    def __init__(self, address: int, listen_host: str = "127.0.0.1",
                 listen_port: int = 0):
        self.address = int(address)
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.node: Optional[Node] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._timers: Optional[WallClockTimers] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: overlay address -> (host, port) of every known peer.
        self.peers: Dict[int, Tuple[str, int]] = {}
        self._pool: Dict[int, _Peer] = {}
        #: Frame handlers for non-"msg" frame kinds (join handshake, gateway RPC):
        #: kind -> (callable(writer, frame_dict), required fields).
        self._frame_handlers: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {}
        self._closing = False
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reconnects = 0
        self.bounces = 0

    # ------------------------------------------------------------ transport

    @property
    def timers(self) -> WallClockTimers:
        if self._timers is None:
            raise RuntimeError("transport not started: timers unavailable")
        return self._timers

    def attach_node(self, node: Node) -> None:
        """Bind the (single) local node this transport delivers to."""
        self.node = node

    def register_frame_handler(self, kind: str, handler: Callable,
                               fields: Tuple[str, ...] = ()) -> None:
        """Register a handler for frames whose ``"t"`` field equals ``kind``.

        The handler receives ``(writer, frame)`` and runs on the event loop;
        the join handshake and the client gateway plug in here, sharing
        the node-to-node framing and server socket.  A frame without one of
        ``fields`` is dropped with a warning before the handler sees it, and
        one the handler raises on is dropped with the traceback logged; the
        rest of the read is dispatched either way.
        """
        self._frame_handlers[kind] = (handler, fields)

    def update_peers(self, peers: Dict[int, Tuple[str, int]]) -> None:
        """Install/extend the address book (from the membership broadcast)."""
        for address, endpoint in peers.items():
            self.peers[int(address)] = (endpoint[0], int(endpoint[1]))

    def send(self, message: Message) -> None:
        """Queue a message for delivery; never blocks, never raises remotely."""
        if self._closing:
            # A shutdown is bouncing queued frames; handlers reacting to
            # those bounces (re-routes, retries) must not refill the pool.
            return
        self.frames_sent += 1
        if message.dst == self.address:
            # Local sends stay asynchronous, as under the simulator: the
            # handler must not run inside the caller's stack frame.
            self._loop.call_soon(self._hand_over, self._deliver_local, [message])
            return
        peer = self._pool.get(message.dst)
        if peer is None:
            endpoint = self.peers.get(message.dst)
            if endpoint is None:
                # Unknown peer: indistinguishable from a dead one.
                self._bounce([message])
                return
            peer = _Peer(endpoint)
            self._pool[message.dst] = peer
            peer.task = self._loop.create_task(self._run_peer(message.dst, peer))
        peer.queue.put_nowait(message)

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind the frame server; returns the actual (host, port) bound."""
        self._loop = asyncio.get_running_loop()
        self._timers = WallClockTimers(self._loop)
        self._server = await asyncio.start_server(
            self._serve_connection, self.listen_host, self.listen_port
        )
        sockname = self._server.sockets[0].getsockname()
        self.listen_port = sockname[1]
        return sockname[0], sockname[1]

    async def close(self) -> None:
        """Stop the server and tear down every pooled connection.

        Per-peer writer tasks (including ones parked in a reconnect
        backoff sleep) are cancelled *and awaited*, so no asyncio task
        outlives the transport; every frame still queued or mid-retry is
        bounced through ``deliver_bounce``, mirroring what the simulator
        reports for messages in flight to a node that died.  Sends issued
        by bounce handlers during the teardown are dropped.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for peer in self._pool.values():
            if peer.task is not None:
                peer.task.cancel()
        tasks = [p.task for p in self._pool.values() if p.task is not None]
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception:  # noqa: BLE001 — close() must finish, but a
                # writer task that *crashed* (vs. was cancelled) is a real
                # defect: surface it instead of swallowing it.
                log.exception("peer writer task failed during close")
        for peer in self._pool.values():
            self._drain_peer(peer)
        self._pool.clear()

    def forget_peer(self, address: int) -> None:
        """Drop the pooled connection (and address book entry) for a peer.

        Used when membership changes remove a node: its writer task is
        cancelled and any frames still queued for it bounce immediately.
        A later send to the same address re-resolves through ``peers``.
        """
        self.peers.pop(address, None)
        peer = self._pool.pop(address, None)
        if peer is None:
            return
        if peer.task is not None:
            peer.task.cancel()
        self._drain_peer(peer)

    def _drain_peer(self, peer: _Peer) -> None:
        """Bounce the in-flight batch and everything queued behind it."""
        batch, peer.pending = peer.pending, []
        while not peer.queue.empty():
            batch.append(peer.queue.get_nowait())
        self._bounce(batch)

    # ------------------------------------------------------------- inbound

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                self.bytes_received += len(data)
                frames = decoder.feed(data)
                self.frames_received += len(frames)
                self._hand_over(functools.partial(self._dispatch_frame, writer),
                                frames)
        except (ConnectionError, WireError, asyncio.IncompleteReadError) as exc:
            log.debug("node %s: inbound connection dropped: %s", self.address, exc)
        except asyncio.CancelledError:
            # Loop shutdown (asyncio.run cancelling leftover connection
            # tasks): exit quietly; the writer is closed on the way out.
            pass
        finally:
            writer.close()

    def _hand_over(self, deliver: Callable[[Any], None], items: List[Any]) -> None:
        """``deliver`` each of ``items`` inside one delivery scope of the node:
        the one place this transport opens a scope, closed even if one raises."""
        node = self.node
        opened = node is not None and node.open_scope()
        try:
            for item in items:
                deliver(item)
        finally:
            if opened:
                node.close_scope()

    def _dispatch_frame(self, writer: asyncio.StreamWriter, frame: Any) -> None:
        if not isinstance(frame, dict):
            log.warning("node %s: discarding non-dict frame %r", self.address, frame)
            return
        kind = frame.get("t")
        if kind == "msg":
            try:
                message = message_from_wire(frame)
            except WireError as exc:
                log.warning("node %s: discarding malformed frame: %s",
                            self.address, exc)
                return
            self._deliver_local(message)
            return
        handler, fields = self._frame_handlers.get(kind, (None, ()))
        if handler is None:
            log.warning("node %s: no handler for frame kind %r", self.address, kind)
            return
        missing = [name for name in fields if name not in frame]
        if missing:
            log.warning("node %s: discarding %r frame without %s",
                        self.address, kind, ", ".join(missing))
            return
        try:
            handler(writer, frame)
        except Exception:  # noqa: BLE001 — one bad frame must not end the read
            log.exception("node %s: discarding %r frame its handler refused",
                          self.address, kind)

    def _deliver_local(self, message: Message) -> None:
        if self.node is None:
            return
        try:
            self.node.deliver(message)
        except Exception:  # noqa: BLE001 — a bad handler must not kill the loop
            log.exception("node %s: handler for %r failed",
                          self.address, message.protocol)

    # ------------------------------------------------------------- outbound

    async def _run_peer(self, dst: int, peer: _Peer) -> None:
        """Writer loop for one peer: connect (with backoff), drain the queue.

        Runs until cancelled.  After ``MAX_CONNECT_ATTEMPTS`` consecutive
        connection failures the queued messages bounce and the backoff
        resets — a peer that later comes back is picked up by the next send.
        """
        reader: Optional[asyncio.StreamReader] = None
        writer: Optional[asyncio.StreamWriter] = None
        failures = 0
        backoff = RECONNECT_INITIAL_S
        try:
            while True:
                batch = peer.pending
                if not batch:
                    batch.append(await peer.queue.get())
                while len(batch) < MAX_BATCH_MESSAGES and not peer.queue.empty():
                    batch.append(peer.queue.get_nowait())
                if writer is None:
                    try:
                        reader, writer = await asyncio.open_connection(*peer.endpoint)
                        failures = 0
                        backoff = RECONNECT_INITIAL_S
                    except OSError:
                        failures += 1
                        if failures >= MAX_CONNECT_ATTEMPTS:
                            self._drain_peer(peer)
                            failures = 0
                            backoff = RECONNECT_INITIAL_S
                            continue
                        await asyncio.sleep(backoff)
                        backoff = min(backoff * RECONNECT_MULTIPLIER,
                                      RECONNECT_CAP_S)
                        continue
                try:
                    if reader.at_eof() or reader.exception() is not None:
                        raise ConnectionResetError("peer closed the connection")
                    data = self._encode_batch(batch)
                    writer.write(data)
                    await writer.drain()
                    self.bytes_sent += len(data)
                    batch.clear()
                except (ConnectionError, OSError):
                    # Connection found dead, or died mid-write: reconnect
                    # and retry the whole batch (receivers tolerate the
                    # possible duplicates).
                    self.reconnects += 1
                    try:
                        writer.close()
                    except Exception:  # noqa: BLE001
                        pass
                    writer = None
        finally:
            if writer is not None:
                try:
                    writer.close()
                except Exception:  # noqa: BLE001
                    pass

    def _encode_batch(self, batch: List[Message]) -> bytes:
        """The frames of ``batch``, back to back.  A message the codec refuses
        (oversized frame, non-repro object) leaves the batch and bounces on
        its own: it must not take the writer task or its neighbours down."""
        frames: List[bytes] = []
        refused: List[Message] = []
        for message in batch:
            try:
                frames.append(encode_frame(message_to_wire(message)))
            except WireError as exc:
                log.error("node %s: dropping unencodable %r message to %s: %s",
                          self.address, message.protocol, message.dst, exc)
                refused.append(message)
        if refused:
            batch[:] = [message for message in batch if message not in refused]
            self._bounce(refused)
        return b"".join(frames)

    def _bounce(self, messages: List[Message]) -> None:
        """Local failure notifications, mirroring the simulator's bounce."""
        self.bounces += len(messages)
        if self.node is not None:
            self._hand_over(self.node.deliver_bounce, messages)

    # ------------------------------------------------------------- helpers

    def push_frame(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        """Write a control frame (RPC response, event) to a live connection."""
        data = encode_frame(frame)
        writer.write(data)
        self.bytes_sent += len(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RealTransport(address={self.address}, "
                f"listen={self.listen_host}:{self.listen_port}, "
                f"peers={len(self.peers)})")
