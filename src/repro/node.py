"""Standalone PIER node process: ``python -m repro.node``.

Boots one node of a *real* cluster — asyncio TCP transport, wall-clock
timers — running the exact same DHT/Provider/executor stack the simulator
drives.  A cluster grows one join at a time, keeps its membership **live**
(joins, graceful leaves, heartbeat-detected crashes), and serves queries to
remote :class:`repro.client.PierClient` sessions through a gateway RPC
surface.

Membership
----------
The first process is started without ``--join``: it takes overlay address
0 and is at once a ready one-node cluster.  Its ``--dht``, CAN dimensions,
sweep and heartbeat periods, suspicion and request timeouts are the
cluster's configuration::

    python -m repro.node --listen 127.0.0.1:9100

Every other process — at boot or at any later time — joins through a live
member::

    python -m repro.node --listen 127.0.0.1:9101 --join 127.0.0.1:9100

* **Join** — the joiner sends a ``hello`` frame carrying its advertised
  endpoint.  The member it contacted assigns it the next free overlay
  address and replies with a ``mem`` frame: the membership map, the
  membership *epoch*, the cluster configuration and the namespaces known
  to hold data.  The joiner builds the full stabilised overlay *locally*
  (the network builders are deterministic functions of the address list —
  see :func:`repro.stack.build_overlay`), rebinds its own routing layer
  onto its socket-backed node and acks with a ``joined`` frame.  Only then
  does the admitting member bump the epoch and broadcast a
  ``cluster.update``.  Every member folds the new address list in by
  deterministically rebuilding its routing tables
  (:meth:`repro.dht.api.RoutingLayer.rebind`) and migrating the stored
  items whose ownership moved (``cluster.transfer``, lifetimes rebased to
  the receiver's clock).  No routing messages cross the wire, mirroring the
  paper's "measurements start after the CAN routing stabilizes".
* **Graceful leave** — the ``leave`` RPC makes a node tear down its local
  dataflows, hand off everything it stores to the owners under the
  surviving overlay, broadcast the shrunk membership, and exit.
* **Crash** — a ``kill -9`` just stops answering.  Each node runs a
  :class:`repro.net.failures.HeartbeatFailureDetector` over its routing
  neighbours; after ``--suspicion-timeout`` seconds of silence (the
  paper's 15 s keep-alive model) the failure is *confirmed* and the same
  :class:`repro.stack.NodeStack` transitions the simulator's injector
  drives fire here: routing marks the peer dead and heals, its statistics
  partials are purged everywhere (``cluster.dead`` broadcast), and
  in-flight requests resolve through the Provider's bounce/timeout lanes
  so queries degrade instead of hanging.  A crashed node keeps its overlay
  address (ownership does not remap), exactly like the simulator's model.

Gateway RPC
-----------
Clients speak the same length-prefixed msgpack framing as nodes do
(:mod:`repro.net.wire`), with ``{"t": "rpc", "id": ..., "op": ...}``
frames:

* ``status`` — readiness, this node's address, the full membership map.
* ``store`` — store this node's share of a fast load (see
  :class:`repro.remote.RemotePier`): ``chunks`` of parallel
  ``resource_ids`` / ``values`` / ``keys`` arrays with their ``namespace``,
  ``publisher``, ``lifetime`` and ``item_bytes``, each item given a fresh
  instanceID and each chunk stored by ``Provider.store_chunk``, the owner
  side of a routed put.  A malformed frame is refused whole.
* ``submit`` — run a :class:`repro.core.query.QuerySpec` from this node
  under a query id its executor assigns (its address, then its own count);
  the reply carries the id and precedes every row, which stream back as
  ``{"t": "evt"}`` frames — the rows of one event-loop turn at its end, 256
  to a frame.
* ``finish`` — tear the query's distributed dataflow down everywhere.
* ``completeness`` — this node's share of a query's delivery accounting.
* ``scan_count`` / ``scan`` — the local item count / the local
  :class:`repro.dht.storage.StoredItem` records of a namespace (diagnostics).
* ``shutdown`` — stop this node process (the docker-compose demo's clean
  exit).
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.core.executor import QueryExecutor, QueryHandle
from repro.core.stats import STATS_NAMESPACE
from repro.dht.provider import (DEFAULT_SWEEP_PERIOD_S, REQUEST_TIMEOUT_S,
                                Provider)
from repro.dht.storage import StoredItem
from repro.exceptions import NodeNotReadyError, UnknownNamespaceError
from repro.net.failures import (
    DEFAULT_DETECTION_DELAY_S,
    DEFAULT_HEARTBEAT_PERIOD_S,
    HeartbeatFailureDetector,
)
from repro.net.node import Node
from repro.net.real import RealTransport
from repro.net.wire import FrameDecoder, encode_frame
from repro.stack import NodeStack, build_overlay

log = logging.getLogger("repro.node")

#: Most result rows one ``evt`` frame carries; the rows of one loop turn
#: leave at its end, cut into frames of this many.
RESULT_FLUSH_ROWS = 256
#: How long a leaving node lingers so its hand-off frames flush.
LEAVE_LINGER_S = 0.5
#: Fields of one ``store`` chunk: its parallel arrays, then what its items share.
STORE_CHUNK_FIELDS = ("resource_ids", "values", "keys",
                      "namespace", "publisher", "lifetime", "item_bytes")
#: Parallel arrays of one ``cluster.transfer``, one element per moved item.
TRANSFER_FIELDS = ("namespaces", "resource_ids", "instance_ids", "values",
                   "keys", "lifetimes", "publishers", "size_bytes")


def _parallel_lists(record: dict, fields: Tuple[str, ...], what: str) -> List[list]:
    """``record``'s ``fields``, refused unless they are lists of one length
    whose ``resource_ids`` are hashable."""
    arrays = [record.get(field) for field in fields]
    if not (all(type(array) is list for array in arrays)
            and len(set(map(len, arrays))) == 1):
        raise ValueError(f"{what} carries the lists {fields}, all of one length")
    hash(tuple(record["resource_ids"]))  # an unhashable resourceID raises
    return arrays


def _checked_store_chunks(frame: dict) -> List[dict]:
    """A ``store`` frame's chunks, all checked before any is stored: every
    field present, ``values`` too; the arrays lists of one length; hashable
    resourceIDs; a ``str`` namespace, numeric lifetime and ``int`` size."""
    chunks = frame.get("chunks")
    if type(chunks) is not list or not all(type(c) is dict for c in chunks):
        raise ValueError("a store frame carries a list of chunks")
    for chunk in chunks:
        _parallel_lists(chunk, STORE_CHUNK_FIELDS[:3], "a store chunk")
        if not ("publisher" in chunk and isinstance(chunk.get("namespace"), str)
                and isinstance(chunk.get("lifetime"), (int, float))
                and isinstance(chunk.get("item_bytes"), int)):
            raise ValueError(f"a store chunk has the fields {STORE_CHUNK_FIELDS}")
    return chunks


def _checked_transfer(payload: dict) -> List[list]:
    """A ``cluster.transfer``'s arrays in :data:`TRANSFER_FIELDS` order,
    checked whole before any item is stored: lists of one length, hashable
    resourceIDs, ``str`` namespaces, ``int`` instanceIDs, keys and sizes and
    numeric lifetimes."""
    arrays = _parallel_lists(payload, TRANSFER_FIELDS, "a transfer")
    namespaces, _, instance_ids, _, keys, lifetimes, _, sizes = arrays
    if not (all(type(namespace) is str for namespace in namespaces)
            and all(type(value) is int for value in (*instance_ids, *keys, *sizes))
            and all(type(lifetime) in (int, float) for lifetime in lifetimes)):
        raise ValueError("a transfer item has a malformed field")
    return arrays


def parse_endpoint(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (the only endpoint syntax the CLI accepts)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def positive_seconds(text: str) -> float:
    """Parse a duration in seconds that must be greater than zero."""
    seconds = float(text)
    if not seconds > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds, got {text!r}")
    return seconds


class _ResultPump:
    """Streams one query's arriving rows to the client that submitted it."""

    __slots__ = ("handle", "writer", "sent")

    def __init__(self, handle: QueryHandle, writer: asyncio.StreamWriter):
        self.handle = handle
        self.writer = writer
        self.sent = 0


class PierNode:
    """One real-cluster node: transport + DHT + Provider + executor + gateway."""

    def __init__(self, listen: Tuple[str, int],
                 advertise: Optional[Tuple[str, int]] = None,
                 join: Optional[Tuple[str, int]] = None,
                 dht: str = "can", can_dimensions: int = 2,
                 sweep_period_s: float = DEFAULT_SWEEP_PERIOD_S,
                 heartbeat_period_s: float = DEFAULT_HEARTBEAT_PERIOD_S,
                 suspicion_timeout_s: float = DEFAULT_DETECTION_DELAY_S,
                 request_timeout_s: float = REQUEST_TIMEOUT_S):
        self.listen = listen
        self.advertise = advertise or listen
        self.join_endpoint = join
        self.config: Dict[str, Any] = {
            "dht": dht,
            "can_dimensions": can_dimensions,
            "sweep_period_s": sweep_period_s,
            "heartbeat_period_s": heartbeat_period_s,
            "suspicion_timeout_s": suspicion_timeout_s,
            "request_timeout_s": request_timeout_s,
        }
        self.transport = RealTransport(0, listen[0], listen[1])
        self.node: Optional[Node] = None
        self.stack: Optional[NodeStack] = None
        self.provider: Optional[Provider] = None
        self.executor: Optional[QueryExecutor] = None
        self.detector: Optional[HeartbeatFailureDetector] = None
        self.ready = False
        self.membership: Dict[int, Tuple[str, int]] = {}
        #: Monotonic membership version; every ``cluster.update`` carries it.
        self.epoch = 0
        #: Confirmed-dead members (kept in the overlay; routed around).
        self.confirmed_dead: set = set()
        #: Namespaces known to hold data somewhere in the cluster.
        self.known_namespaces: set = set()
        self._builder = None
        self._pumps: Dict[int, _ResultPump] = {}
        #: address -> endpoint of admitted joiners awaiting their ``joined`` ack.
        self._pending_admissions: Dict[int, Tuple[str, int]] = {}
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the server, join through a member (or found the cluster),
        assemble the stack."""
        self.transport.register_frame_handler("hello", self._on_hello,
                                              fields=("host", "port"))
        self.transport.register_frame_handler("joined", self._on_joined,
                                              fields=("address",))
        self.transport.register_frame_handler("rpc", self._on_rpc)
        host, port = await self.transport.start()
        log.info("listening on %s:%d (advertising %s:%d)",
                 host, port, *self.advertise)
        if self.join_endpoint is None:
            self.membership[0] = self.advertise
            self._assemble()
        else:
            ack_writer = await self._join()
            self._assemble()
            # Ack only once the stack is assembled, so item migrations
            # triggered by the membership broadcast find a node that can
            # store them.
            ack_writer.write(encode_frame({
                "t": "joined", "address": self.node.address,
            }))
            await ack_writer.drain()
            ack_writer.close()
        log.info("node %d ready (%d-node %s overlay, epoch %d)",
                 self.node.address, len(self.membership), self.config["dht"],
                 self.epoch)

    async def run_forever(self) -> None:
        await self.start()
        await self._stopping.wait()
        if self.provider is not None:
            self.provider.close()
        await self.transport.close()

    def _on_hello(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        if not self.ready:
            log.warning("ignoring hello frame: this node is still assembling")
            return
        self._admit_joiner(writer, (frame["host"], int(frame["port"])))

    def _admit_joiner(self, writer: asyncio.StreamWriter,
                      endpoint: Tuple[str, int]) -> None:
        """Assign the joiner the next address, send it the membership map.

        The new member is *not* broadcast yet — that happens when its
        ``joined`` ack arrives, proving it has assembled and can answer
        for (and receive migrations into) its key range.
        """
        taken = set(self.membership) | set(self._pending_admissions)
        address = max(taken) + 1
        self._pending_admissions[address] = endpoint
        nodes = {a: list(e) for a, e in self.membership.items()}
        nodes[address] = list(endpoint)
        self.transport.push_frame(writer, {
            "t": "mem", "you": address, "epoch": self.epoch, "nodes": nodes,
            "config": self.config,
            "namespaces": sorted(self.known_namespaces),
        })
        log.info("admitting joiner %d from %s:%d (awaiting ack)",
                 address, *endpoint)

    def _on_joined(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        """An admitted joiner finished assembling: commit it."""
        address = int(frame["address"])
        endpoint = self._pending_admissions.pop(address, None)
        if endpoint is None:
            log.warning("ignoring joined ack for unknown admission %d", address)
            return
        nodes = dict(self.membership)
        nodes[address] = endpoint
        self.epoch += 1
        log.info("member %d joined; broadcasting epoch %d (%d nodes)",
                 address, self.epoch, len(nodes))
        self._apply_membership(nodes, self.epoch)
        self._broadcast_membership()

    async def _join(self) -> asyncio.StreamWriter:
        """Register with a member and wait for its ``mem`` reply.

        Returns the open connection so the caller can ack with ``joined``
        *after* assembling.
        """
        reader, writer = await self._connect_with_retry(self.join_endpoint)
        writer.write(encode_frame({
            "t": "hello", "host": self.advertise[0], "port": self.advertise[1],
        }))
        await writer.drain()
        decoder = FrameDecoder()
        membership_frame = None
        while membership_frame is None:
            data = await reader.read(65536)
            if not data:
                raise SystemExit("the contacted member closed the connection "
                                 "before sending the membership")
            for frame in decoder.feed(data):
                if isinstance(frame, dict) and frame.get("t") == "mem":
                    membership_frame = frame
        self.transport.address = int(membership_frame["you"])
        self.config.update(membership_frame["config"])
        self.epoch = int(membership_frame["epoch"])
        self.membership = {
            int(a): (e[0], int(e[1]))
            for a, e in membership_frame["nodes"].items()
        }
        self.known_namespaces.update(membership_frame["namespaces"])
        return writer

    @staticmethod
    async def _connect_with_retry(endpoint: Tuple[str, int], attempts: int = 200,
                                  delay_s: float = 0.05):
        """Joiners may start before the member's socket is up; retry."""
        last: Optional[OSError] = None
        for _ in range(attempts):
            try:
                return await asyncio.open_connection(*endpoint)
            except OSError as exc:
                last = exc
                await asyncio.sleep(delay_s)
        raise SystemExit(f"cannot reach member at {endpoint}: {last}")

    def _assemble(self) -> None:
        """Build node + overlay + Provider + executor on this transport."""
        self.transport.update_peers(self.membership)
        self.node = Node(self.transport.address, self.transport)
        self.transport.attach_node(self.node)
        routing = self._build_routing()
        self.stack = NodeStack(
            self.node, routing,
            sweep_period_s=self.config["sweep_period_s"],
            request_timeout_s=float(self.config["request_timeout_s"]),
        )
        self.provider = self.stack.provider
        self.executor = self.stack.executor
        self.node.register_handler("cluster.update", self._on_cluster_update)
        self.node.register_handler("cluster.transfer", self._on_transfer)
        self.node.register_handler("cluster.dead", self._on_peer_dead_msg)
        self.node.register_handler("cluster.alive", self._on_peer_alive_msg)
        self.node.register_handler("cluster.ns", self._on_namespaces_msg)
        self.detector = HeartbeatFailureDetector(
            self.node, routing,
            period_s=float(self.config["heartbeat_period_s"]),
            suspicion_timeout_s=float(self.config["suspicion_timeout_s"]),
            on_dead=self._on_local_detection,
            on_alive=self._on_local_recovery,
        )
        self.detector.start()
        self.ready = True

    # ----------------------------------------------------- live membership

    def _apply_membership(self, nodes: Dict[int, Tuple[str, int]],
                          epoch: int) -> None:
        """Adopt a membership map: rebuild the overlay, migrate moved items."""
        self.epoch = max(self.epoch, epoch)
        removed = set(self.membership) - set(nodes)
        self.membership = {a: (e[0], int(e[1])) for a, e in nodes.items()}
        self.transport.update_peers(self.membership)
        for address in removed:
            self.transport.forget_peer(address)
            self.confirmed_dead.discard(address)
            self.detector.forget(address)
        self._rebuild_overlay()
        self._migrate_items()

    def _on_cluster_update(self, node: Node, message) -> None:
        payload = message.payload
        if int(payload["epoch"]) <= self.epoch:
            return  # stale or already applied
        nodes = {int(a): (e[0], int(e[1]))
                 for a, e in payload["nodes"].items()}
        log.info("membership epoch %d from node %d: %d nodes",
                 payload["epoch"], message.src, len(nodes))
        self._apply_membership(nodes, int(payload["epoch"]))

    def _broadcast_membership(self) -> None:
        self._send_to_members("cluster.update", {
            "epoch": self.epoch,
            "nodes": {a: list(e) for a, e in self.membership.items()},
        }, payload_bytes=24 * len(self.membership))

    def _send_to_members(self, protocol: str, payload: dict,
                         payload_bytes: int, skip: Optional[int] = None) -> None:
        """Send one message to every other member except ``skip``."""
        for address in self.membership:
            if address not in (self.node.address, skip):
                self.node.send(address, protocol, payload=payload,
                               payload_bytes=payload_bytes)

    def _build_routing(self):
        """This node's layer of the overlay over the current membership,
        rebound onto its node; the builder places keys under it."""
        self._builder, routings = self._overlay(self.membership)
        return routings[self.node.address].rebind(self.node)

    def _overlay(self, addresses):
        return build_overlay(self.config["dht"], addresses,
                             can_dimensions=self.config["can_dimensions"])

    def _rebuild_overlay(self) -> None:
        """Deterministically rebuild routing over the current address list.

        Every member runs the same computation over the same membership
        epoch, so no stabilisation traffic is needed; detected-dead marks
        are carried onto the fresh tables so healing survives the rebuild.
        """
        routing = self._build_routing()
        for address in self.confirmed_dead:
            routing.mark_neighbor_dead(address)
        self.provider.rebind_routing(routing)
        self.detector.routing = routing

    def _migrate_items(self) -> None:
        """Hand off locally stored items whose owner changed in the rebuild."""
        routing = self.provider.routing
        moving = self.provider.storage.extract(
            lambda key: not routing.owns(key))
        if not moving:
            return
        self._send_items(moving, self._builder.owners_of_keys)

    def _send_items(self, items, owners_of_keys) -> None:
        """Ship stored items to their owners, rebasing soft-state lifetimes.

        One ``cluster.transfer`` per owner carries the parallel arrays of
        :data:`TRANSFER_FIELDS`, each item's key among them, so the
        receiver hashes nothing.  ``expires_at`` is absolute on *this*
        process's monotonic clock, so transfers carry the remaining lifetime
        and the receiver re-anchors it — the paper's soft-state contract
        survives the move.
        """
        now = self.node.now
        by_owner: Dict[int, List[tuple]] = {}
        owners = owners_of_keys([item.key for item in items])
        for item, owner in zip(items, owners):
            if owner == self.node.address:
                self.provider.storage.store(item)
            else:  # one row of TRANSFER_FIELDS
                by_owner.setdefault(owner, []).append((
                    item.namespace, item.resource_id, item.instance_id,
                    item.value, item.key, max(0.0, item.expires_at - now),
                    item.publisher, item.size_bytes))
        for owner, rows in by_owner.items():
            log.info("migrating %d items to node %d", len(rows), owner)
            arrays = [list(column) for column in zip(*rows)]
            self.node.send(owner, "cluster.transfer",
                           payload=dict(zip(TRANSFER_FIELDS, arrays)),
                           payload_bytes=sum(arrays[-1]))

    def _on_transfer(self, node: Node, message) -> None:
        """Store a hand-off's items under the keys it carries, lifetimes
        re-anchored to this clock; a malformed hand-off stores nothing."""
        now = self.node.now
        arrays = _checked_transfer(message.payload)
        self.provider.storage.store_batch([
            StoredItem(namespace, resource_id, instance_id, value, key,
                       now + lifetime, now, publisher, size)
            for namespace, resource_id, instance_id, value, key, lifetime,
            publisher, size in zip(*arrays)])
        self.known_namespaces.update(arrays[0])

    def _graceful_leave(self) -> None:
        """Depart cleanly: hand off stored items, announce, exit."""
        log.info("node %d leaving the cluster (epoch %d)",
                 self.node.address, self.epoch + 1)
        self.ready = False
        self.detector.stop()
        self.executor.handle_node_failure()
        survivors = {a: e for a, e in self.membership.items()
                     if a != self.node.address}
        self.epoch += 1
        items = self.provider.storage.extract(lambda key: True)
        if survivors and items:
            self._send_items(items, self._overlay(survivors)[0].owners_of_keys)
        self.membership = survivors
        self._broadcast_membership()
        self.node.schedule(LEAVE_LINGER_S, self._stopping.set)

    # ----------------------------------------------------- failure wiring

    def _handle_peer_dead(self, address: int) -> bool:
        if address in self.confirmed_dead or address not in self.membership:
            return False
        self.confirmed_dead.add(address)
        purged = self.stack.peer_dead(address)
        log.warning("node %d confirmed dead (purged %d stats partials)",
                    address, purged)
        return True

    def _handle_peer_alive(self, address: int) -> bool:
        if address not in self.confirmed_dead:
            return False
        self.confirmed_dead.discard(address)
        self.stack.peer_alive(address)
        log.info("node %d is answering again; routing restored", address)
        return True

    def _on_local_detection(self, address: int) -> None:
        """Our own detector confirmed a silent neighbour: apply + gossip."""
        if self._handle_peer_dead(address):
            self._send_to_members("cluster.dead", {"address": address},
                                  payload_bytes=16, skip=address)

    def _on_local_recovery(self, address: int) -> None:
        if self._handle_peer_alive(address):
            self._send_to_members("cluster.alive", {"address": address},
                                  payload_bytes=16, skip=address)

    def _on_peer_dead_msg(self, node: Node, message) -> None:
        self._handle_peer_dead(int(message.payload["address"]))

    def _on_peer_alive_msg(self, node: Node, message) -> None:
        self._handle_peer_alive(int(message.payload["address"]))

    def _on_namespaces_msg(self, node: Node, message) -> None:
        self.known_namespaces.update(message.payload["namespaces"])

    # -------------------------------------------------------------- gateway

    def _on_rpc(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        request_id = frame.get("id")
        op = frame.get("op")
        try:
            result = self._dispatch_rpc(op, frame, writer)
        except Exception as exc:  # noqa: BLE001 — report, don't kill the loop
            log.exception("rpc %r failed", op)
            response = {"t": "res", "id": request_id, "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                        "code": getattr(exc, "code", "internal")}
        else:
            response = {"t": "res", "id": request_id, "ok": True}
            response.update(result)
        self.transport.push_frame(writer, response)

    def _dispatch_rpc(self, op: str, frame: dict,
                      writer: asyncio.StreamWriter) -> Dict[str, Any]:
        if op == "ping":
            return {}
        if op == "status":
            return {
                "ready": self.ready,
                "address": self.transport.address,
                "nodes": {a: list(e) for a, e in self.membership.items()},
                "config": self.config,
                "epoch": self.epoch,
                "dead": sorted(self.confirmed_dead),
            }
        if op == "shutdown":
            asyncio.get_running_loop().call_soon(self._stopping.set)
            return {}
        if not self.ready:
            raise NodeNotReadyError(
                "node is not ready yet (overlay still assembling)")
        if op == "store":
            return self._rpc_store(frame)
        if op == "submit":
            return self._rpc_submit(frame, writer)
        if op == "finish":
            return self._rpc_finish(frame)
        if op == "scan_count":
            count = sum(1 for _ in self.provider.lscan(frame["namespace"]))
            return {"count": count}
        if op == "scan":
            return {"items": self.provider.storage.scan(frame["namespace"],
                                                        self.node.now)}
        if op == "leave":
            asyncio.get_running_loop().call_soon(self._graceful_leave)
            return {}
        if op == "completeness":
            return self._rpc_completeness(frame)
        raise ValueError(f"unknown rpc op {op!r}")

    def _rpc_store(self, frame: dict) -> Dict[str, Any]:
        """Store a fast-load frame's chunks (none of a malformed frame), a
        fresh instanceID per item in item order, under the client's keys."""
        chunks = _checked_store_chunks(frame)
        for chunk in chunks:
            chunk["instance_ids"] = [self.provider.next_instance_id()
                                     for _ in chunk["keys"]]
            self.provider.store_chunk(chunk)
        fresh = {chunk["namespace"] for chunk in chunks} - self.known_namespaces
        self.known_namespaces |= fresh
        if fresh:
            # Tell the other members these namespaces now hold data, so any
            # gateway can validate submits against them.
            self._send_to_members("cluster.ns",
                                  {"namespaces": sorted(fresh)},
                                  payload_bytes=16 * len(fresh))
        return {"stored": sum(len(chunk["keys"]) for chunk in chunks)}

    def _rpc_submit(self, frame: dict,
                    writer: asyncio.StreamWriter) -> Dict[str, Any]:
        query = frame["query"]
        for table in getattr(query, "tables", ()) or ():
            namespace = table.namespace
            if namespace == STATS_NAMESPACE or namespace in self.known_namespaces:
                continue
            raise UnknownNamespaceError(
                f"query references namespace {namespace!r} but no data has "
                f"been loaded into it anywhere in the cluster")
        # Not the client's id: another client process may have run it already.
        query.query_id = None
        handle = self.executor.submit(query)
        self._pumps[query.query_id] = _ResultPump(handle, writer)
        handle.on_row = lambda: self._on_row(query.query_id)
        return {"query_id": query.query_id}

    def _on_row(self, query_id: int) -> None:
        """A result row arrived: the first one waiting arms the zero-delay
        flush that pushes every row of this loop turn at its end."""
        pump = self._pumps[query_id]
        if len(pump.handle.arrivals) - pump.sent == 1:
            self.node.schedule(0.0, self._push_results, query_id)

    def _push_results(self, query_id: int) -> None:
        pump = self._pumps.get(query_id)
        if pump is None:
            return
        if pump.writer.is_closing():
            self._stop_pump(query_id)
            return
        arrivals = pump.handle.arrivals
        submitted = pump.handle.submitted_at
        for start in range(pump.sent, len(arrivals), RESULT_FLUSH_ROWS):
            fresh = arrivals[start:start + RESULT_FLUSH_ROWS]
            self.transport.push_frame(pump.writer, {
                "t": "evt", "kind": "rows", "query_id": query_id,
                "rows": [row for _t, row in fresh],
                "times": [t - submitted for t, _row in fresh],
            })
        pump.sent = len(arrivals)

    def _stop_pump(self, query_id: int) -> None:
        pump = self._pumps.pop(query_id, None)
        if pump is not None:
            pump.handle.on_row = None

    def _rpc_completeness(self, frame: dict) -> Dict[str, Any]:
        return self.executor.completeness_share(int(frame["query_id"]),
                                                frame.get("namespaces", ()))

    def _rpc_finish(self, frame: dict) -> Dict[str, Any]:
        query_id = int(frame["query_id"])
        # Flush the rows still waiting for the end of the turn, then stop.
        self._push_results(query_id)
        self._stop_pump(query_id)
        self.executor.finish(query_id,
                             record_feedback=bool(frame.get("record_feedback")))
        return {}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.node",
        description="Run one standalone PIER node over real TCP sockets.",
    )
    parser.add_argument("--listen", type=parse_endpoint, required=True,
                        metavar="HOST:PORT", help="bind the frame server here")
    parser.add_argument("--advertise", type=parse_endpoint, default=None,
                        metavar="HOST:PORT",
                        help="endpoint peers should dial (default: --listen; "
                             "set to the service name under docker-compose)")
    parser.add_argument("--join", type=parse_endpoint, default=None,
                        metavar="HOST:PORT",
                        help="live member to join through (omit on the "
                             "first node, which founds the cluster)")
    parser.add_argument("--dht", choices=("can", "chord"), default="can",
                        help="overlay kind (first node only; sent to every joiner)")
    parser.add_argument("--can-dimensions", type=int, default=2,
                        help="CAN dimensionality (first node only)")
    parser.add_argument("--sweep-period", type=float,
                        default=DEFAULT_SWEEP_PERIOD_S,
                        help="soft-state expiry sweep period in seconds")
    parser.add_argument("--heartbeat-period", type=float,
                        default=DEFAULT_HEARTBEAT_PERIOD_S,
                        help="keep-alive ping period per routing neighbour "
                             "(first node only; sent to every joiner)")
    parser.add_argument("--suspicion-timeout", type=float,
                        default=DEFAULT_DETECTION_DELAY_S,
                        help="seconds of silence before a neighbour is "
                             "confirmed dead (paper's 15 s keep-alive model; "
                             "first node only)")
    parser.add_argument("--request-timeout", type=positive_seconds,
                        default=REQUEST_TIMEOUT_S,
                        help="seconds a DHT get waits for its reply before "
                             "it is retried, then completed empty; a real "
                             "node always bounds its gets (first node only; "
                             "sent to every joiner)")
    parser.add_argument("--log-level", default="INFO")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    node = PierNode(
        listen=args.listen,
        advertise=args.advertise,
        join=args.join,
        dht=args.dht,
        can_dimensions=args.can_dimensions,
        sweep_period_s=args.sweep_period,
        heartbeat_period_s=args.heartbeat_period,
        suspicion_timeout_s=args.suspicion_timeout,
        request_timeout_s=args.request_timeout,
    )
    try:
        asyncio.run(node.run_forever())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
