"""Standalone PIER node process: ``python -m repro.node``.

Boots one node of a *real* cluster — asyncio TCP transport, wall-clock
timers — running the exact same DHT/Provider/executor stack the simulator
drives.  A cluster of ``N`` processes assembles itself with a tiny
bootstrap handshake, keeps its membership **live** afterwards (dynamic
joins, graceful leaves, heartbeat-detected crashes), and serves queries to
remote :class:`repro.client.PierClient` sessions through a gateway RPC
surface.

Bootstrap
---------
The first process is started without ``--join`` and becomes the bootstrap
(overlay address 0)::

    python -m repro.node --listen 127.0.0.1:9100 --nodes 4

Every other process joins through it::

    python -m repro.node --listen 127.0.0.1:9101 --join 127.0.0.1:9100

Joiners send a ``hello`` frame carrying their advertised endpoint; the
bootstrap assigns overlay addresses in arrival order and, once all ``N``
members registered, broadcasts the membership map and the cluster
configuration (DHT kind, CAN dimensions, seed, sweep and heartbeat
periods, suspicion and request timeouts).  Each process then builds the full
stabilised overlay *locally* (the network builders are deterministic
functions of the address list — see :func:`repro.stack.build_overlay`) and
rebinds its own routing layer onto its socket-backed node.  No join
messages cross the wire, mirroring the paper's "measurements start after
the CAN routing stabilizes".

Live membership
---------------
After bootstrap, membership is no longer fixed:

* **Dynamic join** — a later process started with ``--join`` pointed at
  *any ready member* is admitted immediately: the member assigns it the
  next free overlay address and replies with the membership map and
  cluster config (same ``mem`` frame as bootstrap, marked ``dynamic``).
  The joiner assembles its stack, acks with a ``joined`` frame, and the
  admitting member bumps the membership *epoch* and broadcasts a
  ``cluster.update``.  Every member folds the new address list in by
  deterministically rebuilding its routing tables
  (:meth:`repro.dht.api.RoutingLayer.rebind`) and migrating the stored
  items whose ownership moved (``cluster.transfer``, lifetimes rebased to
  the receiver's clock).
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
* ``store`` — place pre-grouped tuples directly into this node's storage
  (the remote fast load; see :class:`repro.remote.RemotePier`).
* ``submit`` — run a :class:`repro.core.query.QuerySpec` from this node
  under a query id its executor assigns (its address, then its own count);
  the reply carries the id and precedes every row, which stream back as
  ``{"t": "evt"}`` frames — the rows of one event-loop turn at its end, 256
  to a frame.
* ``finish`` — tear the query's distributed dataflow down everywhere.
* ``completeness`` — this node's share of a query's delivery accounting.
* ``scan_count`` — local item count of a namespace (diagnostics).
* ``shutdown`` — stop this node process (the docker-compose demo's clean
  exit).
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys
from typing import Any, Dict, Optional, Tuple

from repro.core.executor import QueryExecutor, QueryHandle
from repro.core.stats import STATS_NAMESPACE
from repro.dht.naming import hash_key
from repro.dht.provider import DEFAULT_SWEEP_PERIOD_S, Provider
from repro.dht.storage import StoredItem
from repro.exceptions import NodeNotReadyError, UnknownNamespaceError
from repro.net.failures import (
    DEFAULT_DETECTION_DELAY_S,
    DEFAULT_HEARTBEAT_PERIOD_S,
    HeartbeatFailureDetector,
)
from repro.net.node import Node
from repro.net.real import RealTransport
from repro.net.wire import MAX_FRAME_BYTES, FrameDecoder, encode_frame
from repro.stack import NodeStack, build_overlay

log = logging.getLogger("repro.node")

#: Most result rows one ``evt`` frame carries; the rows of one loop turn
#: leave at its end, cut into frames of this many.
RESULT_FLUSH_ROWS = 256
#: Default per-request timeout for DHT gets on real nodes.  The simulator
#: only arms this lane in churn deployments, but a real cluster can lose a
#: node at any moment, so requests must always be bounded (0 disables).
DEFAULT_REQUEST_TIMEOUT_S = 10.0
#: How long a leaving node lingers so its hand-off frames flush.
LEAVE_LINGER_S = 0.5


def parse_endpoint(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (the only endpoint syntax the CLI accepts)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


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
                 nodes: int = 0,
                 dht: str = "can", can_dimensions: int = 2, seed: int = 0,
                 sweep_period_s: float = DEFAULT_SWEEP_PERIOD_S,
                 heartbeat_period_s: float = DEFAULT_HEARTBEAT_PERIOD_S,
                 suspicion_timeout_s: float = DEFAULT_DETECTION_DELAY_S,
                 request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
                 max_frame_bytes: int = MAX_FRAME_BYTES):
        self.listen = listen
        self.advertise = advertise or listen
        self.join_endpoint = join
        self.expected_nodes = nodes
        self.config: Dict[str, Any] = {
            "dht": dht,
            "can_dimensions": can_dimensions,
            "seed": seed,
            "sweep_period_s": sweep_period_s,
            "heartbeat_period_s": heartbeat_period_s,
            "suspicion_timeout_s": suspicion_timeout_s,
            "request_timeout_s": request_timeout_s,
        }
        self.transport = RealTransport(0, listen[0], listen[1],
                                       max_frame_bytes=max_frame_bytes)
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
        self._members_complete = asyncio.Event()
        #: (writer, endpoint) per joiner, in arrival order (bootstrap only).
        self._joiners = []
        #: address -> endpoint of dynamic joiners awaiting their ``joined`` ack.
        self._pending_admissions: Dict[int, Tuple[str, int]] = {}
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the server, run the bootstrap handshake, assemble the stack."""
        self.transport.register_frame_handler("hello", self._on_hello)
        self.transport.register_frame_handler("joined", self._on_joined)
        self.transport.register_frame_handler("rpc", self._on_rpc)
        host, port = await self.transport.start()
        log.info("listening on %s:%d (advertising %s:%d)",
                 host, port, *self.advertise)
        ack_writer = None
        if self.join_endpoint is None:
            await self._bootstrap()
        else:
            ack_writer = await self._join()
        self._assemble()
        if ack_writer is not None:
            # Dynamic join: only ack once the stack is assembled, so item
            # migrations triggered by the membership broadcast find a node
            # that can store them.
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

    async def _bootstrap(self) -> None:
        """Collect ``N - 1`` joiners, assign addresses, broadcast membership."""
        if self.expected_nodes <= 0:
            raise SystemExit("--nodes N is required on the bootstrap node")
        self.transport.address = 0
        self.membership[0] = self.advertise
        if self.expected_nodes > 1:
            await self._members_complete.wait()
        frame = {"t": "mem", "nodes": {a: list(e) for a, e in
                                       self.membership.items()},
                 "config": self.config}
        for address, (writer, _endpoint) in enumerate(self._joiners, start=1):
            self.transport.push_frame(writer, dict(frame, you=address))
            await writer.drain()

    def _on_hello(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        endpoint = (frame["host"], int(frame["port"]))
        if self.ready:
            self._admit_joiner(writer, endpoint)
            return
        if self.join_endpoint is not None:
            log.warning("ignoring hello frame: this node is still assembling")
            return
        address = len(self._joiners) + 1
        self._joiners.append((writer, endpoint))
        self.membership[address] = endpoint
        log.info("joiner %d registered from %s:%d", address, *endpoint)
        if len(self.membership) >= self.expected_nodes:
            self._members_complete.set()

    def _admit_joiner(self, writer: asyncio.StreamWriter,
                      endpoint: Tuple[str, int]) -> None:
        """Dynamic join: assign the next address, send the membership map.

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
            "t": "mem", "you": address, "dynamic": True,
            "epoch": self.epoch, "nodes": nodes, "config": self.config,
        })
        log.info("admitting joiner %d from %s:%d (awaiting ack)",
                 address, *endpoint)

    def _on_joined(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        """A dynamically admitted joiner finished assembling: commit it."""
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

    async def _join(self) -> Optional[asyncio.StreamWriter]:
        """Register with a member and wait for the membership reply.

        At bootstrap the contacted node is the bootstrap and the reply is
        the all-``N`` broadcast; on a live cluster any ready member
        answers immediately with a ``dynamic`` membership frame, in which
        case the open connection is returned so the caller can ack with
        ``joined`` *after* assembling.
        """
        reader, writer = await self._connect_with_retry(self.join_endpoint)
        writer.write(encode_frame({
            "t": "hello", "host": self.advertise[0], "port": self.advertise[1],
        }))
        await writer.drain()
        decoder = FrameDecoder(self.transport.max_frame_bytes)
        membership_frame = None
        while membership_frame is None:
            data = await reader.read(65536)
            if not data:
                raise SystemExit("the contacted member closed the connection "
                                 "before membership was broadcast")
            for frame in decoder.feed(data):
                if isinstance(frame, dict) and frame.get("t") == "mem":
                    membership_frame = frame
        self.transport.address = int(membership_frame["you"])
        self.config.update(membership_frame["config"])
        self.epoch = int(membership_frame.get("epoch", 0))
        self.membership = {
            int(a): (e[0], int(e[1]))
            for a, e in membership_frame["nodes"].items()
        }
        if membership_frame.get("dynamic"):
            return writer
        writer.close()
        return None

    @staticmethod
    async def _connect_with_retry(endpoint: Tuple[str, int], attempts: int = 200,
                                  delay_s: float = 0.05):
        """Joiners may start before the bootstrap's socket is up; retry."""
        last: Optional[OSError] = None
        for _ in range(attempts):
            try:
                return await asyncio.open_connection(*endpoint)
            except OSError as exc:
                last = exc
                await asyncio.sleep(delay_s)
        raise SystemExit(f"cannot reach bootstrap at {endpoint}: {last}")

    def _assemble(self) -> None:
        """Build node + overlay + Provider + executor on this transport."""
        self.transport.update_peers(self.membership)
        self.node = Node(self.transport.address, self.transport)
        self.transport.attach_node(self.node)
        routing = self._build_routing()
        request_timeout = float(self.config.get("request_timeout_s") or 0.0)
        self.stack = NodeStack(
            self.node, routing,
            sweep_period_s=self.config["sweep_period_s"],
            request_timeout_s=request_timeout if request_timeout > 0 else None,
            failure_aware=True,
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
        payload = {
            "epoch": self.epoch,
            "nodes": {a: list(e) for a, e in self.membership.items()},
        }
        for address in self.membership:
            if address != self.node.address:
                self.node.send(address, "cluster.update", payload=payload,
                               payload_bytes=24 * len(self.membership))

    def _build_routing(self):
        """This node's layer of the overlay over the current membership,
        rebound onto its node; the builder places keys under it."""
        self._builder, routings = self._overlay(self.membership)
        return routings[self.node.address].rebind(self.node)

    def _overlay(self, addresses):
        return build_overlay(self.config["dht"], addresses,
                             can_dimensions=self.config["can_dimensions"],
                             seed=self.config["seed"])

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

        ``expires_at`` is absolute on *this* process's monotonic clock, so
        transfers carry the remaining lifetime and the receiver re-anchors
        it — the paper's soft-state contract survives the move.
        """
        now = self.node.now
        by_owner: Dict[int, list] = {}
        owners = owners_of_keys([item.key for item in items])
        for item, owner in zip(items, owners):
            if owner == self.node.address:
                self.provider.storage.store(item)
                continue
            by_owner.setdefault(owner, []).append({
                "namespace": item.namespace,
                "resource_id": item.resource_id,
                "instance_id": item.instance_id,
                "value": item.value,
                "lifetime": max(0.0, item.expires_at - now),
                "publisher": item.publisher,
                "size_bytes": item.size_bytes,
            })
        for owner, entries in by_owner.items():
            log.info("migrating %d items to node %d", len(entries), owner)
            self.node.send(owner, "cluster.transfer",
                           payload={"items": entries},
                           payload_bytes=sum(e["size_bytes"] for e in entries))

    def _on_transfer(self, node: Node, message) -> None:
        self.known_namespaces |= self._store_entries(message.payload["items"])

    def _store_entries(self, entries) -> set:
        """Store a fast load's or a hand-off's items; returns their namespaces."""
        now = self.node.now
        self.provider.storage.store_batch(
            StoredItem(
                namespace=entry["namespace"],
                resource_id=entry["resource_id"],
                instance_id=(entry["instance_id"] if "instance_id" in entry
                             else self.provider.next_instance_id()),
                value=entry["value"],
                key=hash_key(entry["namespace"], entry["resource_id"]),
                expires_at=now + entry.get("lifetime", 1e9),
                stored_at=now,
                publisher=entry.get("publisher"),
                size_bytes=entry.get("size_bytes", 100),
            ) for entry in entries)
        return {entry["namespace"] for entry in entries}

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
        payload = {
            "epoch": self.epoch,
            "nodes": {a: list(e) for a, e in survivors.items()},
        }
        for address in survivors:
            self.node.send(address, "cluster.update", payload=payload,
                           payload_bytes=24 * max(1, len(survivors)))
        self.membership = survivors
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
            for member in self.membership:
                if member not in (self.node.address, address):
                    self.node.send(member, "cluster.dead",
                                   payload={"address": address},
                                   payload_bytes=16)

    def _on_local_recovery(self, address: int) -> None:
        if self._handle_peer_alive(address):
            for member in self.membership:
                if member not in (self.node.address, address):
                    self.node.send(member, "cluster.alive",
                                   payload={"address": address},
                                   payload_bytes=16)

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
        if op == "leave":
            asyncio.get_running_loop().call_soon(self._graceful_leave)
            return {}
        if op == "completeness":
            return self._rpc_completeness(frame)
        raise ValueError(f"unknown rpc op {op!r}")

    def _rpc_store(self, frame: dict) -> Dict[str, Any]:
        """Direct local store of items this node owns (remote fast load)."""
        fresh = self._store_entries(frame["items"]) - self.known_namespaces
        self.known_namespaces |= fresh
        if fresh:
            # Tell the other members these namespaces now hold data, so any
            # gateway can validate submits against them.
            for address in self.membership:
                if address != self.node.address:
                    self.node.send(address, "cluster.ns",
                                   payload={"namespaces": sorted(fresh)},
                                   payload_bytes=16 * len(fresh))
        return {"stored": len(frame["items"])}

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
                        help="bootstrap node to register with (omit on the "
                             "bootstrap itself)")
    parser.add_argument("--nodes", type=int, default=0,
                        help="cluster size (bootstrap only)")
    parser.add_argument("--dht", choices=("can", "chord"), default="can",
                        help="overlay kind (bootstrap only; broadcast to all)")
    parser.add_argument("--can-dimensions", type=int, default=2,
                        help="CAN dimensionality (bootstrap only)")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic overlay seed (bootstrap only)")
    parser.add_argument("--sweep-period", type=float,
                        default=DEFAULT_SWEEP_PERIOD_S,
                        help="soft-state expiry sweep period in seconds")
    parser.add_argument("--heartbeat-period", type=float,
                        default=DEFAULT_HEARTBEAT_PERIOD_S,
                        help="keep-alive ping period per routing neighbour "
                             "(bootstrap only; broadcast to all)")
    parser.add_argument("--suspicion-timeout", type=float,
                        default=DEFAULT_DETECTION_DELAY_S,
                        help="seconds of silence before a neighbour is "
                             "confirmed dead (paper's 15 s keep-alive model; "
                             "bootstrap only)")
    parser.add_argument("--request-timeout", type=float,
                        default=DEFAULT_REQUEST_TIMEOUT_S,
                        help="per-request timeout for DHT gets; 0 disables "
                             "(bootstrap only)")
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
        nodes=args.nodes,
        dht=args.dht,
        can_dimensions=args.can_dimensions,
        seed=args.seed,
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
