"""Client-side access to a real PIER cluster: ``RemotePier``.

A :class:`RemotePier` is the real-cluster counterpart of
:class:`repro.harness.experiment.PierNetwork` *as seen by a client*: it
implements the :class:`repro.client.Deployment` contract plus the
fast-load helper, so the very same client/cursor code that drives the
simulator drives a cluster of ``python -m repro.node`` processes over TCP::

    pier = RemotePier.connect("127.0.0.1", 9100)
    pier.load_relation(workload.r_relation, workload.r_by_node)
    client = PierClient(pier, node=pier.gateway_address, catalog=...)
    rows = client.sql("SELECT ... ", strategy=JoinStrategy.SYMMETRIC_HASH,
                      timeout_s=30.0).fetchall()

The client contract over sockets
--------------------------------
``executor(node)`` submits and finishes over gateway RPCs (the gateway
names each query), ``now`` is ``time.monotonic()``, and ``wait(until)`` is
one blocking pump of the gateway socket, with failover: it returns once it
dispatched frames or ``until`` passed.  ``wait(None)`` returns at once: the
``finish`` reply already follows a query's last rows.  A cluster is never
idle, so a cursor stops on LIMIT, its row goal or its deadline.
``collect_completeness`` sums each reachable member's ``completeness`` RPC.

Everything here is synchronous (plain sockets with timeouts): the client is
a driver, not a server, and blocking with deadlines keeps it trivially
embeddable in tests and scripts.
"""

from __future__ import annotations

import itertools
import socket
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.executor import QueryHandle
from repro.core.query import QuerySpec
from repro.core.stats import StatsRegistry, publisher_batches
from repro.core.tuples import RelationDef
from repro.exceptions import (
    GatewayError,
    NetworkError,
    NodeNotReadyError,
    UnknownNamespaceError,
)
from repro.dht.naming import hash_keys
from repro.net.wire import FrameDecoder, encode_frame
from repro.stack import build_overlay

#: Socket-level timeout on every blocking operation (hard hang guard).
SOCKET_TIMEOUT_S = 10.0


class GatewayConnection:
    """One framed TCP connection to a node's gateway."""

    def __init__(self, host: str, port: int,
                 timeout_s: float = SOCKET_TIMEOUT_S):
        self.endpoint = (host, port)
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.settimeout(timeout_s)
        self._decoder = FrameDecoder()
        #: Frames received but not dispatched yet (they followed a response).
        self._frames: Deque[Any] = deque()
        self._rpc_ids = itertools.count(1)
        #: Responses that arrived while waiting for a different frame.
        self._responses: Dict[int, dict] = {}
        #: query_id -> QueryHandle receiving streamed rows.
        self.handles: Dict[int, QueryHandle] = {}

    # ------------------------------------------------------------------ rpc

    def rpc(self, op: str, timeout_s: float = SOCKET_TIMEOUT_S,
            **fields: Any) -> dict:
        """Send one request and block until its response arrives.

        Event frames arriving in between are dispatched to their handles,
        so a pending query keeps streaming while the client issues RPCs.
        """
        request_id = next(self._rpc_ids)
        frame = {"t": "rpc", "id": request_id, "op": op}
        frame.update(fields)
        self._sock.sendall(encode_frame(frame))
        deadline = time.monotonic() + timeout_s
        while True:
            response = self._responses.pop(request_id, None)
            if response is not None:
                if not response.get("ok"):
                    raise self._error_for(op, response)
                return response
            if not self.pump(deadline):
                raise NetworkError(
                    f"rpc {op!r} to {self.endpoint} timed out after {timeout_s}s"
                )

    def _error_for(self, op: str, response: dict) -> NetworkError:
        """Map a structured error frame onto the typed exception hierarchy."""
        message = (f"rpc {op!r} failed on {self.endpoint}: "
                   f"{response.get('error')}")
        code = response.get("code", "internal")
        if code == NodeNotReadyError.code:
            return NodeNotReadyError(message)
        if code == UnknownNamespaceError.code:
            return UnknownNamespaceError(message)
        return GatewayError(message, code=code)

    # ----------------------------------------------------------------- pump

    def pump(self, until: float) -> int:
        """Block until frames were dispatched or wall-clock ``until`` passed.

        Dispatch stops behind a response, so the caller of an RPC acts on
        its reply before any later frame.  Returns how many frames it
        dispatched (0: the deadline passed).
        """
        while not self._frames:
            budget = until - time.monotonic()
            if budget <= 0:
                return 0
            self._sock.settimeout(min(budget, SOCKET_TIMEOUT_S))
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                continue
            if not data:
                raise NetworkError(f"gateway {self.endpoint} closed the connection")
            self._frames.extend(self._decoder.feed(data))
        dispatched = 0
        while self._frames:
            dispatched += 1
            if self._dispatch(self._frames.popleft()):
                break
        return dispatched

    def _dispatch(self, frame: Any) -> bool:
        """Deliver one frame; whether it was a response."""
        if not isinstance(frame, dict):
            return False
        kind = frame.get("t")
        if kind == "res":
            self._responses[frame.get("id")] = frame
        elif kind == "evt" and frame.get("kind") == "rows":
            handle = self.handles.get(frame.get("query_id"))
            if handle is not None:
                base = handle.submitted_at
                for elapsed, row in zip(frame["times"], frame["rows"]):
                    handle.record(base + elapsed, row)
        return kind == "res"

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class RemoteExecutor:
    """Initiator-side executor proxy: submit/finish over the gateway RPC.

    Holds a local :class:`StatsRegistry` so ``PierClient``'s AUTO planning
    has a registry to read (fed by :meth:`RemotePier.load_relation`'s
    client-side partials); it deliberately has **no** ``provider``
    attribute, which makes the client's DHT statistics refresh a no-op —
    planning over a real cluster uses the loader's ground-truth partials.
    """

    def __init__(self, pier: "RemotePier", address: int):
        self._pier = pier
        self.address = address
        self.stats: StatsRegistry = pier.relation_stats

    def submit(self, query: QuerySpec) -> QueryHandle:
        # The gateway names the query: ids from two client processes could
        # collide.  Its reply precedes every row frame of the query.
        gateway = self._pier.gateway
        handle = QueryHandle(query, submitted_at=time.monotonic())
        query.query_id = gateway.rpc("submit", query=query)["query_id"]
        query.initiator = self._pier.gateway_address
        gateway.handles[query.query_id] = handle
        return handle

    def finish(self, query_id: int, record_feedback: bool = False) -> None:
        # The reply comes after the query's last rows; later ones are dropped.
        gateway = self._pier.gateway
        try:  # dropped on a failed RPC too, or a failover would carry it over
            gateway.rpc("finish", query_id=query_id, record_feedback=record_feedback)
        finally:
            gateway.handles.pop(query_id, None)


class RemotePier:
    """Client-side handle on a running real cluster.

    The wall-clock :class:`repro.client.Deployment` (see the module notes),
    plus ``num_nodes`` and the fast load.  Construction connects to one node
    (the *gateway*) and fetches the membership map; per-owner connections
    for fast loading open lazily.
    """

    def __init__(self, gateway: GatewayConnection):
        self.gateway = gateway
        self.endpoints: Dict[int, Tuple[str, int]] = {}
        self._connections: Dict[int, GatewayConnection] = {}
        try:  # a session that never opened must not leak its connection
            self.gateway_address: int = self._read_status(gateway.rpc("status"))
        except BaseException:
            gateway.close()
            raise
        self._connections[self.gateway_address] = gateway
        #: Gateways this client itself lost mid-session (failover history).
        self._dead_gateways: set = set()
        #: Ground-truth statistics over everything this client loaded.
        self.relation_stats = StatsRegistry()

    @classmethod
    def connect(cls, host: str, port: int,
                timeout_s: float = SOCKET_TIMEOUT_S) -> "RemotePier":
        """Open a session against the node listening on ``host:port``."""
        return cls(GatewayConnection(host, port, timeout_s=timeout_s))

    # ----------------------------------------------------------- pier surface

    @property
    def num_nodes(self) -> int:
        return len(self.endpoints)

    @property
    def now(self) -> float:
        return time.monotonic()

    def executor(self, node: int) -> RemoteExecutor:
        if node != self.gateway_address and node not in self._dead_gateways:
            raise NetworkError(
                f"this session's gateway is node {self.gateway_address}; "
                f"connect() to node {node}'s endpoint to initiate from it"
            )
        return RemoteExecutor(self, self.gateway_address)

    # -------------------------------------------------------------- failover

    def wait(self, until: Optional[float]) -> Optional[float]:
        """Block until result frames arrived or ``until`` passed; returns
        the wall clock (``None`` at once for ``wait(None)``)."""
        if until is None:
            return None
        self.pump(until)
        return time.monotonic()

    def pump(self, until: float) -> int:
        """Pump the gateway connection, failing over if the gateway died.

        The cursor's wait is where a crashed gateway first shows
        up client-side (connection reset / closed / stalled).  Rather than
        surfacing a transport error mid-query, the session re-homes onto
        another live member: result streaming resumes there for queries it
        participates in, and the cursor's own timeout/completeness
        accounting reports whatever was lost.
        """
        try:
            return self.gateway.pump(until)
        except (NetworkError, OSError):
            self.failover()
            return 0

    def failover(self) -> None:
        """Re-home this session on another live member after a gateway loss."""
        dead_address = self.gateway_address
        dead_conn = self.gateway
        self._dead_gateways.add(dead_address)
        self._connections.pop(dead_address, None)
        dead_conn.close()
        for address in sorted(self.endpoints):
            if address in self._dead_gateways or address in self.dead:
                continue
            try:
                conn = GatewayConnection(*self.endpoints[address])
            except OSError:
                continue
            try:
                self._read_status(conn.rpc("status", timeout_s=2.0))
            except (NetworkError, OSError):
                conn.close()
                continue
            # Streamed rows for in-flight queries must keep landing in their
            # handles; the new gateway pushes events only for queries *it*
            # executes locally, so rows already en route die with the old
            # gateway — that loss is what completeness reports.
            conn.handles.update(dead_conn.handles)
            self.gateway = conn
            self.gateway_address = address
            self._connections[address] = conn
            return
        raise NetworkError(
            f"gateway node {dead_address} died and no other member of "
            f"{sorted(self.endpoints)} is reachable"
        )

    def refresh_membership(self) -> None:
        """Re-read the membership map (after joins/leaves) from the gateway.

        Rebuilds the client-side overlay builder over the new address list so
        subsequent fast loads and scans place keys exactly where the
        cluster's rebuilt overlay expects them.
        """
        self._read_status(self.gateway.rpc("status"))

    def _read_status(self, status: dict) -> int:
        """Adopt a ``status`` reply: config, membership, confirmed-dead set.

        A changed address list rebuilds the key-placing overlay builder and
        closes the connections to members that left.  Returns the answering
        node's address; a node still assembling raises
        :class:`NodeNotReadyError`.
        """
        if not status["ready"]:
            raise NodeNotReadyError("gateway node is not ready")
        self.config: Dict[str, Any] = status["config"]
        #: Members the cluster has confirmed dead.
        self.dead: set = set(status.get("dead", ()))
        endpoints = {
            int(a): (e[0], int(e[1])) for a, e in status["nodes"].items()
        }
        if set(endpoints) != set(self.endpoints):
            self.builder = build_overlay(
                self.config["dht"], endpoints,
                can_dimensions=self.config["can_dimensions"],
                seed=self.config["seed"])[0]
        self.endpoints = endpoints
        for address in list(self._connections):
            if address not in endpoints:
                self._connections.pop(address).close()
        return status["address"]

    def leave_node(self, address: int, timeout_s: float = 15.0) -> None:
        """Ask ``address`` to leave gracefully; wait until the cluster agrees."""
        if address == self.gateway_address:
            raise NetworkError("refusing to leave through the session gateway; "
                               "connect another gateway first")
        self.connection(address).rpc("leave")
        self._connections.pop(address, None).close()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.refresh_membership()
            if address not in self.endpoints:
                return
            time.sleep(0.1)
        raise NetworkError(f"node {address} still in the membership after "
                           f"{timeout_s}s")

    def collect_completeness(self, report, temp_namespaces) -> Any:
        """Add every reachable member's share of one query's accounting.

        Members that died simply don't report — their absence *is* the
        loss, and it already shows up as failed/pending gets on the
        survivors.
        """
        for address in sorted(self.endpoints):
            if address in self.dead or address in self._dead_gateways:
                continue
            try:
                report.add(self.connection(address).rpc(
                    "completeness", query_id=report.query_id,
                    namespaces=sorted(temp_namespaces), timeout_s=2.0,
                ))
            except (NetworkError, OSError):
                continue
        return report

    def connection(self, node: int) -> GatewayConnection:
        """A (cached) gateway connection to any cluster node."""
        conn = self._connections.get(node)
        if conn is None:
            host, port = self.endpoints[node]
            conn = GatewayConnection(host, port)
            self._connections[node] = conn
        return conn

    # ------------------------------------------------------------------ load

    def load_relation(self, relation: RelationDef,
                      rows_by_node: Dict[int, List[dict]],
                      lifetime: float = 1e9) -> int:
        """Fast-load a relation into the cluster (direct store at owners).

        Same load plan as the simulator harness's fast load
        (:func:`repro.core.stats.publisher_batches`): the client groups
        each publisher's statistics partial and rows by owner (ownership is
        a deterministic function of the membership — see :attr:`builder`)
        and ships every group to its owner's gateway in one ``store`` RPC.
        RPC acknowledgements make the load synchronous: when this returns,
        every tuple is scannable at its owner.
        """
        by_owner: Dict[int, List[dict]] = {}
        loaded = 0
        for publisher, rows in rows_by_node.items():
            if not rows:
                continue
            partial, batches = publisher_batches(relation, rows, lifetime,
                                                 at=time.monotonic())
            self.relation_stats.merge_partial(partial)
            for namespace, resource_ids, values, life, size in batches:
                owners = self.builder.owners_of_keys(
                    hash_keys(namespace, resource_ids))
                for owner, resource_id, value in zip(owners, resource_ids, values):
                    by_owner.setdefault(owner, []).append({
                        "namespace": namespace, "resource_id": resource_id,
                        "value": value, "lifetime": life,
                        "publisher": publisher, "size_bytes": size})
            loaded += len(rows)
        for owner, items in by_owner.items():
            self.connection(owner).rpc("store", items=items)
        return loaded

    # ------------------------------------------------------------- utilities

    def scan_count(self, namespace: str) -> int:
        """Total item count of ``namespace`` across live nodes (diagnostics)."""
        return sum(
            self.connection(node).rpc("scan_count", namespace=namespace)["count"]
            for node in self.endpoints
            if node not in self.dead and node not in self._dead_gateways
        )

    def client(self, catalog=None, **client_options):
        """A :class:`repro.client.PierClient` session over this gateway."""
        from repro.client import PierClient

        return PierClient(self, node=self.gateway_address, catalog=catalog,
                          **client_options)

    def shutdown_cluster(self) -> None:
        """Ask every node process to exit (used by demos; tests terminate)."""
        for node in list(self.endpoints):
            try:
                self.connection(node).rpc("shutdown", timeout_s=2.0)
            except (NetworkError, OSError):
                pass

    def close(self) -> None:
        for conn in self._connections.values():
            conn.close()
        self._connections.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RemotePier(gateway={self.gateway_address}, "
                f"nodes={self.num_nodes}, dht={self.config.get('dht')!r})")


__all__ = ["GatewayConnection", "RemoteExecutor", "RemotePier"]
