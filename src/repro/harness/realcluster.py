"""Boot and manage localhost subprocess clusters: :class:`LocalCluster`.

The real-transport tests and the churn benchmarks all need the same
scaffolding: spawn ``python -m repro.node`` processes on loopback ports,
wait for the overlay to assemble, map overlay addresses back onto ports and
processes, and then *perturb* the cluster — later joins, graceful
leaves, and ``kill -9`` mid-query.  This module is that scaffolding, kept
in the library (not the test tree) so benchmarks, tests and demos share
one implementation.

A cluster boots the way every node enters one: the first process founds
a one-node cluster and every other process joins through it.  Joiners are
assigned overlay addresses in *arrival* order, which is nondeterministic
across process startup, so boot polls every port's ``status`` until all of
them are ready with the same full address list; that tells which process
holds which address, and :meth:`kill` / :meth:`local_scan_count` operate on
addresses from then on.
"""

from __future__ import annotations

import functools
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.dht.provider import REQUEST_TIMEOUT_S
from repro.exceptions import NetworkError
from repro.remote import GatewayConnection, RemotePier

#: How long a cluster may take to assemble before boot fails.
BOOT_DEADLINE_S = 60.0
#: Pause between boot probes (each is one loopback connect + status RPC).
BOOT_POLL_S = 0.03

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Run in each forked node before exec: on Linux, ``prctl(PR_SET_PDEATHSIG,
#: SIGTERM)`` has the kernel terminate the node when its parent dies.
_die_with_parent: Optional[Callable[[], object]] = None
if sys.platform.startswith("linux"):
    import ctypes

    _PR_SET_PDEATHSIG = 1
    _die_with_parent = functools.partial(ctypes.CDLL(None).prctl,
                                         _PR_SET_PDEATHSIG, signal.SIGTERM)


def free_ports(count: int) -> List[int]:
    """Reserve ``count`` distinct free loopback ports (best effort)."""
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class LocalCluster:
    """A killable localhost cluster of ``python -m repro.node`` processes.

    The constructor spawns all ``num_nodes`` processes: the first founds
    the cluster (overlay address 0), the others join through it, exactly
    as :meth:`add_node` joins one more later.  :meth:`connect` waits until
    every process is ready with the same ``num_nodes``-member membership.

    Parameters mirror the node CLI; the heartbeat/suspicion/request-timeout
    knobs exist so churn tests can compress the paper's 15 s detection
    delay and the 10 s get timeout into CI-friendly wall clock (see
    ``benchmarks/bench_real_churn`` for the exact simulator↔real mapping).
    ``seed`` is accepted and unused: the overlay is a function of the
    address list alone.  The processes' output is discarded.

    On Linux every process is spawned with ``PR_SET_PDEATHSIG`` set to
    SIGTERM, so it dies with its harness even when that is SIGKILLed.  The
    kernel sends the signal when the *thread* that spawned the process
    exits, so build a cluster on a thread that outlives it.
    """

    def __init__(self, num_nodes: int, dht: str = "can", seed: int = 0,
                 sweep_period_s: float = 2.0,
                 heartbeat_period_s: Optional[float] = None,
                 suspicion_timeout_s: Optional[float] = None,
                 request_timeout_s: float = REQUEST_TIMEOUT_S):
        self.dht = dht
        self.num_nodes = num_nodes
        self.ports: List[int] = free_ports(num_nodes)
        self.processes: List[subprocess.Popen] = []
        self.pier: Optional[RemotePier] = None
        #: overlay address -> loopback port / process, resolved after boot.
        self.port_of: Dict[int, int] = {}
        self.proc_of: Dict[int, subprocess.Popen] = {}
        self.killed: set = set()
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = (_SRC_DIR + os.pathsep
                                   + self._env.get("PYTHONPATH", ""))
        self._common = [sys.executable, "-m", "repro.node",
                        "--sweep-period", str(sweep_period_s),
                        "--request-timeout", str(request_timeout_s)]
        if heartbeat_period_s is not None:
            self._common += ["--heartbeat-period", str(heartbeat_period_s)]
        if suspicion_timeout_s is not None:
            self._common += ["--suspicion-timeout", str(suspicion_timeout_s)]
        self._spawn(self._common
                    + ["--listen", f"127.0.0.1:{self.ports[0]}", "--dht", dht])
        for port in self.ports[1:]:
            self._spawn_joiner(port, self.ports[0])

    def _spawn(self, argv: List[str]) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=self._env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                preexec_fn=_die_with_parent)
        self.processes.append(proc)
        return proc

    def _spawn_joiner(self, port: int, member_port: int) -> subprocess.Popen:
        """Start a process on ``port`` that joins through ``member_port``."""
        return self._spawn(self._common
                           + ["--listen", f"127.0.0.1:{port}",
                              "--join", f"127.0.0.1:{member_port}"])

    # -------------------------------------------------------------- lifecycle

    def connect(self) -> RemotePier:
        """Wait until every process is ready with all ``num_nodes`` members
        (at most ``BOOT_DEADLINE_S``); open the client session.

        Boot only adds members, so every node that lists ``num_nodes`` of
        them lists the same address list.
        """
        deadline = time.monotonic() + BOOT_DEADLINE_S
        for port, proc in zip(self.ports, self.processes):
            try:
                status = self._await_ready(port, self.processes, deadline,
                                           members=self.num_nodes)
            except RuntimeError:
                self.stop()
                raise
            self.port_of[status["address"]] = port
            self.proc_of[status["address"]] = proc
        self.pier = RemotePier.connect("127.0.0.1", self.ports[0])
        return self.pier

    def _await_ready(self, port: int, processes: List[subprocess.Popen],
                     deadline: float, members: Optional[int] = None) -> dict:
        """Poll ``port`` until its node is ready (listing ``members``
        members, if given); fails once one of ``processes`` exited or at
        ``deadline``."""
        while True:
            status = self._status(port)
            if (status is not None and status["ready"]
                    and (members is None or len(status["nodes"]) == members)):
                return status
            if any(proc.poll() is not None for proc in processes):
                raise RuntimeError("a node process exited before it was ready")
            if time.monotonic() >= deadline:
                raise RuntimeError(f"the node on port {port} did not become "
                                   f"ready in time")
            time.sleep(BOOT_POLL_S)

    @staticmethod
    def _status(port: int) -> Optional[dict]:
        """One ``status`` reply from the node on ``port``; None if it does
        not answer (yet)."""
        try:
            conn = GatewayConnection("127.0.0.1", port, timeout_s=2.0)
        except OSError:
            return None
        try:
            return conn.rpc("status", timeout_s=2.0)
        except (NetworkError, OSError):
            return None
        finally:
            conn.close()

    # ------------------------------------------------------------------ churn

    def kill(self, address: int) -> None:
        """``kill -9`` the process holding ``address`` (no goodbye frames)."""
        proc = self.proc_of[address]
        proc.kill()
        proc.wait()
        self.killed.add(address)

    def add_node(self, via: Optional[int] = None) -> int:
        """Join a fresh node through a live member.

        Returns the new node's overlay address once its stack has
        assembled and the cluster has committed the join.  The caller's
        :class:`RemotePier` should ``refresh_membership()`` afterwards.
        """
        member_port = self.port_of.get(
            via if via is not None else self._any_live_address())
        (port,) = free_ports(1)
        proc = self._spawn_joiner(port, member_port)
        address = self._await_ready(port, [proc],
                                    time.monotonic() + BOOT_DEADLINE_S)["address"]
        self.ports.append(port)
        self.port_of[address] = port
        self.proc_of[address] = proc
        return address

    def _any_live_address(self) -> int:
        for address in sorted(self.port_of):
            if address not in self.killed:
                return address
        raise RuntimeError("no live node left in the cluster")

    # ------------------------------------------------------------ diagnostics

    def local_scan_count(self, address: int, namespace: str) -> int:
        """Item count of ``namespace`` stored *locally* at one member."""
        conn = GatewayConnection("127.0.0.1", self.port_of[address],
                                 timeout_s=5.0)
        try:
            return conn.rpc("scan_count", namespace=namespace)["count"]
        finally:
            conn.close()

    def live_addresses(self) -> List[int]:
        return [a for a in sorted(self.port_of) if a not in self.killed]

    # --------------------------------------------------------------- teardown

    def stop(self) -> None:
        if self.pier is not None:
            try:
                self.pier.shutdown_cluster()
            except (NetworkError, OSError):
                pass
            self.pier.close()
            self.pier = None
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "LocalCluster":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


__all__ = ["BOOT_DEADLINE_S", "LocalCluster", "free_ports"]
