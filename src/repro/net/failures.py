"""Failure injection and keep-alive failure detection (paper Section 5.6).

The soft-state experiment fails nodes at a configurable rate (failures per
minute).  The paper's model, reproduced here:

* when a node fails, all DHT items stored at it are lost immediately;
* neighbours only notice after a *detection delay* (the paper assumes 15 s of
  unanswered keep-alives); until then messages routed to the failed node are
  simply dropped;
* the failed identity resumes with empty storage at the instant the
  failure is detected;
* lost tuples reappear only when their publishers renew them.

Zone-takeover details of CAN are abstracted: an identity resuming empty is
indistinguishable, for the recall metric, from a neighbour absorbing the
zone and later splitting it again.

``FailureInjector`` drives the process as a Poisson-like arrival stream with
exponential inter-failure gaps (seeded, hence deterministic).  It applies
each failure to the victim's :class:`repro.stack.NodeStack`, and each
detection and resumption to every node's: the peer transitions a real node
applies when its ``HeartbeatFailureDetector`` confirms a peer dead or alive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Set

from repro.net.node import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import SimulatedNetwork
    from repro.stack import NodeStack

#: Keep-alive based detection delay assumed by the paper.
DEFAULT_DETECTION_DELAY_S = 15.0
#: Default keep-alive probe period for the live heartbeat detector.
DEFAULT_HEARTBEAT_PERIOD_S = 1.0
#: Wire size charged per heartbeat probe/ack.
HEARTBEAT_BYTES = 16


class HeartbeatFailureDetector:
    """Keep-alive failure detection over a *live* transport (paper §5.6).

    The simulator tells :class:`FailureInjector` exactly when a node died
    and synthesises the 15 s detection delay; on a real cluster nobody
    knows — this detector produces the same confirmed-dead events from
    actual silence.  Each node periodically pings its routing neighbours;
    a peer that has not been heard from — no ack, no ping of its own — for
    ``suspicion_timeout_s`` is confirmed dead and ``on_dead`` fires once.
    A confirmed-dead peer keeps being probed so a resumed identity is
    noticed (``on_alive``), matching the injector's resume path.  A bounced
    ping is ignored: silence alone confirms a death, so the suspicion
    timeout stays the single detection-delay knob.

    The suspicion timeout *is* the paper's detection-delay model: running
    with the default 15 s reproduces the Figure 6 regime on wall clock;
    tests and the chaos bench compress it (and the failure rate) by the
    same factor to keep runs short without changing the recall math.

    Transport-agnostic: everything goes through ``node.send`` and
    ``node.schedule_periodic``, so it runs over either transport (under
    the simulator it is simply redundant with the injector, which applies
    the same :class:`repro.stack.NodeStack` transitions).
    """

    PROTOCOL_PING = "hb.ping"
    PROTOCOL_ACK = "hb.ack"

    def __init__(self, node: Node, routing,
                 period_s: float = DEFAULT_HEARTBEAT_PERIOD_S,
                 suspicion_timeout_s: float = DEFAULT_DETECTION_DELAY_S,
                 on_dead: Optional[Callable[[int], None]] = None,
                 on_alive: Optional[Callable[[int], None]] = None):
        if period_s <= 0:
            raise ValueError("heartbeat period must be positive")
        if suspicion_timeout_s <= period_s:
            raise ValueError("suspicion timeout must exceed the ping period")
        self.node = node
        #: Reassigned by the membership layer when the overlay is rebuilt.
        self.routing = routing
        self.period_s = period_s
        self.suspicion_timeout_s = suspicion_timeout_s
        self.on_dead = on_dead
        self.on_alive = on_alive
        self.last_heard: Dict[int, float] = {}
        self.confirmed_dead: Set[int] = set()
        self._timer = None
        node.replace_handler(self.PROTOCOL_PING, self._on_ping)
        node.replace_handler(self.PROTOCOL_ACK, self._on_ack)

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Begin probing (idempotent)."""
        if self._timer is None:
            self._timer = self.node.schedule_periodic(self.period_s, self._tick)

    def stop(self) -> None:
        """Stop probing (confirmed-dead state is retained)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def forget(self, address: int) -> None:
        """Stop tracking ``address`` entirely (it left the cluster)."""
        self.last_heard.pop(address, None)
        self.confirmed_dead.discard(address)

    # ------------------------------------------------------------ mechanics

    def _tick(self) -> None:
        now = self.node.now
        for peer in set(self.routing.neighbors()) - {self.node.address}:
            last = self.last_heard.setdefault(peer, now)
            if (peer not in self.confirmed_dead
                    and now - last >= self.suspicion_timeout_s):
                self.confirmed_dead.add(peer)
                if self.on_dead is not None:
                    self.on_dead(peer)
                continue
            self.node.send(peer, self.PROTOCOL_PING,
                           payload_bytes=HEARTBEAT_BYTES)

    def _heard(self, address: int) -> None:
        self.last_heard[address] = self.node.now
        if address in self.confirmed_dead:
            self.confirmed_dead.discard(address)
            if self.on_alive is not None:
                self.on_alive(address)

    def _on_ping(self, node: Node, message) -> None:
        self._heard(message.src)
        node.send(message.src, self.PROTOCOL_ACK,
                  payload_bytes=HEARTBEAT_BYTES)

    def _on_ack(self, node: Node, message) -> None:
        self._heard(message.src)


@dataclass
class FailureEvent:
    """Record of a single injected failure."""

    address: int
    failed_at: float
    #: When the neighbours detected the failure and the identity resumed.
    resumed_at: float


class FailureInjector:
    """Poisson failure process over the live nodes of a simulated network.

    A failure fails the network node and its :class:`repro.stack.NodeStack`
    (its storage is lost at once).  :data:`DEFAULT_DETECTION_DELAY_S` later
    one event resumes it: every stack confirms the node dead, the identity
    comes back with empty storage and every stack routes through it again.
    Node 0, the query initiator site, is never a random victim, mirroring
    the paper's implicit assumption that the query site stays up.

    Parameters
    ----------
    network:
        The network whose nodes will be failed.
    stacks:
        Every node's stack, by address.
    failures_per_minute:
        Mean failure arrival rate.  A rate of 0 injects nothing (tests fail
        nodes by hand with :meth:`fail_now`).
    seed:
        Seed for the failure arrival process and victim choice.
    """

    def __init__(self, network: SimulatedNetwork,
                 stacks: Mapping[int, "NodeStack"],
                 failures_per_minute: float, seed: int = 0):
        self.network = network
        self.stacks = stacks
        self.failures_per_minute = failures_per_minute
        self.events: List[FailureEvent] = []
        self._rng = random.Random(seed)
        self._running = False

    # ----------------------------------------------------------------- drive

    def start(self) -> None:
        """Begin injecting failures (no-op if the rate is zero)."""
        if self.failures_per_minute <= 0 or self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop scheduling new failures (in-flight resumptions still complete)."""
        self._running = False

    def _schedule_next(self) -> None:
        mean_gap = 60.0 / self.failures_per_minute
        gap = self._rng.expovariate(1.0 / mean_gap)
        self.network.simulator.schedule(gap, self._inject)

    def _inject(self) -> None:
        if not self._running:
            return
        victims = [address for address in self.network.live_addresses()
                   if address != 0]
        if victims:
            self.fail_now(self._rng.choice(victims))
        self._schedule_next()

    # ------------------------------------------------------------ mechanics

    def fail_now(self, address: int) -> FailureEvent:
        """Fail a live node immediately (also used directly by tests)."""
        if not self.network.node(address).alive:
            raise ValueError(f"node {address} is already down")
        now = self.network.now
        event = FailureEvent(address, now, now + DEFAULT_DETECTION_DELAY_S)
        self.events.append(event)
        self.network.fail_node(address)
        self.stacks[address].fail()
        self.network.simulator.schedule(DEFAULT_DETECTION_DELAY_S,
                                        self._resume, address)
        return event

    def _resume(self, address: int) -> None:
        """The failure is detected and the identity resumes, empty."""
        stacks = self.stacks.values()
        for stack in stacks:
            stack.peer_dead(address)
        self.network.recover_node(address)
        for stack in stacks:
            stack.peer_alive(address)

    # -------------------------------------------------------------- analysis

    def failures_in(self, start: float, end: float) -> int:
        """Number of failures injected in the half-open interval [start, end)."""
        return sum(1 for event in self.events if start <= event.failed_at < end)

    def reachable_addresses(self, at: float,
                            dilation_s: float = 0.0) -> frozenset:
        """The dilated-reachable snapshot at time ``at`` (paper §3.3.1).

        The paper judges answer quality against the result the query *would*
        produce over data published by nodes reachable at query time, with a
        dilation window absorbing the ambiguity of failures near the
        snapshot instant.  A node is excluded when any of its recorded down
        intervals ``[failed_at, resumed_at)`` overlaps
        ``[at, at + dilation_s]`` — i.e. it was (or went) unreachable while
        the query could still legitimately have read its data.
        """
        window_end = at + max(0.0, dilation_s)
        down = {
            event.address
            for event in self.events
            if event.failed_at <= window_end and event.resumed_at > at
        }
        return frozenset(
            address for address in self.network.nodes if address not in down
        )
