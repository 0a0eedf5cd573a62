"""Failure injection and keep-alive failure detection (paper Section 5.6).

The soft-state experiment fails nodes at a configurable rate (failures per
minute).  The paper's model, reproduced here:

* when a node fails, all DHT items stored at it are lost immediately;
* neighbours only notice after a *detection delay* (the paper assumes 15 s of
  unanswered keep-alives); until then messages routed to the failed node are
  simply dropped;
* after detection, routing heals ("the node will route immediately around
  the failure");
* lost tuples reappear only when their publishers renew them.

Zone-takeover details of CAN are abstracted: after ``downtime`` the failed
identity resumes with empty storage, which is indistinguishable, for the
recall metric, from a neighbour absorbing the zone and later splitting it
again.

``FailureInjector`` drives the process as a Poisson-like arrival stream with
exponential inter-failure gaps (seeded, hence deterministic), and exposes
callbacks so the DHT layer can flush storage and mark routing entries stale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.net.network import Network
from repro.net.node import Node

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
    actual silence.  Each node periodically pings its routing neighbours
    (plus any explicitly watched addresses); a peer that has not been
    heard from — no ack, no ping of its own — for ``suspicion_timeout_s``
    is confirmed dead and ``on_dead`` fires once.  A confirmed-dead peer
    keeps being probed so a resumed identity is noticed (``on_alive``),
    matching the injector's recover path.

    The suspicion timeout *is* the paper's detection-delay model: running
    with the default 15 s reproduces the Figure 6 regime on wall clock;
    tests and the chaos bench compress it (and the failure rate) by the
    same factor to keep runs short without changing the recall math.

    Transport-agnostic: everything goes through ``node.send`` and
    ``node.schedule_periodic``, so it runs over either transport (under
    the simulator it is simply redundant with the injector's callbacks).
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
        self.ping_bounces = 0
        self._extra: Set[int] = set()
        self._timer = None
        node.replace_handler(self.PROTOCOL_PING, self._on_ping)
        node.replace_handler(self.PROTOCOL_ACK, self._on_ack)
        node.register_bounce_handler(self.PROTOCOL_PING, self._on_ping_bounce)

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

    # ----------------------------------------------------------- watch set

    def watch(self, address: int) -> None:
        """Probe ``address`` even when it is not a routing neighbour."""
        if address != self.node.address:
            self._extra.add(address)

    def forget(self, address: int) -> None:
        """Stop tracking ``address`` entirely (it left the cluster)."""
        self._extra.discard(address)
        self.last_heard.pop(address, None)
        self.confirmed_dead.discard(address)

    def watched(self) -> Set[int]:
        """The addresses currently being probed."""
        peers = set(self.routing.neighbors()) | self._extra
        peers.discard(self.node.address)
        return peers

    # ------------------------------------------------------------ mechanics

    def _tick(self) -> None:
        now = self.node.now
        for peer in self.watched():
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

    def _on_ping_bounce(self, node: Node, message) -> None:
        # The transport exhausted its backoff budget trying to reach the
        # peer: strong evidence, but silence alone drives confirmation so
        # the suspicion timeout stays the single detection-delay knob.
        self.ping_bounces += 1


@dataclass
class FailureEvent:
    """Record of a single injected failure."""

    address: int
    failed_at: float
    detected_at: float
    recovered_at: float


@dataclass
class FailureInjector:
    """Poisson failure process over the live nodes of a network.

    Parameters
    ----------
    network:
        The network whose nodes will be failed.
    failures_per_minute:
        Mean failure arrival rate.  A rate of 0 disables injection.
    detection_delay_s:
        Time before neighbours notice the failure (routing heals afterwards).
    downtime_s:
        Time the node stays down before resuming with empty storage.  The
        default equals the detection delay, i.e. the identity resumes as
        soon as routing has healed around it.
    seed:
        Seed for the failure arrival process and victim choice.
    on_fail / on_detect / on_recover:
        Callbacks invoked with the node address at the corresponding instant.
        The DHT layer uses ``on_fail`` to drop stored items and
        ``on_recover`` to clear stale routing state.
    protect:
        Addresses never selected as victims (e.g. the query initiator site),
        mirroring the paper's implicit assumption that the query site stays up.
    """

    network: Network
    failures_per_minute: float
    detection_delay_s: float = DEFAULT_DETECTION_DELAY_S
    downtime_s: Optional[float] = None
    seed: int = 0
    on_fail: Optional[Callable[[int], None]] = None
    on_detect: Optional[Callable[[int], None]] = None
    on_recover: Optional[Callable[[int], None]] = None
    protect: frozenset = frozenset()
    events: List[FailureEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.failures_per_minute < 0:
            raise ValueError("failure rate must be non-negative")
        if self.downtime_s is None:
            self.downtime_s = self.detection_delay_s
        self._rng = random.Random(self.seed)
        self._running = False

    # ----------------------------------------------------------------- drive

    def start(self) -> None:
        """Begin injecting failures (no-op if the rate is zero)."""
        if self.failures_per_minute <= 0 or self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop scheduling new failures (in-flight recoveries still complete)."""
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        mean_gap = 60.0 / self.failures_per_minute
        gap = self._rng.expovariate(1.0 / mean_gap)
        self.network.simulator.schedule(gap, self._inject)

    def _inject(self) -> None:
        if not self._running:
            return
        victims = [
            address
            for address in self.network.live_addresses()
            if address not in self.protect
        ]
        if victims:
            address = self._rng.choice(victims)
            self.fail_now(address)
        self._schedule_next()

    # ------------------------------------------------------------ mechanics

    def fail_now(self, address: int) -> FailureEvent:
        """Fail a specific node immediately (also used directly by tests)."""
        now = self.network.now
        event = FailureEvent(
            address=address,
            failed_at=now,
            detected_at=now + self.detection_delay_s,
            recovered_at=now + float(self.downtime_s),
        )
        self.events.append(event)
        self.network.fail_node(address)
        if self.on_fail is not None:
            self.on_fail(address)
        self.network.simulator.schedule(self.detection_delay_s, self._detect, address)
        self.network.simulator.schedule(float(self.downtime_s), self._recover, address)
        return event

    def _detect(self, address: int) -> None:
        if self.on_detect is not None:
            self.on_detect(address)

    def _recover(self, address: int) -> None:
        self.network.recover_node(address)
        if self.on_recover is not None:
            self.on_recover(address)

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
        intervals ``[failed_at, recovered_at)`` overlaps
        ``[at, at + dilation_s]`` — i.e. it was (or went) unreachable while
        the query could still legitimately have read its data.
        """
        window_end = at + max(0.0, dilation_s)
        down = {
            event.address
            for event in self.events
            if event.failed_at <= window_end and event.recovered_at > at
        }
        return frozenset(
            address for address in self.network.nodes if address not in down
        )
