"""The simulated network tying nodes, topology, links and the simulator together.

``SimulatedNetwork`` (historically exported as ``Network``; both names refer
to the same class) is the discrete-event implementation of the
:class:`repro.net.transport.Transport` seam.  It owns:

* the :class:`repro.net.simulator.Simulator` (virtual clock),
* one :class:`repro.net.node.Node` per address in the topology,
* one :class:`repro.net.links.InboundLink` per node,
* a :class:`repro.net.stats.TrafficStats` accumulator.

Message delivery follows the paper's model: propagation latency given by the
topology, then serialisation/queueing at the *receiver's* inbound link, then
handler dispatch on the destination node.  Messages to dead nodes are dropped
after the propagation delay (the sender gets no error — failure detection is
the job of keep-alives one layer up, exactly as in the paper's soft-state
discussion).

Coalesced delivery
------------------
With ``coalesce_window_s`` set (see :meth:`Network.set_coalescing`), messages
to the same destination within the window are delivered by a single simulator
event in send order, whatever their source, with per-message link accounting
preserved (each message is admitted to the inbound link individually, so
byte counts and queueing delays match the uncoalesced path exactly).

Every coalesced group costs **one** delivery event: the first message
schedules it, and each joining message *postpones* that same event
(:meth:`repro.net.simulator.Simulator.postpone`) to the group's latest
link-finish time — never earlier than any member's own finish.  Because the
group fires once, members other than the last can be delivered later than
their own link finish — bounded by the group's remaining service time; the
group's *last* delivery matches the uncoalesced path exactly.  The window
controls who may join:

* ``0.0`` — the default when coalescing is on — merges only messages
  *arriving* at a destination at the same virtual instant, which keeps the
  slip to at most the group's service time; this is the conservative mode
  the test deployments run under.
* a positive window merges all messages to a destination whose sends fall
  within ``window`` seconds of the group's first send, so the slip can
  additionally reach the window length — the classic
  batching-for-throughput trade the 10k-node benchmark runs exploit.

``None`` (the default) disables coalescing and reproduces the
one-event-per-message seed behaviour bit for bit.

One pass per message
--------------------
:meth:`SimulatedNetwork.send` is the whole path of a message up to its
delivery event: it checks both addresses, reads the clock once, draws one
latency from the topology, runs the inbound link's FIFO arithmetic
(:mod:`repro.net.links`) and then schedules, opens or joins.  What a message
is — its wire size — was fixed when it was built.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import NetworkError
from repro.net.links import InboundLink
from repro.net.message import Message
from repro.net.node import Node
from repro.net.simulator import EventHandle, Simulator
from repro.net.stats import TrafficStats
from repro.net.topology import Topology
from repro.net.transport import TimerService, Transport

#: A group's key: the destination in window mode, ``(destination, arrival
#: time)`` in zero-window mode.
_GroupKey = Union[int, Tuple[int, float]]
#: ``(message, queued_for)`` per member of a delivery group, in send order.
_Entries = List[Tuple[Message, float]]
#: An open group: when its first member was sent, its one delivery event,
#: and its members.
_Group = Tuple[float, EventHandle, _Entries]


class SimulatedNetwork(Transport):
    """Message-passing fabric over a static topology (virtual time).

    Parameters
    ----------
    topology:
        Static latency/capacity model.
    simulator:
        Event loop to drive; a fresh one is created when omitted.
    coalesce_window_s:
        When not ``None``, messages to the same destination (from any
        source) within this many seconds are delivered by a single event
        with aggregate byte accounting.  ``0.0`` coalesces only messages
        arriving at the same virtual instant.
    """

    def __init__(self, topology: Topology, simulator: Optional[Simulator] = None,
                 coalesce_window_s: Optional[float] = None):
        self.topology = topology
        self.simulator = simulator if simulator is not None else Simulator()
        self.stats = TrafficStats()
        self.nodes: Dict[int, Node] = {
            address: Node(address, self) for address in range(topology.num_nodes)
        }
        self._links: Dict[int, InboundLink] = {
            address: InboundLink(topology.inbound_capacity(address))
            for address in range(topology.num_nodes)
        }
        self._coalesce_window: Optional[float] = None
        self._groups: Dict[_GroupKey, _Group] = {}  # the open groups
        self.batches_flushed = 0
        self.messages_coalesced = 0
        self.set_coalescing(coalesce_window_s)

    # ------------------------------------------------------------ transport

    @property
    def timers(self) -> TimerService:
        """The simulator doubles as this transport's timer service."""
        return self.simulator

    # ----------------------------------------------------------- coalescing

    @property
    def coalesce_window_s(self) -> Optional[float]:
        """Current coalescing window (``None`` when coalescing is off)."""
        return self._coalesce_window

    def set_coalescing(self, window_s: Optional[float]) -> None:
        """Enable (``window_s >= 0``) or disable (``None``) coalesced delivery."""
        if window_s is not None and window_s < 0:
            raise NetworkError(f"coalescing window must be >= 0 (got {window_s})")
        self._coalesce_window = window_s

    # ------------------------------------------------------------- topology

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network (live or failed)."""
        return self.topology.num_nodes

    def node(self, address: int) -> Node:
        """Return the node object at ``address``."""
        try:
            return self.nodes[address]
        except KeyError:
            raise NetworkError(f"unknown node address {address}") from None

    def live_addresses(self) -> List[int]:
        """Addresses of all nodes currently alive."""
        return [node.address for node in self.nodes.values() if node.alive]

    def link(self, address: int) -> InboundLink:
        """Inbound link of ``address`` (exposed for tests and metrics)."""
        return self._links[address]

    # ------------------------------------------------------------- messaging

    def send(self, message: Message) -> None:
        """Queue ``message`` for delivery according to the network model."""
        src, dst = message.src, message.dst
        if dst not in self.nodes:
            raise NetworkError(f"message addressed to unknown node {dst}")
        if src not in self.nodes:
            raise NetworkError(f"message sent from unknown node {src}")
        self.stats.messages_sent += 1
        simulator = self.simulator

        if src == dst:
            # Local delivery: no propagation, no link serialisation; still
            # asynchronous (zero-delay event) to preserve callback ordering.
            simulator.schedule(0.0, self._deliver, message, 0.0)
            return

        sent_at = simulator.now
        arrival = sent_at + self.topology.latency_between(src, dst)
        # The inbound link's FIFO server (see repro.net.links).
        link = self._links[dst]
        size = message.size_bytes
        link.bytes_served += size
        if link.infinite:
            finish, queued_for = arrival, 0.0
        else:
            start = max(arrival, link.busy_until)
            queued_for = start - arrival
            finish = link.busy_until = start + size / link.capacity_bytes_per_s

        # Events are armed by delay: ``now + (finish - now)``, the same time
        # ``schedule_at(finish)`` and ``postpone(event, finish)`` arrive at.
        window = self._coalesce_window
        if window is None:
            simulator.schedule(finish - sent_at, self._deliver, message, queued_for)
            return
        # Only the delivery *event* is shared.  Window mode: one open group
        # per destination, joined by sends within the window of its first.
        # Zero window: only same-instant arrivals share an event, which
        # bounds the delivery slip of early members to the group's own
        # service time.
        key = dst if window > 0 else (dst, arrival)
        group = self._groups.get(key)
        if group is not None and window > 0 and sent_at - group[0] > window:
            group = None  # replaced under its key; its event is still pending
        if group is None:
            entries = [(message, queued_for)]
            event = simulator.schedule(finish - sent_at, self._deliver_batch,
                                       key, entries)
            self._groups[key] = (sent_at, event, entries)
            self.batches_flushed += 1
        else:
            # The group's event only ever moves later (max over finishes),
            # which matters under infinite bandwidth where a late send from
            # a nearby source can finish before an earlier distant one.
            _, event, entries = group
            entries.append((message, queued_for))
            simulator.postpone(event, max(finish, event.time))
            self.messages_coalesced += 1

    def _deliver_batch(self, key: _GroupKey, entries: _Entries) -> None:
        """Deliver every message of a coalesced group in send order."""
        group = self._groups.get(key)
        if group is not None and group[2] is entries:
            del self._groups[key]
        for message, queued_for in entries:
            self._deliver(message, queued_for)

    def _deliver(self, message: Message, queued_for: float) -> None:
        """Final delivery step executed by the simulator."""
        destination = self.nodes[message.dst]
        if destination.alive:
            self.stats.record_delivery(message, queued_for)
            destination.deliver(message)
            return
        # Dropped: notify the sender (models a transport timeout).  The
        # notification arrives one extra propagation delay after the failed
        # delivery attempt and is purely local to the sender (no bytes are
        # charged to the network).  Senders opt in per protocol via
        # :meth:`repro.net.node.Node.register_bounce_handler`.
        self.stats.messages_dropped += 1
        src = message.src
        if src != message.dst:
            delay = self.topology.latency_between(src, message.dst)
            self.simulator.schedule(delay, self.nodes[src].deliver_bounce, message)

    # ------------------------------------------------------------------ run

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Advance the simulation (delegates to the simulator)."""
        return self.simulator.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: Optional[int] = None) -> float:
        """Run until no events remain."""
        return self.simulator.run_until_idle(max_events=max_events)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.simulator.now

    # --------------------------------------------------------------- failure

    def fail_node(self, address: int) -> None:
        """Mark a node as failed (messages to it will be dropped)."""
        self.node(address).fail()

    def recover_node(self, address: int) -> None:
        """Bring a failed node back up and clear its inbound backlog."""
        node = self.node(address)
        node.recover()
        link = self._links[address]
        link.busy_until = self.simulator.now
        link.bytes_served = 0

    def fail_nodes(self, addresses: Iterable[int]) -> None:
        """Fail several nodes at once."""
        for address in addresses:
            self.fail_node(address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedNetwork(nodes={self.num_nodes}, topology={self.topology!r})"


#: Historical name; the whole simulation stack was written against it.
Network = SimulatedNetwork
