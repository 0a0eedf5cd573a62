"""The simulated network tying nodes, topology, links and the simulator together.

``SimulatedNetwork`` is the discrete-event implementation of the
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

Delivery groups
---------------
Messages reach a node in *delivery groups*: each group is delivered by one
simulator event, its members in send order, with per-message link
accounting preserved (each message is admitted to the inbound link
individually, so byte counts and queueing delays are those of a lone
message).  The first member schedules the group's event and each joining
message *postpones* that same event
(:meth:`repro.net.simulator.Simulator.postpone`) to the group's latest
link-finish time — never earlier than any member's own finish — so members
other than the last can be delivered later than their own link finish,
bounded by the group's remaining service time.  ``coalesce_window_s``
controls who may join:

* ``0.0`` — the default — merges only messages *arriving* at a destination
  at the same virtual instant, which keeps the slip to at most the group's
  service time; a message that arrives alone is a group of one.
* a positive window merges all messages to a destination whose sends fall
  within ``window`` seconds of the group's first send, so the slip can
  additionally reach the window length — the classic
  batching-for-throughput trade the 10k-node benchmark runs exploit.

One pass per message
--------------------
:meth:`SimulatedNetwork.send` is the whole path of a message up to its
delivery event: it checks both addresses, reads the clock once, draws one
latency from the topology, runs the inbound link's FIFO arithmetic
(:mod:`repro.net.links`) and then schedules, opens or joins.  What a message
is — its wire size — was fixed when it was built.  On the other side,
:meth:`SimulatedNetwork._deliver_batch` delivers a group: per member it
checks that the destination is alive, records the delivery and dispatches
it with :meth:`repro.net.node.Node.deliver` (the one dispatch, on every
backend, that observers of deliveries wrap), or drops and bounces it.

What one event hands a node — a group, a local send (a zero-delay group of
one) or a bounce — the node handles in one delivery scope
(:mod:`repro.net.node`), opened only by :meth:`SimulatedNetwork._hand_over`,
so what its layers deferred is sent when the event is done.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import NetworkError
from repro.net.links import InboundLink
from repro.net.message import Message
from repro.net.node import Node
from repro.net.simulator import EventHandle, Simulator
from repro.net.stats import TrafficStats
from repro.net.topology import Topology
from repro.net.transport import TimerService, Transport

#: A group's key: the destination in window mode, ``(destination, arrival
#: time)`` in zero-window mode, ``None`` for a local send (a group of one).
_GroupKey = Union[None, int, Tuple[int, float]]
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
    coalesce_window_s:
        Messages to the same destination (from any source) whose sends fall
        within this many seconds of a group's first are delivered by that
        group's one event.  ``0.0`` (the default) groups only messages
        arriving at the same virtual instant.
    """

    def __init__(self, topology: Topology, coalesce_window_s: float = 0.0):
        if coalesce_window_s < 0:
            raise NetworkError(f"coalescing window must be >= 0 (got {coalesce_window_s})")
        self.topology = topology
        self.simulator = Simulator()
        self.stats = TrafficStats()
        self.nodes: Dict[int, Node] = {
            address: Node(address, self) for address in range(topology.num_nodes)
        }
        self._links: Dict[int, InboundLink] = {
            address: InboundLink(topology.inbound_capacity(address))
            for address in range(topology.num_nodes)
        }
        self._window = coalesce_window_s
        self._groups: Dict[_GroupKey, _Group] = {}  # the open groups
        self.batches_flushed = 0
        self.messages_coalesced = 0

    # ------------------------------------------------------------ transport

    @property
    def timers(self) -> TimerService:
        """The simulator doubles as this transport's timer service."""
        return self.simulator

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
            # asynchronous (a zero-delay group of one) to preserve callback
            # ordering.
            simulator.schedule(0.0, self._deliver_batch, None, [(message, 0.0)])
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
            start = link.busy_until
            if start < arrival:
                start = arrival
            queued_for = start - arrival
            finish = link.busy_until = start + size / link.capacity_bytes_per_s

        # Events are armed by delay: ``now + (finish - now)``, the same time
        # ``schedule_at(finish)`` and ``postpone(event, finish)`` arrive at.
        # Only the delivery *event* is shared.  Window mode: one open group
        # per destination, joined by sends within the window of its first.
        # Zero window: only same-instant arrivals share an event, which
        # bounds the delivery slip of early members to the group's own
        # service time.
        window = self._window
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
            due = event.time
            simulator.postpone(event, due if due > finish else finish)
            self.messages_coalesced += 1

    def _deliver_batch(self, key: _GroupKey, entries: _Entries) -> None:
        """Deliver a group's members in send order, in one delivery scope."""
        group = self._groups.get(key)
        if group is not None and group[2] is entries:
            del self._groups[key]
        self._hand_over(self.nodes[entries[0][0].dst], self._deliver, entries)

    def _deliver(self, entry: Tuple[Message, float]) -> None:
        """Deliver one member, or drop it if its destination is down (an
        earlier member's handler may have failed it)."""
        message, queued_for = entry
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
            sender = self.nodes[src]
            self.simulator.schedule(self.topology.latency_between(src, message.dst),
                                    self._hand_over, sender, sender.deliver_bounce,
                                    [message])

    @staticmethod
    def _hand_over(node: Node, deliver: Callable[[Any], None], items: List[Any]) -> None:
        """``deliver`` each of ``items`` inside one delivery scope of ``node``:
        the one place this network opens a scope, closed even if one raises."""
        node.open_scope()  # never nested: each hand-over is one event
        try:
            for item in items:
                deliver(item)
        finally:
            node.close_scope()

    # ------------------------------------------------------------------ run

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Advance the simulation (delegates to the simulator)."""
        return self.simulator.run(until=until, max_events=max_events)

    def run_until_idle(self) -> float:
        """Run until only background events remain (:attr:`Simulator.idle`)."""
        return self.simulator.run_until_idle()

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
