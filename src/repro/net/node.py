"""Host nodes (simulated or real).

A :class:`Node` is one participant machine: it has an integer address, a
registry of protocol handlers (the DHT and the PIER query processor register
themselves here), an aliveness flag used by the failure injector, and a
reference to a :class:`repro.net.transport.Transport` so upper layers can
send messages and schedule timers without knowing whether they run under
the virtual-clock simulator or over real sockets.

The handler registry is a simple string-keyed dispatch table.  Handlers
receive the :class:`repro.net.message.Message` that arrived; replies are sent
explicitly via :meth:`Node.send`, never returned, because everything in this
system is asynchronous (matching PIER's callback-based design).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.exceptions import NetworkError
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.transport import Transport

Handler = Callable[["Node", Message], None]


class Node:
    """One machine participating in the overlay (over either transport)."""

    def __init__(self, address: int, network: "Transport"):
        self.address = int(address)
        self.network = network
        self.alive = True
        self._handlers: Dict[str, Handler] = {}
        self._bounce_handlers: Dict[str, Handler] = {}
        #: Free-form per-node services (DHT instance, provider, executor...).
        self.services: Dict[str, Any] = {}

    # ----------------------------------------------------------- registration

    def register_handler(self, protocol: str, handler: Handler) -> None:
        """Register ``handler`` for messages whose protocol equals ``protocol``."""
        if protocol in self._handlers:
            raise NetworkError(
                f"node {self.address}: handler already registered for {protocol!r}"
            )
        self._handlers[protocol] = handler

    def replace_handler(self, protocol: str, handler: Handler) -> None:
        """Register or overwrite the handler for ``protocol``."""
        self._handlers[protocol] = handler

    def register_bounce_handler(self, protocol: str, handler: Handler) -> None:
        """Register a handler for transport-level delivery failures.

        When a message of the given protocol is sent to a node that is
        currently down, the network notifies the sender (after one extra
        propagation delay, standing in for a connection timeout / reset) by
        invoking this handler with the original message.  Layers that can
        re-route — the DHT routing layers — use this to step around failed
        nodes immediately instead of waiting for the periodic keep-alive
        detection.
        """
        self._bounce_handlers[protocol] = handler

    def deliver_bounce(self, original: Message) -> None:
        """Deliver a transport failure notification for ``original``."""
        if not self.alive:
            return
        handler = self._bounce_handlers.get(original.protocol)
        if handler is not None:
            handler(self, original)

    # ----------------------------------------------------------------- I/O

    def send(self, dst: int, protocol: str, payload: Any = None,
             payload_bytes: int = 0, hops: int = 0) -> Message:
        """Send a message to another node through the network."""
        message = Message(self.address, dst, protocol, payload, payload_bytes, hops)
        self.network.send(message)
        return message

    def deliver(self, message: Message) -> None:
        """Deliver an arriving message to the registered handler.

        Messages arriving at a dead node are silently dropped (the network
        has already accounted for the drop); messages with no registered
        handler raise, because that is always a wiring bug in this code base.
        """
        if not self.alive:
            return
        handler = self._handlers.get(message.protocol)
        if handler is None:
            raise NetworkError(
                f"node {self.address}: no handler for protocol {message.protocol!r}"
            )
        handler(self, message)

    # --------------------------------------------------------------- timers

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any):
        """Schedule a local timer; skipped automatically if the node is dead."""

        def _guarded() -> None:
            if self.alive:
                callback(*args)

        return self.network.timers.schedule(delay, _guarded)

    def schedule_periodic(self, period: float, callback: Callable[..., None],
                          *args: Any, initial_delay: Optional[float] = None):
        """Schedule a periodic local timer that pauses while the node is dead."""

        def _guarded() -> None:
            if self.alive:
                callback(*args)

        return self.network.timers.schedule_periodic(
            period, _guarded, initial_delay=initial_delay
        )

    @property
    def now(self) -> float:
        """Current time on this node's transport clock."""
        return self.network.timers.now

    # --------------------------------------------------------------- failure

    def fail(self) -> None:
        """Mark the node as failed; it stops processing messages and timers."""
        self.alive = False

    def recover(self) -> None:
        """Bring the node back up (with whatever state upper layers left it)."""
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"Node({self.address}, {state}, handlers={sorted(self._handlers)})"
