"""The transport seam: one message/timer surface, two implementations.

Everything above :class:`repro.net.node.Node` — the DHT routing layers, the
Provider, the multicast service, the query executor — talks to the outside
world through exactly two operations on the object it calls ``network``:

* ``network.send(message)`` — asynchronous, fire-and-forget delivery of a
  :class:`repro.net.message.Message` to another node (or back to itself).
* ``network.timers`` — a :class:`TimerService` used for soft-state sweeps,
  keep-alives, collection windows and request timeouts.

:class:`Transport` names that seam.  The discrete-event
:class:`repro.net.network.SimulatedNetwork` implements it with a virtual
clock (its ``timers`` *is* the :class:`repro.net.simulator.Simulator`), and
:class:`repro.net.real.RealTransport` implements it with asyncio TCP
sockets and wall-clock timers.  Because the upper layers never look past
this surface, ``core/``, ``dht/`` and ``client.py`` run unchanged over
either — the property the paper relies on when it moves between the
simulator and the 64-node cluster deployment with one code base.

Delivery contract (both implementations):

* Sends never block and never raise for remote conditions; they may raise
  for local programming errors (unknown address in the simulator).
* Messages between a pair of live nodes arrive in send order.
* A message to a dead/unreachable node is dropped; if the *sender*
  registered a bounce handler for the protocol, it is notified
  asynchronously via ``Node.deliver_bounce`` (a transport timeout stand-in).
* Local sends (``src == dst``) are still asynchronous: the handler runs on
  a later tick, never inside the caller's stack frame.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Tuple

from repro.exceptions import SimulationError
from repro.net.message import Message


class PeriodicHandle:
    """Handle for a repeating timer; cancelling stops future repetitions.

    Each firing runs the callback, then schedules the next one-shot firing.
    The pending one-shot points back at this handle, so :meth:`cancel`
    drops it: a stopped timer is freed by reference counting.  Mutable by
    contract and never on the wire, so not slotted.
    """

    def __init__(self, timers: "TimerService", period: float,
                 callback: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.active = True
        #: One-shot handle of the next firing.
        self.current: Any = None
        self._timers = timers
        self._period = period
        self._callback = callback
        self._args = args

    def _fire(self) -> None:
        if not self.active:
            return
        self._callback(*self._args)
        if self.active:
            self.current = self._timers.schedule(self._period, self._fire)

    def cancel(self) -> None:
        """Stop the periodic process."""
        self.active = False
        if self.current is not None:
            self.current.cancel()
            self.current = None


class TimerService(ABC):
    """Clock plus one-shot and periodic timers (the Simulator's surface).

    An implementation supplies the clock and :meth:`schedule`, whose handles
    expose ``cancel()``, ``cancelled`` and ``time`` (the absolute due time on
    this service's clock): the simulator's
    :class:`repro.net.simulator.EventHandle` and the real transport's
    wall-clock handle.  Periodic timers are built on those here, once, and
    return a :class:`PeriodicHandle` (``cancel()`` / ``active``).
    """

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock monotonic)."""

    @abstractmethod
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Any:
        """Run ``callback(*args)`` once, ``delay`` seconds from now.

        Returns a handle exposing ``cancel()`` / ``cancelled`` / ``time``;
        the concrete handle type is implementation-specific.
        """

    def schedule_periodic(self, period: float, callback: Callable[..., None],
                          *args: Any, initial_delay: Optional[float] = None
                          ) -> PeriodicHandle:
        """Run ``callback(*args)`` every ``period`` seconds until cancelled.

        ``initial_delay`` defaults to ``period`` (i.e. the first firing is one
        full period from now).
        """
        if period <= 0:
            raise SimulationError(
                f"periodic timers need a positive period (got {period})")
        handle = PeriodicHandle(self, period, callback, args)
        first = period if initial_delay is None else initial_delay
        handle.current = self.schedule(first, handle._fire)
        return handle


class Transport(ABC):
    """Message fabric + timer service one node (or a whole simulation) uses.

    The simulated implementation hosts *every* node of a deployment behind
    one Transport; the real implementation hosts exactly one node per
    process and turns remote addresses into TCP connections.  Upper layers
    cannot tell the difference — they hold a ``network`` reference and use
    only this surface.
    """

    @property
    @abstractmethod
    def timers(self) -> TimerService:
        """The timer service local handlers schedule their soft state on."""

    @abstractmethod
    def send(self, message: Message) -> None:
        """Queue ``message`` for asynchronous delivery (see module docs)."""

    def forget_peer(self, address: int) -> None:
        """Release any per-peer delivery state held for ``address``.

        Called by the membership layer when a node leaves the cluster for
        good (graceful departure, confirmed permanent removal).  The
        default is a no-op: the simulator keeps no per-peer state.  The
        real transport drops the pooled connection and bounces frames
        still queued for the departed peer.
        """
