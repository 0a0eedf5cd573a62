"""Discrete-event simulator with a virtual clock.

Every experiment in the paper is driven by a message-level simulator; this
module provides the event loop that the network, DHT and query-processor
layers schedule work on.  The design is a classic calendar queue built on
``heapq``:

* :meth:`Simulator.schedule` registers a callback to fire after a delay.
* :meth:`Simulator.run` drains events in timestamp order, advancing the
  virtual clock; wall-clock time never enters the simulation.
* Periodic processes (soft-state sweeps, keep-alives, renewals) are
  expressed with ``schedule_periodic`` (inherited from
  :class:`repro.net.transport.TimerService`), which returns a handle that
  can be cancelled.
* :meth:`Simulator.schedule_background` registers upkeep no caller waits
  on: periodic timers' firings, the executor's per-state reaper, the
  failure injector's failures and resumptions.  The simulator is **idle**
  when no other (foreground) event is pending, however many background
  events are: :meth:`Simulator.run_until_idle` stops there.
* :meth:`Simulator.postpone` moves a pending event later; the network uses
  it to keep one event per coalesced delivery group.

Events scheduled for the same timestamp fire in FIFO order of scheduling,
which keeps runs deterministic for a fixed seed.

Same-timestamp hot path
-----------------------
Large simulations (the 10k-node scale-up runs) are dominated by zero-delay
events: local deliveries and callback chains that all fire at the *current*
virtual time.  Pushing those through the heap costs ``O(log n)`` per event
for no ordering benefit, so :meth:`Simulator.schedule` routes zero-delay
events scheduled *during* a run into a plain FIFO deque (the "ready lane")
that :meth:`Simulator.run` drains in O(1) per event.

Entry layout
------------
Both lanes hold plain ``(time, seq, event)`` tuples, so every heap sift
compares a float (and, on ties, an int) at C speed; the event object itself
is never compared.  An event's *current* key lives on the event.  Each
pending event has exactly one entry, and that entry may be **stale**: filed
under an older key than the event now carries, because the event was
postponed since.  That is safe because a postponement never lowers the key
(the time does not decrease and the sequence number is fresh), so a stale
entry surfaces no later than the event is due; :meth:`Simulator._peek`
re-files it under the current key at the point where it also discards the
entries of cancelled events.  The result is exactly the firing position that
cancelling the event and scheduling a new one would give, without the dead
heap entry per postponement.  A live-event counter tracks
scheduled-minus-(fired-or-cancelled) events, and a second one the
background events among them, so :attr:`pending_events` and :attr:`idle`
are O(1); postponing leaves both untouched.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Optional, Tuple

from repro.exceptions import SimulationError
from repro.net.transport import TimerService


class EventHandle:
    """One scheduled event, returned by :meth:`Simulator.schedule`.

    ``time`` is the virtual time at which the event is due to fire and
    ``cancelled`` whether :meth:`cancel` has been called; ``time``/``seq``
    are the event's current calendar key.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired",
                 "background", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., None],
                 args: tuple, sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        #: Upkeep that does not keep the simulator busy (module docs).
        self.background = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self._sim._cancel(self)


#: A calendar entry: ``(time, seq, event)``, possibly stale (module docs).
_Entry = Tuple[float, int, EventHandle]


class Simulator(TimerService):
    """Virtual-clock discrete-event simulator.

    Doubles as the :class:`repro.net.transport.TimerService` of the
    simulated transport: nodes schedule their soft-state timers directly on
    the event loop that also delivers their messages.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[_Entry] = []  # heap
        #: Zero-delay events of the current timestamp, in sequence order.
        self._ready: deque[_Entry] = deque()
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._live = 0  # scheduled and neither fired nor cancelled
        self._background = 0  # the background events among them

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still waiting to fire."""
        return self._live

    @property
    def idle(self) -> bool:
        """Whether only background events (or none) are left to fire."""
        return self._live == self._background

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises
        ------
        SimulationError
            If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        time = self._now + delay
        seq = next(self._seq)
        event = EventHandle(time, seq, callback, args, self)
        self._live += 1
        if delay == 0 and self._running:
            # Hot path: a zero-delay event scheduled mid-run fires at the
            # current timestamp after everything already queued there, which
            # is exactly FIFO order on the ready lane — no heap needed.
            self._ready.append((time, seq, event))
        else:
            heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_background(self, delay: float, callback: Callable[..., None],
                            *args: Any) -> EventHandle:
        """:meth:`schedule` an event that does not keep the simulator busy."""
        event = self.schedule(delay, self._fire_background, callback, args)
        event.background = True
        self._background += 1
        return event

    def _fire_background(self, callback: Callable[..., None],
                         args: Tuple[Any, ...]) -> None:
        self._background -= 1  # here, not in the run loop every event takes
        callback(*args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        The event's time is ``now + (time - now)``, which floating point
        may leave an ulp away from ``time``.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time}, clock already at {self._now}"
            )
        return self.schedule(time - self._now, callback, *args)

    def postpone(self, event: EventHandle, time: float) -> None:
        """Move a pending ``event`` to ``time`` (not before its current time).

        Equivalent to cancelling the event and calling :meth:`schedule_at`
        with the same callback — same time arithmetic, a fresh sequence
        number, so the event queues behind everything already due at
        ``time`` — but the event object, and its single calendar entry,
        stay (see "Entry layout" in the module docs).
        """
        if event.cancelled or event.fired:
            raise SimulationError("only a pending event can be postponed")
        if time < event.time:
            raise SimulationError(
                f"cannot postpone an event due at {event.time} back to {time}"
            )
        previous = event.time
        time = self._now + (time - self._now)  # as schedule_at stores it
        event.time = time
        event.seq = next(self._seq)
        if time < previous:
            # Rounded to an ulp *before* the old time: an entry filed later
            # than that would surface too late, so it is re-filed now.
            for index, entry in enumerate(self._queue):
                if entry[2] is event and entry[0] > time:
                    self._queue[index] = (time, event.seq, event)
                    heapq.heapify(self._queue)
                    break

    def _cancel(self, event: EventHandle) -> None:
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._live -= 1
        self._background -= event.background

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Process events in order until none is left, the next is due after
        ``until`` (one due at exactly ``until`` runs) or ``max_events`` ran
        (a safety valve for tests); returns the virtual time."""
        return self._run(until, max_events, False)

    def run_until_idle(self) -> float:
        """Run until the simulator is :attr:`idle`; returns the virtual time.

        Background events due before the last foreground one fire in order;
        the rest stay pending, so periodic processes never hold the run.
        """
        return self._run(None, None, True)

    def _run(self, until: Optional[float], max_events: Optional[int],
             to_idle: bool) -> float:
        if self._running:
            raise SimulationError("simulator run() is not re-entrant")
        self._running = True
        executed = 0
        queue, ready = self._queue, self._ready
        try:
            while max_events is None or executed < max_events:
                if to_idle and self._live == self._background:
                    break
                entry = self._peek()
                if entry is None or (until is not None and entry[0] > until):
                    break
                if ready and ready[0] is entry:
                    ready.popleft()
                else:
                    heapq.heappop(queue)
                event = entry[2]
                self._now = event.time
                event.fired = True
                self._live -= 1
                event.callback(*event.args)
                self._events_processed += 1
                executed += 1
        finally:
            self._running = False
            # Anything left in the ready lane must survive across runs; merge
            # it back into the heap (time == now, sequence numbers preserved).
            while ready:
                heapq.heappush(queue, ready.popleft())
        if until is not None and self._now < until:
            next_time = self.next_event_time()
            if next_time is None or next_time > until:
                self._now = until
        return self._now

    def _peek(self) -> Optional[_Entry]:
        """Entry of the next event to fire, left at the head of its lane.

        The lane whose head has the smaller key goes first (ready-lane
        entries are all due now; a heap entry due now precedes them only if
        it was filed earlier).  A head belonging to a cancelled event is
        discarded and a stale one re-filed under its event's current key,
        until the head is a live event's current entry.
        """
        queue, ready = self._queue, self._ready
        while queue or ready:
            from_ready = bool(ready) and not (queue and queue[0] < ready[0])
            entry = ready[0] if from_ready else queue[0]
            event = entry[2]
            if not event.cancelled and entry[1] == event.seq:
                return entry
            current = (event.time, event.seq, event)
            if from_ready:
                ready.popleft()
                if not event.cancelled:
                    heapq.heappush(queue, current)
            elif event.cancelled:
                heapq.heappop(queue)
            else:
                heapq.heapreplace(queue, current)
        return None

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest runnable event, or ``None`` when none is
        pending (background events count).

        Cancelled and postponed events are seen through, so callers polling
        between :meth:`run` calls (e.g. result cursors deciding how far to
        drive) see the true next activity time.
        """
        entry = self._peek()
        return None if entry is None else entry[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
