"""Unit tests for the discrete-event simulator."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.exceptions import SimulationError
from repro.net.simulator import Simulator


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_initial_clock_can_be_offset():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run_until_idle()
    assert fired == ["a"]
    assert sim.now == pytest.approx(1.5)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "late")
    sim.schedule(1.0, order.append, "early")
    sim.schedule(2.0, order.append, "middle")
    sim.run_until_idle()
    assert order == ["early", "middle", "late"]


def test_same_time_events_fire_in_fifo_order():
    sim = Simulator()
    order = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, order.append, label)
    sim.run_until_idle()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(4.0, fired.append, "x")
    sim.run_until_idle()
    assert sim.now == pytest.approx(4.0)
    assert fired == ["x"]


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run_until_idle()
    assert fired == []
    assert handle.cancelled


def test_run_until_limit_stops_clock_at_limit():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == pytest.approx(5.0)
    sim.run_until_idle()
    assert fired == ["a", "b"]


def test_run_until_includes_events_exactly_at_limit():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_max_events_limit():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(1.0, chain, 0)
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == pytest.approx(6.0)


def test_periodic_event_fires_repeatedly_until_cancelled():
    sim = Simulator()
    fired = []
    handle = sim.schedule_periodic(2.0, lambda: fired.append(sim.now))
    sim.run(until=7.0)
    assert fired == [pytest.approx(2.0), pytest.approx(4.0), pytest.approx(6.0)]
    handle.cancel()
    sim.run(until=20.0)
    assert len(fired) == 3


def test_periodic_event_initial_delay():
    sim = Simulator()
    fired = []
    sim.schedule_periodic(5.0, lambda: fired.append(sim.now), initial_delay=1.0)
    sim.run(until=11.0)
    assert fired == [pytest.approx(1.0), pytest.approx(6.0), pytest.approx(11.0)]


def test_periodic_rejects_non_positive_period():
    with pytest.raises(SimulationError):
        Simulator().schedule_periodic(0.0, lambda: None)


def test_run_until_idle_returns_on_a_calendar_only_periodic_timers_keep_busy():
    """Periodic firings are background events: the simulator is idle with
    one pending, ``run_until_idle`` returns at once, and ``run(until=)``
    still fires it."""
    sim = Simulator()
    fired = []
    handle = sim.schedule_periodic(1.0, lambda: fired.append(sim.now))
    assert sim.idle and sim.pending_events == 1
    assert sim.run_until_idle() == 0.0
    assert sim.events_processed == 0
    assert sim.run(until=3.0) == 3.0
    assert fired == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
    assert sim.idle and sim.pending_events == 1
    handle.cancel()
    assert sim.idle and sim.pending_events == 0


def test_run_until_idle_drains_other_events_and_timers_that_stop():
    """Foreground work runs to the end, with the background firings due
    before its last event; those due later stay pending."""
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: sim.schedule_periodic(1.0, fired.append, "tick"))
    sim.schedule(7.5, fired.append, "work")
    assert not sim.idle
    assert sim.run_until_idle() == pytest.approx(7.5)
    assert fired == ["tick", "tick", "work"]
    assert sim.idle and sim.next_event_time() == pytest.approx(8.0)

    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 25:
            handle.cancel()

    handle = sim.schedule_periodic(1.0, tick)
    sim.schedule(100.0, lambda: None)  # keeps the calendar busy past the ticks
    assert sim.run_until_idle() == pytest.approx(100.0)
    assert len(ticks) == 25
    assert sim.pending_events == 0


def test_background_events_count_until_they_fire_or_are_cancelled():
    """A background one-shot stays background when postponed; firing or
    cancelling it leaves the idle count consistent with the foreground."""
    sim = Simulator()
    fired = []
    reaper = sim.schedule_background(10.0, fired.append, "reaper")
    other = sim.schedule_background(3.0, fired.append, "other")
    assert sim.idle and sim.pending_events == 2
    work = sim.schedule(2.0, fired.append, "work")
    assert not sim.idle
    sim.postpone(reaper, 20.0)
    work.cancel()
    work.cancel()  # a second cancel counts nothing
    assert sim.idle
    sim.schedule(4.0, fired.append, "late work")
    assert sim.run_until_idle() == pytest.approx(4.0)
    assert fired == ["other", "late work"]
    assert sim.idle and sim.pending_events == 1
    reaper.cancel()
    assert sim.pending_events == 0 and sim.next_event_time() is None


def test_run_until_idle_on_a_deployment_with_renewal_agents():
    from repro.harness import PierNetwork, SimulationConfig

    pier = PierNetwork(SimulationConfig(num_nodes=8, seed=1))
    pier.start_renewal_agents(30.0)
    assert pier.run_until_idle() == 0.0
    assert pier.network.simulator.pending_events == 8
    assert pier.wait(None) is None and pier.wait(100.0) is None
    assert pier.now == 0.0


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    assert sim.events_processed == 4


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run_until_idle()

    sim.schedule(1.0, reenter)
    sim.run_until_idle()


# ------------------------------------------------------------- postponement
#
# ``Simulator.postpone`` replaced "cancel the event, schedule a new one" (what
# the network did per message joining a delivery group).  That mechanism lives
# on here as the reference: a calendar that is nothing but a list of
# ``(time, seq)``-keyed records, scanned for its minimum.


class ReferenceHandle:
    def __init__(self, time, seq, callback, args):
        self.time, self.seq, self.callback, self.args = time, seq, callback, args
        self.cancelled = self.fired = False

    def cancel(self):
        self.cancelled = True


class ReferenceSimulator:
    """Same surface as :class:`Simulator`; ``postpone`` returns a new handle."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._seq = 0
        self._events = []

    def _live(self):
        return [e for e in self._events if not (e.cancelled or e.fired)]

    @property
    def pending_events(self):
        return len(self._live())

    def next_event_time(self):
        return min((e.time for e in self._live()), default=None)

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError("negative delay")
        handle = ReferenceHandle(self.now + delay, self._seq, callback, args)
        self._seq += 1
        self._events.append(handle)
        return handle

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise SimulationError("in the past")
        return self.schedule(time - self.now, callback, *args)

    def postpone(self, handle, time):
        handle.cancel()
        return self.schedule_at(time, handle.callback, *handle.args)

    def run(self, until=None, max_events=None):
        executed = 0
        while self._live() and (max_events is None or executed < max_events):
            event = min(self._live(), key=lambda e: (e.time, e.seq))
            if until is not None and event.time > until:
                break
            self.now = event.time
            event.fired = True
            event.callback(*event.args)
            self.events_processed += 1
            executed += 1
        next_time = self.next_event_time()
        if until is not None and self.now < until and not (
                next_time is not None and next_time <= until):
            self.now = until
        return self.now


class Side:
    """One simulator plus the events a test named, and what fired when.

    An event is named by a label and carries a *script*: what its callback
    does when it fires — spawn children (zero-delay ones land in the ready
    lane), postpone or cancel other events.  Both sides run the same script.
    """

    def __init__(self, sim):
        self.sim = sim
        self.handles = {}
        self.log = []

    def pending(self, label):
        handle = self.handles[label]
        return not (handle.cancelled or handle.fired)

    def schedule(self, label, delay, script=(), absolute=False):
        arm = self.sim.schedule_at if absolute else self.sim.schedule
        when = self.sim.now + delay if absolute else delay
        self.handles[label] = arm(when, self.fire, label, script)

    def postpone(self, label, extra):
        handle = self.handles[label]
        self.handles[label] = self.sim.postpone(handle, handle.time + extra) or handle

    def pick(self, pick, due_now=False):
        """A pending event (``due_now``: one due at the current instant)."""
        labels = sorted(label for label in self.handles if self.pending(label)
                        and (self.handles[label].time == self.sim.now or not due_now))
        return labels[pick % len(labels)] if labels else None

    def fire(self, label, script):
        self.log.append((label, self.sim.now))
        for step, (action, pick, amount) in enumerate(script):
            target = self.pick(pick, due_now=action.endswith("due now"))
            if action.startswith("spawn"):
                self.schedule(f"{label}/{step}", 0.0 if action == "spawn now" else amount)
            elif target is not None and action.startswith("postpone"):
                # "due now": to the same instant, behind what is queued there.
                self.postpone(target, 0.0 if action.endswith("due now") else amount)
            elif target is not None:
                self.handles[target].cancel()

    def observe(self):
        sim = self.sim
        times = {label: handle.time for label, handle in self.handles.items()
                 if self.pending(label)}
        return (self.log, sim.now, sim.events_processed, sim.pending_events,
                sim.next_event_time(), times)


#: Zero and binary fractions make ties (same-timestamp postponements, the
#: ready lane) common; decimal fractions and arbitrary floats make
#: ``now + (time - now)`` round both ways.
delays = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.1, 0.35, 0.45]),
                   st.floats(min_value=0.0, max_value=4.0))
picks = st.integers(min_value=0, max_value=50)
scripts = st.lists(
    st.tuples(st.sampled_from(["spawn", "spawn now", "postpone", "postpone due now",
                               "cancel", "cancel due now"]), picks, delays),
    max_size=4)


class PostponeEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sides = (Side(Simulator()), Side(ReferenceSimulator()))
        self.count = 0

    def both(self, action):
        for side in self.sides:
            action(side)

    @rule(delay=delays, script=scripts, absolute=st.booleans())
    def schedule(self, delay, script, absolute):
        self.count += 1
        label = f"e{self.count}"
        self.both(lambda side: side.schedule(label, delay, script, absolute))

    @rule(pick=picks, extra=delays, due_now=st.booleans())
    def postpone(self, pick, extra, due_now):
        label = self.sides[1].pick(pick, due_now)
        if label is not None:
            self.both(lambda side: side.postpone(label, extra))

    @rule()
    def postpone_head(self):
        # The event at the head of the calendar, to its own timestamp.
        handles = self.sides[1].handles
        pending = [label for label in handles if self.sides[1].pending(label)]
        if pending:
            head = min(pending, key=lambda label: (handles[label].time,
                                                   handles[label].seq))
            self.both(lambda side: side.postpone(head, 0.0))

    @rule(pick=picks)
    def cancel(self, pick):
        label = self.sides[1].pick(pick)
        if label is not None:
            self.both(lambda side: side.handles[label].cancel())

    @rule(span=st.one_of(st.none(), delays),
          max_events=st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
    def run(self, span, max_events):
        self.both(lambda side: side.sim.run(
            until=None if span is None else side.sim.now + span,
            max_events=max_events))

    @invariant()
    def sides_agree(self):
        real, reference = (side.observe() for side in self.sides)
        assert real == reference


PostponeEquivalence.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None)
TestPostponeEquivalence = PostponeEquivalence.TestCase


def test_postponed_event_fires_once_at_its_new_position():
    sim = Simulator()
    order = []
    early = sim.schedule(1.0, order.append, "postponed")
    sim.schedule(2.0, order.append, "already there")
    sim.postpone(early, 2.0)  # same timestamp: queues behind what is there
    assert early.time == 2.0
    assert sim.pending_events == 2
    assert sim.next_event_time() == 2.0
    sim.run_until_idle()
    assert order == ["already there", "postponed"]
    assert sim.events_processed == 2


def test_postponed_head_is_seen_through_by_run_until():
    sim = Simulator()
    fired = []
    head = sim.schedule(1.0, fired.append, "head")
    sim.postpone(head, 5.0)
    assert sim.run(until=3.0) == 3.0  # nothing runnable: the clock moves on
    assert fired == []
    sim.postpone(head, 5.0)
    head.cancel()  # postponed, then cancelled
    assert sim.pending_events == 0
    assert sim.next_event_time() is None
    assert sim.run_until_idle() == 3.0
    assert fired == []


def test_zero_delay_event_postponed_from_a_callback():
    sim = Simulator()
    order = []

    def root():
        first = sim.schedule(0.0, order.append, "first")  # ready lane
        sim.schedule(0.0, order.append, "second")
        sim.postpone(first, sim.now)  # same instant, now behind "second"
        later = sim.schedule(0.0, order.append, "later")
        sim.postpone(later, sim.now + 1.0)

    sim.schedule(1.0, root)
    sim.run_until_idle()
    assert order == ["second", "first", "later"]
    assert sim.now == 2.0


def test_postponing_rounds_like_schedule_at_even_to_an_ulp_earlier():
    # 0.1 + (0.45 - 0.1) is one ulp *below* 0.45: cancel + schedule_at put
    # the event ahead of one already due at 0.45, and so must postpone.
    assert 0.1 + (0.45 - 0.1) < 0.45
    sim = Simulator()
    order = []
    sim.schedule(0.45, order.append, "exactly 0.45")
    moved = sim.schedule(0.45, lambda: order.append(("moved", sim.now)))
    sim.run(until=0.1)
    sim.postpone(moved, 0.45)
    assert moved.time == 0.1 + (0.45 - 0.1)
    assert sim.next_event_time() == moved.time
    sim.run_until_idle()
    assert order == [("moved", 0.1 + (0.45 - 0.1)), "exactly 0.45"]


def test_postpone_rejects_earlier_times_and_dead_events():
    sim = Simulator()
    handle = sim.schedule(2.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.postpone(handle, 1.0)
    handle.cancel()
    with pytest.raises(SimulationError):
        sim.postpone(handle, 3.0)
    fired = sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.postpone(fired, 3.0)
