"""Continuous queries over streams (extension of the paper's Section 7).

PIER's push-based, asynchronous engine makes continuous queries a small
step: the paper notes that wrapped network traces behave as unbounded
streams and that "windowing" is the first ingredient needed.  This module
provides two building blocks:

* :class:`PeriodicQuery` — re-submits a query spec on a fixed period from
  the initiating node, collecting one :class:`repro.core.executor.QueryHandle`
  per window.  Each execution is an ordinary PIER query over whatever soft
  state is live at that moment, which composes naturally with publishers
  that keep streaming new tuples in; a window's distributed state is torn
  down when the next one starts, the last one's by :meth:`PeriodicQuery.stop`.
* :class:`SlidingWindowPredicate` — helper that builds a predicate
  restricting a timestamp column to the trailing window, so each periodic
  execution only sees recent data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.expressions import And, Comparison, Expression, col, lit
from repro.core.query import QuerySpec


@dataclass
class SlidingWindowPredicate:
    """Builds ``timestamp_column >= now - window`` predicates."""

    timestamp_column: str
    window_s: float

    def at(self, now: float) -> Expression:
        """Predicate selecting rows inside the window ending at ``now``."""
        return Comparison(">=", col(self.timestamp_column), lit(now - self.window_s))

    def combined_with(self, other: Optional[Expression], now: float) -> Expression:
        """Window predicate AND-ed with an existing predicate (if any)."""
        window = self.at(now)
        if other is None:
            return window
        return And([other, window])


class PeriodicQuery:
    """Re-execute a query spec every ``period_s`` seconds from one node.

    Parameters
    ----------
    executor:
        The initiating node's query executor.
    query_template:
        The query to re-run.  Each execution gets a fresh ``query_id`` so its
        temporary namespaces do not collide with previous windows.
    period_s:
        Interval between executions.
    window:
        Optional sliding-window helper applied to the first table's local
        predicate before each execution.
    on_window:
        Optional callback invoked with each new :class:`QueryHandle` at the
        moment it is submitted.
    prepare_window:
        Optional callable invoked with each window's cloned
        :class:`QuerySpec` (window predicate already applied) just before
        submission.  ``PierClient.continuous`` uses it to re-optimize
        ``strategy=AUTO`` templates per window from refreshed statistics, so
        a drifting workload can flip strategy between windows.
    """

    def __init__(self, executor, query_template: QuerySpec, period_s: float,
                 window: Optional[SlidingWindowPredicate] = None,
                 on_window: Optional[Callable] = None,
                 prepare_window: Optional[Callable[[QuerySpec], None]] = None):
        if period_s <= 0:
            raise ValueError("continuous queries need a positive period")
        self.executor = executor
        self.query_template = query_template
        self.period_s = period_s
        self.window = window
        self.on_window = on_window
        self.prepare_window = prepare_window
        self.handles: List = []
        self._timer = None

    # ----------------------------------------------------------------- drive

    def start(self, immediate: bool = True) -> None:
        """Begin periodic execution (optionally firing the first window now)."""
        if self._timer is not None:
            return
        if immediate:
            self._execute_window()
        self._timer = self.executor.node.schedule_periodic(
            self.period_s, self._execute_window
        )

    def stop(self) -> None:
        """Stop scheduling further windows and tear down the last one.

        The teardown multicast is delivered as the deployment keeps running.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._finish_latest()

    # -------------------------------------------------------------- internals

    def _finish_latest(self) -> None:
        """Tear down the latest window's distributed state (probes,
        subscriptions, temporary fragments), so a long-running monitor holds
        the state of one window at most.  Its result count is folded into the
        optimizer feedback: a window replaced by the next one had a full
        period to drain."""
        if self.handles:
            self.executor.finish(self.handles[-1].query.query_id,
                                 record_feedback=True)

    def _execute_window(self) -> None:
        self._finish_latest()
        # Rebuild only the per-window mutable state (fresh query id and
        # containers); the immutable plan and expressions are shared, so a
        # window costs no deep copy of the whole spec.
        query = self.query_template.clone_for_window()
        if self.window is not None:
            alias = query.tables[0].alias
            existing = query.local_predicates.get(alias)
            query.local_predicates[alias] = self.window.combined_with(
                existing, self.executor.now
            )
        if self.prepare_window is not None:
            self.prepare_window(query)
        handle = self.executor.submit(query)
        self.handles.append(handle)
        if self.on_window is not None:
            self.on_window(handle)

    # ---------------------------------------------------------------- results

    @property
    def windows_executed(self) -> int:
        """Number of windows submitted so far."""
        return len(self.handles)

    def latest_handle(self):
        """Handle of the most recently submitted window (or ``None``)."""
        return self.handles[-1] if self.handles else None
