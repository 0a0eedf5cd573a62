"""PierClient: the session-level query API over a PIER deployment.

The layers below this module speak in mechanisms — :class:`QuerySpec`
multicasts, per-node executors, operator graphs.  ``PierClient`` is the one
composable surface applications use instead:

.. code-block:: python

    client = PierClient(pier, node=0, catalog=workload.catalog())

    cursor = client.sql("SELECT R.pkey, S.pkey, R.pad FROM R, S "
                        "WHERE R.num1 = S.pkey LIMIT 100")
    first = cursor.fetch(10)          # drive the deployment until 10 rows
    for row in cursor:                # ... or stream the rest
        consume(row)
    cursor.cancel()                   # tear the dataflow down everywhere

    print(client.explain("SELECT ..."))          # physical operator graph
    monitor = client.continuous("SELECT ...", period_s=30.0)

Queries are long-lived dataflows with soft-state lifetimes; the cursor owns
the lifecycle: it enforces ``LIMIT`` and per-query timeouts at the
initiator, and on completion/cancel it multicasts a teardown so every
node's probes, subscriptions, timers and temporary fragments are released
(see :meth:`repro.core.executor.QueryExecutor.finish`).

The cursor *drives* the deployment on demand through the :class:`Deployment`
contract (iteration and ``fetch`` wait until enough rows arrive): a
simulated :class:`repro.harness.experiment.PierNetwork` advances virtual
time, a :class:`repro.remote.RemotePier` blocks on its gateway socket.
Experiments that run their own event loop — failure injection, renewal
agents — can keep driving the network themselves and simply read the
cursor's views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Protocol, Sequence

from repro.core import costmodel
from repro.core.catalog import Catalog
from repro.core.continuous import PeriodicQuery, SlidingWindowPredicate
from repro.core.executor import QueryExecutor, QueryHandle
from repro.core.opgraph import OpGraph, build_opgraph
from repro.core.query import JoinStrategy, QuerySpec
from repro.core.sql.planner import SQLPlanner
from repro.core.stats import StatsRegistry
from repro.core.tuples import RelationDef
from repro.exceptions import PlanError

@dataclass
class CompletenessReport:
    """How much of a query's distributed dataflow actually delivered.

    PIER degrades gracefully under churn — lost fragments and unreachable
    owners lower recall instead of blocking the sink — and this report is
    how a caller tells a complete answer from a degraded one.  Counts are
    aggregated across the whole (simulated) deployment for one query:

    * ``gets_*`` — the query's DHT read requests (Fetch Matches probes,
      semi-join full-tuple fetches): issued vs completed, failed after
      retry exhaustion / unroutable keys, and still pending.
    * ``fragments_lost`` — temporary fragments (rehash tuples, Bloom
      filters, aggregation partials) bounced off dead destinations.
    * ``degraded_ops`` — operators that ran a failure fallback (e.g. a
      Bloom gate rehashing unfiltered because its summary never arrived).
    * ``nodes_with_state`` — executors still holding per-query state at
      snapshot time (after teardown settles this must reach zero).
    """

    query_id: int
    result_rows: int = 0
    gets_issued: int = 0
    gets_completed: int = 0
    gets_failed: int = 0
    gets_pending: int = 0
    fragments_lost: int = 0
    degraded_ops: int = 0
    nodes_with_state: int = 0

    def add(self, share: Dict[str, Any]) -> None:
        """Fold in one node's share (:meth:`QueryExecutor.completeness_share`)."""
        gets = share["gets"]
        self.gets_issued += gets["issued"]
        self.gets_completed += gets["completed"]
        self.gets_failed += gets["failed"]
        self.gets_pending += gets["pending"]
        self.fragments_lost += share["fragments_lost"]
        if share["has_state"]:
            self.nodes_with_state += 1
            self.degraded_ops += share["degraded_ops"]

    @property
    def complete(self) -> bool:
        """Whether no delivery loss was observed anywhere for this query."""
        return (self.gets_failed == 0 and self.gets_pending == 0
                and self.fragments_lost == 0 and self.degraded_ops == 0)

    def describe(self) -> str:
        """One-line human-readable summary."""
        status = "complete" if self.complete else "degraded"
        return (f"query {self.query_id} {status}: rows={self.result_rows} "
                f"gets {self.gets_completed}/{self.gets_issued} completed "
                f"({self.gets_failed} failed, {self.gets_pending} pending), "
                f"fragments lost {self.fragments_lost}, "
                f"degraded ops {self.degraded_ops}")


class Deployment(Protocol):
    """What a client drives and audits a deployment through, implemented by
    :class:`repro.harness.experiment.PierNetwork` and :class:`repro.remote.RemotePier`.

    ``wait(until)`` advances or blocks until something may have happened, or
    until ``until``, and returns the time of the next pending activity:
    ``None`` when idle, a value ``>= until`` when nothing is due before it.
    ``wait(None)`` lets in-flight work finish."""

    now: float

    def executor(self, node: int) -> QueryExecutor: ...

    def wait(self, until: Optional[float]) -> Optional[float]: ...

    def collect_completeness(self, report: CompletenessReport,
                             temp_namespaces: Sequence[str]
                             ) -> CompletenessReport: ...


class ResultCursor:
    """Streaming view of one running query, owned by a :class:`PierClient`.

    Iterating (or calling :meth:`fetch` / :meth:`fetchall`) waits on the
    deployment until enough result rows have reached the initiator, it goes
    idle, the per-query timeout expires, or the query's
    ``LIMIT`` is satisfied — whichever comes first.  ``LIMIT`` and timeout
    both cancel the distributed dataflow once they trigger.

    Idle means no foreground work is pending: periodic processes, state
    reapers and churn's failure injection run in the background and never
    keep a cursor waiting.  With no explicit ``timeout_s`` the cursor stops
    at the query's own soft-state lifetime (``temp_lifetime_s``) at the
    latest — its temporary fragments have expired by then.
    :attr:`timed_out` is set when either bound cut the query short.
    """

    def __init__(self, pier: Deployment, executor: QueryExecutor, query: QuerySpec,
                 handle: QueryHandle, timeout_s: Optional[float] = None):
        self._pier = pier
        self._executor = executor
        self.query = query
        self.handle = handle
        self.timeout_s = timeout_s
        self._limit = query.limit
        #: LIMIT on the rows streamed to the initiator, when they *are* the
        #: final rows.  Aggregations finalised at the initiator (a join with
        #: GROUP BY) stream partial records instead, so LIMIT applies to the
        #: merged groups and must not cut the dataflow off mid-stream.
        self._cap = None if query.finalized_at_initiator else query.limit
        self._closed = False
        self.cancelled = False
        self.timed_out = False
        self._final_completeness: Optional[CompletenessReport] = None

    # ----------------------------------------------------------------- views

    @property
    def query_id(self) -> int:
        """Identifier of the underlying query."""
        return self.query.query_id

    @property
    def rows(self) -> List[dict]:
        """Result rows received so far (LIMIT applied), in arrival order.

        For an aggregation finalised at the initiator these are the partial
        records received so far; :meth:`fetchall` returns its groups.
        """
        return self.handle.rows[:self._cap]

    @property
    def result_count(self) -> int:
        """Number of result rows delivered so far (LIMIT applied); the
        joined rows partial records stand for, when the initiator merges."""
        count = self.handle.result_count
        return count if self._cap is None else min(count, self._cap)

    @property
    def closed(self) -> bool:
        """Whether the query's distributed state has been torn down."""
        return self._closed

    def time_to_kth(self, k: int) -> Optional[float]:
        """Elapsed virtual time from submission to the k-th result row."""
        return self.handle.time_to_kth(k)

    def time_to_last(self) -> Optional[float]:
        """Elapsed virtual time from submission to the last received row."""
        return self.handle.time_to_last()

    def arrival_times(self) -> List[float]:
        """Elapsed arrival times of every received result row."""
        return self.handle.arrival_times()[:self._cap]

    def explain(self) -> str:
        """The physical operator graph this query runs as."""
        return "\n".join(build_opgraph(self.query).describe())

    def completeness(self) -> CompletenessReport:
        """Delivery accounting for this query across the whole deployment.

        While the query is open this is a live snapshot; the final snapshot
        is captured at teardown time (just before the per-node accounting is
        released) and returned from then on.  ``report.complete`` is the
        "no loss observed anywhere" signal; under churn expect ``False``
        with recall degraded proportionally.
        """
        if self._final_completeness is not None:
            return self._final_completeness
        return self._collect_completeness()

    def _collect_completeness(self) -> CompletenessReport:
        report = CompletenessReport(query_id=self.query_id,
                                    result_rows=self.handle.result_count)
        return self._pier.collect_completeness(
            report, build_opgraph(self.query).temp_namespaces())

    # -------------------------------------------------------------- lifecycle

    def cancel(self) -> None:
        """Stop result delivery and tear the dataflow down everywhere.

        The teardown is multicast immediately; the initiator releases its
        own state on the next event, remote nodes theirs as the flood
        reaches them, both as the simulation keeps running.
        """
        if self._closed:
            return
        self.cancelled = True
        self._teardown()

    def close(self) -> None:
        """Finish the query and release its distributed state.

        The deployment is then waited on until idle, so the teardown flood
        is fully delivered.  Closing a query that was neither cancelled nor
        timed out records its observed result cardinality as optimizer
        feedback — drive it to completion first (``fetchall``/iteration) so
        the count is the full result.
        """
        if not self._closed:
            self._teardown()
        self._pier.wait(None)

    def _teardown(self) -> None:
        self._closed = True
        # Snapshot delivery accounting before teardown releases it node by
        # node as the flood arrives.
        self._final_completeness = self._collect_completeness()
        # Observed-cardinality feedback is only trustworthy when the result
        # stream ran to completion; a LIMIT/timeout/cancel truncation would
        # publish an artificially low join selectivity.
        complete = not self.cancelled and not self.timed_out
        self._executor.finish(self.query_id, record_feedback=complete)

    # ---------------------------------------------------------------- driving

    def _deadline(self) -> float:
        """When to stop driving: the explicit timeout, or — failing that —
        the query's own soft-state lifetime: its temporary fragments have
        expired by then, so no result can legitimately arrive later.  This
        bounds cursor driving on a deployment that never reports idle (a
        real cluster).
        """
        horizon = self.query.temp_lifetime_s
        if self.timeout_s is not None:
            horizon = min(horizon, self.timeout_s)
        return self.handle.submitted_at + horizon

    def _limit_satisfied(self) -> bool:
        return self._cap is not None and self.handle.result_count >= self._cap

    def _advance(self, target_rows: Optional[int] = None) -> None:
        """Wait until enough rows arrived / idle / timeout / LIMIT."""
        deadline = self._deadline()
        goal = target_rows
        if self._cap is not None:
            goal = self._cap if goal is None else min(goal, self._cap)
        next_time = self._pier.now
        while True:
            if self._limit_satisfied():
                if not self._closed:
                    self.cancel()
                return
            if goal is not None and self.handle.result_count >= goal:
                return
            if next_time is None:
                return  # idle: everything the query will produce has arrived
            if next_time >= deadline:
                # Explicit timeout, or the query outlived its own soft state.
                if not self._closed:
                    self.timed_out = True
                    self.cancel()
                return
            next_time = self._pier.wait(deadline)

    def fetch(self, k: int) -> List[dict]:
        """Wait until ``k`` rows arrived; return the first k.

        Returns fewer rows when the query finishes (or times out / hits its
        LIMIT) before producing ``k``.
        """
        self._advance(target_rows=k)
        return self.rows[:k]

    def fetchall(self) -> List[dict]:
        """Run the query to completion and return its final rows.

        Aggregations finalised at the initiator are finalised here (merging
        the partial records the join sites or scan nodes shipped), and
        ``LIMIT`` applies to the finalised groups.  The query's distributed
        state is torn down and the deployment waited on until idle, so the
        teardown flood is fully delivered, before returning.  To read the
        deployment before the teardown (its traffic, per-query counters),
        drive the query with :meth:`fetch` first.
        """
        self._advance()
        rows = self.handle.final_rows()
        if self._limit is not None:
            rows = rows[:self._limit]
        self.close()
        return rows

    def __iter__(self) -> Iterator[dict]:
        """Stream result rows in arrival order, driving the deployment lazily.

        Aggregations finalised at the initiator cannot stream (their groups
        only exist once every partial arrived), so they run to completion
        first and then yield the final rows.
        """
        if self.query.finalized_at_initiator:
            yield from self.fetchall()
            return
        delivered = 0
        while True:
            if delivered < self.handle.result_count:
                rows = self.rows
                while delivered < len(rows):
                    yield rows[delivered]
                    delivered += 1
                if self._limit is not None and delivered >= self._limit:
                    return
                continue
            before = self.handle.result_count
            self._advance(target_rows=before + 1)
            if self.handle.result_count == before:
                return  # no more rows are coming

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (f"ResultCursor(query_id={self.query_id}, rows={self.result_count}, "
                f"{state})")


class PierClient:
    """Session handle bound to one node of a deployment.

    Parameters
    ----------
    pier:
        The assembled deployment: any :class:`Deployment` — a simulated
        :class:`repro.harness.experiment.PierNetwork` or a real cluster's
        :class:`repro.remote.RemotePier`.
    node:
        Address of the node queries are initiated from.
    catalog:
        Catalog used by the SQL planner; relations can also be registered
        later with :meth:`register`.  A call that picks no join strategy
        runs :attr:`JoinStrategy.AUTO`: the cost-based optimizer picks the
        cheapest feasible strategy from statistics published into the
        ``__pier_stats__`` DHT namespace.  Pass ``strategy=...`` per call to
        force one for A/B runs.
    stats:
        Statistics registry used for AUTO planning.  Defaults to the
        initiating node's executor registry, which accumulates publish-time
        partials and runtime feedback; planning refreshes it from the DHT.
    """

    def __init__(self, pier: Deployment, node: int = 0, catalog: Optional[Catalog] = None,
                 stats: Optional[StatsRegistry] = None):
        self.pier = pier
        self.node = node
        self.catalog = catalog if catalog is not None else Catalog()
        self.planner = SQLPlanner(self.catalog)
        self._stats = stats

    # ----------------------------------------------------------------- wiring

    @property
    def executor(self) -> QueryExecutor:
        """The initiating node's query executor."""
        return self.pier.executor(self.node)

    @property
    def stats(self) -> StatsRegistry:
        """The statistics registry AUTO planning reads and refreshes."""
        return self._stats if self._stats is not None else self.executor.stats

    def register(self, relation: RelationDef, replace: bool = False) -> RelationDef:
        """Register a relation so SQL can reference it."""
        return self.catalog.register(relation, replace=replace)

    # ------------------------------------------------------------- statistics

    def _refresh_stats(self, names: Sequence[str],
                       signatures: Sequence[str] = (),
                       drive: bool = True) -> None:
        """Refresh relation statistics (and join feedback) from the DHT.

        Issues one ``get`` per relation/signature against the
        ``__pier_stats__`` namespace; with ``drive`` the deployment is
        waited on until the replies arrive (planning happens from user code,
        outside event callbacks).  ``drive=False`` fires the fetches and
        returns — the asynchronous pattern continuous queries use inside
        timer callbacks, where the replies refresh the registry for the
        *next* window.
        """
        executor = self.executor
        provider = getattr(executor, "provider", None)
        if provider is None:
            return
        registry = self.stats
        pending = set()
        for name in names:
            token = ("rel", name)
            pending.add(token)
            registry.fetch_relation(
                provider, name,
                lambda _stats, token=token: pending.discard(token),
            )
        for signature in signatures:
            token = ("join", signature)
            pending.add(token)
            registry.fetch_join_observation(
                provider, signature,
                lambda _obs, token=token: pending.discard(token),
            )
        if not drive:
            return
        # Bounded wait: a handful of lookups resolve in well under this
        # horizon; if a reply is lost (owner failed mid-fetch) planning must
        # not wait forever on a deployment that never reports idle (a real
        # cluster) — whatever partials arrived are used, the rest fall back
        # to defaults.
        deadline = self.pier.now + 30.0
        next_time = self.pier.now
        while pending and next_time is not None and next_time < deadline:
            next_time = self.pier.wait(deadline)

    def _attach_planning_context(self, query: QuerySpec,
                                 refresh: bool = True) -> None:
        """Attach statistics, topology and feedback hints to a query spec."""
        names = [table.relation.name for table in query.tables]
        signature = costmodel.query_join_signature(query)
        if refresh:
            self._refresh_stats(names, [signature] if signature else ())
        registry = self.stats
        query.stats_map = {
            table.alias: registry.best_estimate(table.relation.name)
            for table in query.tables
        }
        query.topology = costmodel.TopologyParams.from_pier(self.pier)
        if signature is not None:
            query.join_selectivity_hint = registry.join_selectivity(signature)

    def _resolve_auto(self, query: QuerySpec, refresh: bool = True) -> None:
        """Resolve ``strategy=AUTO`` on ``query`` from (refreshed) statistics."""
        if query.strategy is not JoinStrategy.AUTO or not query.is_join:
            return
        self._attach_planning_context(query, refresh=refresh)
        costmodel.resolve_auto_strategy(query)

    # ---------------------------------------------------------------- queries

    def plan(self, sql: str, strategy: Optional[JoinStrategy] = None,
             resolve_auto: bool = True, **query_options) -> QuerySpec:
        """Plan SQL text into a :class:`QuerySpec` without running it.

        With the default ``strategy=AUTO``, planning refreshes relation
        statistics from the DHT and resolves the spec to the cheapest
        feasible physical strategy (``resolve_auto=False`` leaves the
        template unresolved — continuous queries re-optimize per window).
        """
        query = self.planner.plan_sql(
            sql, strategy=strategy or JoinStrategy.AUTO, **query_options
        )
        if resolve_auto:
            self._resolve_auto(query)
        return query

    def sql(self, sql: str, strategy: Optional[JoinStrategy] = None,
            limit: Optional[int] = None, timeout_s: Optional[float] = None,
            **query_options) -> ResultCursor:
        """Submit a SQL query; returns its streaming :class:`ResultCursor`.

        ``limit`` overrides the statement's ``LIMIT`` clause;
        ``query_options`` are forwarded to the :class:`QuerySpec`
        (``collection_window_s``, ``result_tuple_bytes``, ...).
        """
        query = self.plan(sql, strategy=strategy, **query_options)
        if limit is not None:
            if limit <= 0:
                raise PlanError(f"LIMIT must be positive, got {limit}")
            query.limit = limit
        return self.query(query, timeout_s=timeout_s)

    def query(self, query: QuerySpec, timeout_s: Optional[float] = None) -> ResultCursor:
        """Submit an already-built :class:`QuerySpec` from this session's node.

        ``strategy=AUTO`` specs are cost-resolved here (statistics refreshed
        from the DHT first) so the multicast disseminates a concrete
        physical plan.
        """
        if query.strategy is JoinStrategy.AUTO:
            self._resolve_auto(query)
        handle = self.executor.submit(query)
        return ResultCursor(self.pier, self.executor, query, handle,
                            timeout_s=timeout_s)

    # ----------------------------------------------------------------- explain

    def opgraph(self, sql: str, strategy: Optional[JoinStrategy] = None,
                **query_options) -> OpGraph:
        """The physical operator graph the SQL would run as."""
        return build_opgraph(self.plan(sql, strategy=strategy, **query_options))

    def explain(self, sql: str, strategy: Optional[JoinStrategy] = None,
                **query_options) -> str:
        """Render the physical operator graph for a SQL query (EXPLAIN).

        Each operator is annotated with the cost model's estimated
        rows/bytes/DHT hops, followed by the plan's estimated completion
        time; when the optimizer resolved ``strategy=AUTO``, the losing
        candidates' totals are listed under the plan so forced-strategy A/B
        runs can be judged against the model.
        """
        query = self.plan(sql, strategy=strategy, **query_options)
        if query.stats_map is None:
            # Forced strategies skip AUTO resolution; attach context (from
            # the local registry, refreshed from the DHT) so the EXPLAIN
            # still carries estimates.
            self._attach_planning_context(query)
        graph = build_opgraph(query)
        cost = costmodel.cost_graph(
            graph, stats_map=query.stats_map, topology=query.topology,
            observed_join_selectivity=query.join_selectivity_hint,
        )
        lines = graph.describe(cost=cost)
        report = query.optimizer_report
        if report is not None:
            lines.extend(report.describe())
        return "\n".join(lines)

    # -------------------------------------------------------------- continuous

    def continuous(self, sql: str, period_s: float,
                   strategy: Optional[JoinStrategy] = None,
                   window_column: Optional[str] = None,
                   window_s: Optional[float] = None,
                   on_window=None, **query_options) -> PeriodicQuery:
        """Set up a continuous (periodic, optionally windowed) query.

        Returns the :class:`PeriodicQuery` — call ``start()`` to begin and
        ``stop()`` to end it.  Each window is an ordinary PIER query; the
        previous window's distributed state is torn down when the next one
        is submitted, so long-running monitors stay bounded, and ``stop()``
        tears down the last one.

        ``window_column``/``window_s`` restrict each execution to rows whose
        timestamp column falls inside the trailing window.

        With ``strategy=AUTO`` (the default) the template stays unresolved
        and every window is re-optimized against the statistics registry as
        it stands at submission time; each window also fires an
        asynchronous statistics refresh from the DHT, so a drifting
        workload can flip the chosen strategy between windows.
        """
        template = self.plan(sql, strategy=strategy, resolve_auto=False,
                             **query_options)
        window = None
        if window_column is not None:
            if window_s is None:
                raise ValueError("window_column requires window_s")
            window = SlidingWindowPredicate(window_column, window_s)
        prepare = self._prepare_continuous_window if (
            template.strategy is JoinStrategy.AUTO and template.is_join
        ) else None
        return PeriodicQuery(
            self.executor, template, period_s,
            window=window, on_window=on_window, prepare_window=prepare,
        )

    def _prepare_continuous_window(self, query: QuerySpec) -> None:
        """Re-optimize one continuous-query window before submission.

        Runs inside a timer event, so the DHT statistics refresh
        is asynchronous: this window plans from the registry as refreshed by
        previous windows' fetches (and the feedback recorded at their
        teardown); its own fetches serve the next window.
        """
        self._resolve_auto(query, refresh=False)
        names = [table.relation.name for table in query.tables]
        signature = costmodel.query_join_signature(query)
        self._refresh_stats(names, [signature] if signature else (),
                            drive=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PierClient(node={self.node}, catalog={self.catalog!r})"
