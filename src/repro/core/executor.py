"""Per-node query executor: runs physical operator graphs over the DHT.

Every node runs one :class:`QueryExecutor`.  The initiating node calls
:meth:`QueryExecutor.submit`, which multicasts the :class:`QuerySpec` into
the query namespace; every reachable node lowers the spec into its physical
operator graph (:func:`repro.core.opgraph.build_opgraph`), takes the graph's
plan artifacts (``OpGraph.artifacts`` — compiled once, on arrival at the
first executor, and shared by every node holding the same spec) and brings
the graph to life:

* ``START`` nodes (scan chains) run immediately, feeding their terminal
  exchange — rehash puts, Fetch Matches gets, Bloom filter publication,
  partial-aggregate shipping, or the direct result hop to the initiator;
* ``NEW_DATA`` nodes register Provider ``newData`` probes on the query's
  temporary rehash namespace;
* ``MULTICAST`` nodes subscribe to summary floods (Bloom distribution);
* ``TIMER`` nodes schedule the collection-window flushes (Bloom collectors,
  aggregation combiners and group owners).

There is one execution pipeline.  A scan chain is one fused chunk kernel:
stored dicts in, one dense :class:`repro.core.tuples.Chunk` out.  Rehash,
Bloom build, partial aggregation and the scan sink consume the chunk column
by column.  The arrival side is chunk-at-a-time as well: the probe answers
one ``newData`` upcall — every new fragment of one stored chunk — with one
bucket read per distinct join value and one result message; Fetch Matches
joins everything one owner's ``get_batch`` reply fetched at once, into one
result message; and the semi-join fetches the full tuples of one probe
call's matches with one ``get_batch`` per side, rejoining them a reply at a
time.  Every join tail is one kernel over a list of matched pairs; in a
join with GROUP BY it folds them into a partial group-by, so each probe
call, Fetch Matches reply and semi-join rejoin ships one partial record
instead of its joined rows.  Rehash fragments cross the network as
``(side, slotted_row)`` pairs; dicts appear only in what is shipped to the
initiator.

The four join strategies of paper Section 4 and both aggregation variants
are therefore *graph constructions* in :mod:`repro.core.opgraph`; the
executor contains one runner per operator kind and no per-strategy
dispatch.  New strategies compose new graphs instead of forking this file.

Queries are long-lived soft state.  :meth:`QueryExecutor.finish` multicasts
a :class:`repro.core.query.QueryTeardown` control message that makes every
node release the query's state — ``newData`` probes, multicast
subscriptions, pending timers and locally stored temporary fragments — and
each node's state for a query is reaped once its soft-state lifetime
elapses, so a node the teardown missed does not hold it forever.

Results are streamed directly to the initiator (single IP hop), which
records per-arrival times so the harness can report the paper's "time to
the k-th / last result tuple" metrics, and merges partial records into the
final groups when a join (or a scan aggregation kept off the DHT) groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core import aggregation_tree
from repro.core.bloom import BloomFilter
from repro.core.opgraph import (
    Activation,
    JoinTail,
    OpGraph,
    OpKind,
    OpNode,
    PlanArtifacts,
    bloom_distribution_namespace,
    build_opgraph,
)
from repro.core.operators.aggregate import GroupByAggregate
from repro.core.plan import build_final_aggregation, finalize_aggregation_rows
from repro.core.query import QuerySpec, QueryTeardown
from repro.core.stats import StatsRegistry
from repro.core.tuples import Chunk, SlottedRow
from repro.dht.naming import hash_key
from repro.dht.provider import DHTItem, Provider
from repro.dht.storage import StoredItem
from repro.exceptions import PlanError
from repro.net.node import Node

#: Namespace queries are multicast into.
QUERY_NAMESPACE = "__pier_queries__"
#: Approximate wire size of a multicast query description.
QUERY_MESSAGE_BYTES = 400
#: Wire size of a multicast teardown control message.
TEARDOWN_MESSAGE_BYTES = 50
#: Wire size of one aggregation result row shipped to the initiator.
AGG_RESULT_ROW_BYTES = 64
#: ResourceID of every Bloom filter of one join side: its owner collects them.
BLOOM_COLLECTOR = "collector"
#: Wire size of the summary saying that a join side selected no row.
EMPTY_SUMMARY_BYTES = 16
#: Most result rows one ``pier.result`` message of join output carries.
RESULT_SLICE_ROWS = 4096
#: How long a node remembers that a query was finished, so a teardown that
#: overtakes its own query flood still suppresses the late-arriving query.
FINISHED_MARKER_TTL_S = 600.0


class QueryHandle:
    """Initiator-side view of a running (or finished) query."""

    def __init__(self, query: QuerySpec, submitted_at: float,
                 graph: Optional[OpGraph] = None):
        self.query = query
        #: The plan the initiator runs the query as: holding it keeps every
        #: lookup of the spec's graph (each node's, this handle's
        #: finalisation) on one lowered copy while the query lives.
        self.graph = graph
        self.submitted_at = submitted_at
        #: ``(arrival_virtual_time, row)`` in arrival order.  For a query
        #: :attr:`QuerySpec.finalized_at_initiator` each "row" is one partial
        #: record: ``{"groups": [(group_key, partial payloads), ...],
        #: "rows": joined rows it stands for}``.
        self.arrivals: List[Tuple[float, dict]] = []
        #: Result rows received so far — for partial records, the joined
        #: rows they stand for.
        self.result_count = 0
        self._partials = query is not None and query.finalized_at_initiator
        #: Called after each recorded row; only the real node's result pump
        #: sets it, it stays ``None`` under the simulator.
        self.on_row: Optional[Callable[[], None]] = None

    # ---------------------------------------------------------------- record

    def record(self, time: float, row: dict) -> None:
        """Record one result row (or partial record) arriving at the initiator."""
        self.arrivals.append((time, row))
        self.result_count += row["rows"] if self._partials else 1
        if self.on_row is not None:
            self.on_row()

    # ----------------------------------------------------------------- views

    @property
    def rows(self) -> List[dict]:
        """Everything received so far (rows or partial records), in order."""
        return [row for _time, row in self.arrivals]

    def time_to_kth(self, k: int) -> Optional[float]:
        """Elapsed time from submission to the k-th arrival (1-based)."""
        if k <= 0 or k > len(self.arrivals):
            return None
        return self.arrivals[k - 1][0] - self.submitted_at

    def time_to_last(self) -> Optional[float]:
        """Elapsed time from submission to the last arrival."""
        if not self.arrivals:
            return None
        return self.arrivals[-1][0] - self.submitted_at

    def arrival_times(self) -> List[float]:
        """Elapsed times of every arrival."""
        return [time - self.submitted_at for time, _row in self.arrivals]

    def final_rows(self) -> List[dict]:
        """The query's answer as it stands.

        For a query finalised at the initiator, the partial records received
        so far are merged into one group-by and finalised (derived columns,
        HAVING); for everything else this is just :attr:`rows`.
        """
        if not self._partials:
            return self.rows
        final = build_final_aggregation(self.query)
        for _time, record in self.arrivals:
            for group_key, payloads in record["groups"]:
                final.merge_partial(group_key, payloads)
        return finalize_aggregation_rows(self.query, final)


@dataclass
class _NodeQueryState:
    """Per-node bookkeeping for one active query (soft state)."""

    query: QuerySpec
    graph: OpGraph
    #: ``graph.artifacts``: the kernels and closures this node runs it with.
    plan: PlanArtifacts
    arrived_at: float
    rehash_done_for: set = field(default_factory=set)
    #: Registered ``newData`` callbacks, so teardown can unregister them.
    new_data_registrations: List[Tuple[str, Any]] = field(default_factory=list)
    #: Multicast subscriptions (Bloom distribution), likewise.
    multicast_subscriptions: List[Tuple[str, Any]] = field(default_factory=list)
    #: Pending timer handles (collection-window flushes).
    timers: List[Any] = field(default_factory=list)
    #: Temporary namespaces this node may hold fragments of.
    temp_namespaces: Set[str] = field(default_factory=set)
    #: Join aliases whose Bloom collector this node was when the query arrived.
    bloom_collecting: Set[str] = field(default_factory=set)
    #: Operators that ran a failure-degraded path on this node (e.g. a Bloom
    #: gate that rehashed unfiltered because its summary never arrived).
    degraded_ops: int = 0
    #: Observed per-alias selected-row counts of this node's scan chains
    #: (runtime-cardinality feedback folded into the stats registry at
    #: teardown).
    observed_selected: Dict[str, int] = field(default_factory=dict)


class QueryExecutor:
    """PIER query processor instance running on one node."""

    SERVICE_NAME = "pier.executor"
    PROTOCOL_RESULT = "pier.result"

    def __init__(self, node: Node, provider: Provider):
        self.node = node
        self.provider = provider
        #: Node-local statistics cache: publish-time partials, fetched
        #: global views, and the observed cardinalities / join selectivities
        #: recorded by the feedback path below.
        self.stats = StatsRegistry()
        self._states: Dict[int, _NodeQueryState] = {}
        self._handles: Dict[int, QueryHandle] = {}
        #: query_id -> {"level0": bytes, "level1": bytes}: partial-aggregate
        #: bytes this node shipped into the aggregation tree (benchmarks read
        #: these to trace exact-vs-sketch payload growth; popped at teardown).
        self.agg_bytes: Dict[int, Dict[str, int]] = {}
        #: query_id -> teardown time, so late query floods are suppressed.
        self._finished: Dict[int, float] = {}
        #: Numbers the queries submitted here (see :meth:`submit`).
        self._query_ids = itertools.count(1)
        provider.on_multicast(QUERY_NAMESPACE, self._on_query_multicast)
        node.register_handler(self.PROTOCOL_RESULT, self._on_result)
        node.services[self.SERVICE_NAME] = self

    # ------------------------------------------------------------------ util

    @classmethod
    def of(cls, node: Node) -> "QueryExecutor":
        """Fetch the executor installed on ``node``."""
        return node.services[cls.SERVICE_NAME]

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.node.now

    def active_query_ids(self) -> List[int]:
        """Query ids with live per-node state on this executor."""
        return sorted(self._states)

    def has_query_state(self, query_id: int) -> bool:
        """Whether this node still holds state for ``query_id``."""
        return query_id in self._states

    def completeness_share(self, query_id: int,
                           temp_namespaces: Iterable[str]) -> Dict[str, Any]:
        """This node's share of a query's delivery accounting (its get scope,
        bounced temporary fragments and live state), which
        :meth:`repro.client.CompletenessReport.add` sums."""
        state = self._states.get(query_id)
        bounces = self.provider.put_bounces_by_namespace
        return {
            "gets": self.provider.scope_report(query_id),
            "fragments_lost": sum(bounces.get(namespace, 0)
                                  for namespace in temp_namespaces),
            "has_state": state is not None,
            "degraded_ops": state.degraded_ops if state is not None else 0,
        }

    # ------------------------------------------------------- initiator side

    def submit(self, query: QuerySpec) -> QueryHandle:
        """Submit a query from this node; returns the handle collecting results.

        A spec without an id gets ``(address << 32) | n`` for this executor's
        ``n``-th: unique in the deployment, whatever ran before it."""
        if query.query_id is None:
            query.query_id = (self.node.address << 32) | next(self._query_ids)
        query.initiator = self.node.address
        graph = build_opgraph(query)
        graph.artifacts  # an unlowerable plan raises before the flood
        handle = QueryHandle(query, submitted_at=self.now, graph=graph)
        self._handles[query.query_id] = handle
        self.provider.multicast(
            QUERY_NAMESPACE, query.query_id, query, payload_bytes=QUERY_MESSAGE_BYTES
        )
        return handle

    def finish(self, query_id: int, record_feedback: bool = False) -> None:
        """Tear a query down everywhere (initiator-side lifecycle call).

        Multicasts a :class:`QueryTeardown` control message; every node
        (this one on the next event) unregisters the query's probes and
        subscriptions, cancels its timers, purges locally stored temporary
        fragments and drops its per-query state.  Result rows still in
        flight are discarded on arrival.

        ``record_feedback`` folds the query's observed result cardinality
        into the statistics registry first.  Callers must only set it when
        the result stream ran to completion — a LIMIT/timeout/cancel
        truncation would publish an artificially low selectivity that
        poisons future AUTO planning (the :class:`repro.client.ResultCursor`
        makes this distinction).
        """
        if record_feedback:
            handle = self._handles.get(query_id)
            if handle is not None:
                self._record_query_feedback(handle)
        self.provider.multicast(
            QUERY_NAMESPACE, ("teardown", query_id), QueryTeardown(query_id),
            payload_bytes=TEARDOWN_MESSAGE_BYTES,
        )

    def _record_query_feedback(self, handle: QueryHandle) -> None:
        """Fold the finished query's observed cardinalities into the stats.

        The initiator knows the true result cardinality; normalising it by
        the optimizer's estimated selected inputs yields an *observed* join
        selectivity for this join signature, which is blended into the local
        registry and published into the ``__pier_stats__`` namespace so any
        future planning node's estimate converges toward truth.

        Only queries planned with real statistics report: a spec with
        neither an optimizer report nor an attached ``stats_map`` would be
        normalised by arbitrary default cardinalities, publishing a
        selectivity on a different basis than AUTO planning reads — one
        forced A/B run would then skew every later AUTO estimate.
        """
        query = handle.query
        if not query.is_join:
            return
        from repro.core import costmodel

        signature = costmodel.query_join_signature(query)
        if signature is None:
            return
        report = query.optimizer_report
        if report is not None and report.estimated_inputs:
            inputs = report.estimated_inputs
        elif query.stats_map is not None:
            inputs = costmodel.estimated_selected_inputs(query, query.stats_map)
        else:
            return  # no trustworthy normalisation basis
        denominator = 1.0
        for alias in query.aliases:
            denominator *= max(1.0, inputs.get(alias, 1.0))
        selectivity = handle.result_count / denominator
        self.stats.observe_join(signature, selectivity, handle.result_count,
                                at=self.now)
        self.stats.publish_join_observation(self.provider, signature)

    def handle(self, query_id: int) -> QueryHandle:
        """Handle of a query previously submitted from this node."""
        return self._handles[query_id]

    def _on_result(self, node: Node, message) -> None:
        payload = message.payload
        handle = self._handles.get(payload["query_id"])
        if handle is None:
            return
        for row in payload["rows"]:
            handle.record(self.now, row)

    def _send_partials(self, query: QuerySpec, partial: GroupByAggregate,
                       rows: int) -> None:
        """Ship one partial record (every group of ``partial``, standing for
        ``rows`` joined rows) to the initiator, which merges it."""
        payloads = partial.partial_payloads()
        if payloads:
            self._send_results(
                query, [{"groups": list(payloads.items()), "rows": rows}],
                bytes_per_row=sum(partial.partial_sizes().values()))

    def _send_results(self, query: QuerySpec, rows: List[dict],
                      bytes_per_row: Optional[int] = None) -> None:
        """Ship result rows directly to the initiator (or record them locally)."""
        if not rows:
            return
        if bytes_per_row is None:
            bytes_per_row = query.result_tuple_bytes
        if query.initiator == self.node.address:
            handle = self._handles.get(query.query_id)
            if handle is not None:
                for row in rows:
                    handle.record(self.now, row)
            return
        self.node.send(
            query.initiator,
            self.PROTOCOL_RESULT,
            payload={"query_id": query.query_id, "rows": rows},
            payload_bytes=len(rows) * bytes_per_row,
        )

    # ----------------------------------------------------- participant side

    def _on_query_multicast(self, namespace: str, resource_id, item,
                            origin: int) -> None:
        if isinstance(item, QueryTeardown):
            self._finished[item.query_id] = self.now
            self._teardown_local(item.query_id)
            self._prune_finished_markers()
            return
        query: QuerySpec = item
        if query.query_id in self._states or query.query_id in self._finished:
            return
        graph = build_opgraph(query)
        # Lowering happens on arrival, not on some later row (the initiator
        # already lowered the spec in submit, before flooding it).
        state = _NodeQueryState(
            query=query, graph=graph, plan=graph.artifacts, arrived_at=self.now,
            temp_namespaces=set(graph.temp_namespaces()),
        )
        self._states[query.query_id] = state
        # A node cut off from the teardown flood must not hold this state
        # forever: a one-shot background reaper drops it just past its
        # soft-state lifetime (cancelled with the rest of the timers on a
        # normal teardown).
        state.timers.append(self.node.schedule_background(
            query.temp_lifetime_s + 1.0, self._teardown_local, query.query_id))
        self._instantiate(query, state)

    # -------------------------------------------------------- instantiation

    def _instantiate(self, query: QuerySpec, state: _NodeQueryState) -> None:
        """Bring the query's operator graph to life on this node.

        Event- and timer-activated nodes are registered first (probes must be
        listening before any rehash put can land), then the start-activated
        scan chains run.
        """
        graph = state.graph
        for node in graph.nodes:
            if node.activation is Activation.NEW_DATA:
                self._setup_probe(query, state, node)
            elif node.activation is Activation.MULTICAST:
                self._setup_multicast_gate(query, state, node)
            elif node.activation is Activation.TIMER:
                if node.kind is OpKind.BLOOM_COMBINE:
                    state.bloom_collecting = {alias for alias in query.aliases
                                              if self._collects(query, alias)}
                handle = self.node.schedule(
                    node.params["delay_s"], self._run_timer_node, query, node
                )
                state.timers.append(handle)
        for node in graph.nodes:
            if node.activation is Activation.START:
                self._run_source_chain(query, state, node)

    # ----------------------------------------------------------- scan chains

    def _run_source_chain(self, query: QuerySpec, state: _NodeQueryState,
                          scan_node: OpNode,
                          bloom_filter: Optional[BloomFilter] = None) -> None:
        """Run a Scan → (Filter) → (Project) chain and feed its terminal node.

        One fused kernel call reads the stored dicts of the local partition
        (straight out of the storage manager, no per-item DHTItem view) and
        returns one dense chunk: columns extracted, predicate vectorized,
        projection applied.  Rehash, bloom build, partial aggregation and
        the sink consume the chunk directly.
        """
        chain = state.plan.chains[scan_node.op_id]
        values = [item.value
                  for item in self.provider.storage.scan(chain.namespace, self.now)]
        chunk = chain.kernel(values)

        # Runtime-cardinality feedback: remember what this chain's scan
        # actually produced (max, not sum — Bloom runs a side's chain twice).
        alias = chain.alias
        state.observed_selected[alias] = max(
            state.observed_selected.get(alias, 0), chunk.length
        )

        terminal = chain.terminal
        kind = terminal.kind
        if kind is OpKind.REHASH:
            self._run_rehash(query, state, terminal, chunk, bloom_filter)
        elif kind is OpKind.FETCH:
            self._run_fetch_matches(query, state, terminal, chunk)
        elif kind is OpKind.BLOOM_BUILD:
            self._run_bloom_build(query, state, terminal, chunk)
        elif kind is OpKind.PARTIAL_AGG:
            self._run_partial_agg(query, state, terminal, chunk)
        elif kind is OpKind.SINK:
            emit = state.plan.sinks[terminal.op_id]
            self._send_results(query, emit(chunk),
                               bytes_per_row=query.result_tuple_bytes)
        else:  # pragma: no cover - constructions only build the kinds above
            raise PlanError(f"scan chain cannot terminate in {kind}")

    def _run_rehash(self, query: QuerySpec, state: _NodeQueryState,
                    node: OpNode, chunk: Chunk,
                    bloom_filter: Optional[BloomFilter] = None) -> int:
        """Rehash surviving tuples on the join key into the temp namespace.

        The key column is read once; fragments cross the network as
        ``(side, slotted_row)`` pairs — no per-fragment dict — and the batch
        ships through :meth:`Provider.put_chunk` as parallel arrays.
        """
        key_slot = state.plan.key_slots[node.op_id]
        if bloom_filter is not None and chunk.length:
            chunk = chunk.compress(
                [key in bloom_filter for key in chunk.columns[key_slot]]
            )
        if not chunk.length:
            return 0
        alias = node.params["alias"]
        keys = chunk.columns[key_slot]
        values = [(alias, row) for row in chunk.rows()]
        self._put_chunk_fragments(query, node.params["namespace"], keys,
                                  values, node.params["item_bytes"])
        return chunk.length

    def _put_chunk_fragments(self, query: QuerySpec, namespace: str,
                             resource_ids: List[Any], values: List[Any],
                             item_bytes: int) -> None:
        """Publish one chunk of fragments, honouring computation-node limits."""
        if query.computation_nodes:
            nodes = query.computation_nodes
            by_target: Dict[int, List[int]] = {}
            for index, resource_id in enumerate(resource_ids):
                target = nodes[hash_key(namespace, resource_id) % len(nodes)]
                by_target.setdefault(target, []).append(index)
            for target, indices in by_target.items():
                self.provider.put_chunk(
                    namespace,
                    [resource_ids[i] for i in indices],
                    [values[i] for i in indices],
                    lifetime=query.temp_lifetime_s, item_bytes=item_bytes,
                    target=target,
                )
        else:
            self.provider.put_chunk(
                namespace, resource_ids, values,
                lifetime=query.temp_lifetime_s, item_bytes=item_bytes,
            )

    # ----------------------------------------------------------------- probes

    def _setup_probe(self, query: QuerySpec, state: _NodeQueryState,
                     node: OpNode) -> None:
        """Register the newData probe for the rehash namespace on this node."""
        namespace = node.params["namespace"]

        def _on_new(items: List[StoredItem], query=query, node=node) -> None:
            self._probe(query, node, items)

        self.provider.on_new_data(namespace, _on_new)
        state.new_data_registrations.append((namespace, _on_new))
        # Fragments that arrived before this node learned of the query (rehash
        # puts race the query multicast) are one chunk with nothing old.
        backlog = sorted(self.provider.storage.scan(namespace, self.now),
                         key=lambda item: item.instance_id)
        if backlog:
            self._probe(query, node, backlog)

    def _probe(self, query: QuerySpec, probe_node: OpNode,
               items: List[StoredItem]) -> None:
        """Probe the local rehash partition with one chunk of new fragments."""
        state = self._states.get(query.query_id)
        if state is None:
            return
        pairs = self._probe_pairs(query.join.left_alias, items)
        downstream = state.graph.local_downstream(probe_node)
        if downstream is not None and downstream.kind is OpKind.PAIR_FETCH:
            self._rejoin_semi_join(query, state, pairs)
        else:
            self._emit_join_results(
                query, pairs, state.plan.pair_emitters[probe_node.op_id])

    def _probe_pairs(self, left_alias: str, items: List[StoredItem]
                     ) -> Iterator[Tuple[SlottedRow, SlottedRow]]:
        """The symmetric-hash-join kernel: every new ``(left, right)`` pair once.

        The chunk's fresh fragments are grouped by join value in
        first-occurrence order and each value's stored bucket is read once,
        straight from the storage manager.  Its records from before this
        chunk (a renewed triple is one) seed the two build sides; each fresh
        fragment then probes the other side and joins its own, so it also
        meets the fresh fragments that precede it in the chunk — the pairs
        one-by-one arrival made, without a bucket scan per arrival.
        """
        groups: Dict[Any, List[StoredItem]] = {}
        for item in items:
            groups.setdefault(item.resource_id, []).append(item)
        retrieve = self.provider.storage.retrieve
        namespace = items[0].namespace
        now = self.now
        for resource_id, fresh in groups.items():
            fresh_ids = {item.instance_id for item in fresh}  # membership only
            lefts: List[SlottedRow] = []
            rights: List[SlottedRow] = []
            for record in retrieve(namespace, resource_id, now):
                if record.instance_id not in fresh_ids:
                    side, row = record.value
                    (lefts if side == left_alias else rights).append(row)
            for item in fresh:
                side, row = item.value
                if side == left_alias:
                    for other in rights:
                        yield row, other
                    lefts.append(row)
                else:
                    for other in lefts:
                        yield other, row
                    rights.append(row)

    def _emit_join_results(self, query: QuerySpec,
                           matches: Iterable[Tuple[SlottedRow, SlottedRow]],
                           emit: JoinTail) -> None:
        """Run matched pairs through the join tail and ship what it produces.

        ``emit`` is the lowered tail kernel, fed ``RESULT_SLICE_ROWS`` pairs
        per call, so a hot key never materialises its whole cross product.
        A plain join's kernel returns the boundary dicts of the pairs its
        residual keeps; they leave cut at exactly ``RESULT_SLICE_ROWS`` rows
        per message.  A join with GROUP BY folds every pair of this call
        into one partial group-by, shipped as one partial record.
        """
        matches = iter(matches)
        slices = iter(lambda: list(itertools.islice(matches, RESULT_SLICE_ROWS)), [])
        if query.is_aggregation:
            first = next(slices, None)
            if first is not None:  # most probe calls match nothing
                partial = build_final_aggregation(query)
                joined = sum(emit(pairs, partial)
                             for pairs in itertools.chain([first], slices))
                self._send_partials(query, partial, joined)
            return
        results: List[dict] = []
        for pairs in slices:
            results.extend(emit(pairs))
            while len(results) >= RESULT_SLICE_ROWS:
                self._send_results(query, results[:RESULT_SLICE_ROWS])
                del results[:RESULT_SLICE_ROWS]
        self._send_results(query, results)

    # ------------------------------------------------------- fetch matches

    def _run_fetch_matches(self, query: QuerySpec, state: _NodeQueryState,
                           node: OpNode, chunk: Chunk) -> None:
        """Issue one ``get`` per scanned join value (batched per owner) and join."""
        namespace = node.params["namespace"]
        fetch = state.plan.fetches[node.op_id]
        rows_by_value: Dict[Any, List[SlottedRow]] = {}
        for value, row in zip(chunk.columns[fetch.key_slot], zip(*chunk.columns)):
            rows_by_value.setdefault(value, []).append(row)
        if not rows_by_value:
            return

        def _pairs(results: List[Tuple[Any, List[DHTItem]]]
                   ) -> Iterator[Tuple[SlottedRow, SlottedRow]]:
            # Read the reply's tuples once, filter them with one vector pass,
            # then pair each join value's survivors with its scanned rows.
            values: List[Any] = []
            fetched: List[SlottedRow] = []
            for join_value, items in results:
                for item in items:
                    if isinstance(item.value, dict):
                        values.append(join_value)
                        fetched.append(fetch.reader(item.value))
            if fetch.predicate is not None and fetched:
                mask = fetch.predicate([list(column) for column in zip(*fetched)],
                                       len(fetched))
                values = list(compress(values, mask))
                fetched = list(compress(fetched, mask))
            by_value: Dict[Any, List[SlottedRow]] = {}
            for join_value, row in zip(values, fetched):
                by_value.setdefault(join_value, []).append(row)
            for join_value, rows in by_value.items():
                pairs = itertools.product(rows_by_value.get(join_value, ()), rows)
                if fetch.scan_is_left:
                    yield from pairs
                else:
                    yield from ((other, scan) for scan, other in pairs)

        def _on_fetch(results: List[Tuple[Any, List[DHTItem]]]) -> None:
            if query.query_id in self._states:  # else torn down in flight
                # One owner's reply is joined at once: one message per reply.
                self._emit_join_results(query, _pairs(results), fetch.emit)

        # One get per distinct join value, grouped by owner on the wire.
        self.provider.get_batch(namespace, list(rows_by_value), _on_fetch,
                                scope=query.query_id)

    # --------------------------------------------------- symmetric semi-join

    def _rejoin_semi_join(self, query: QuerySpec, state: _NodeQueryState,
                          pairs: Iterable[Tuple[SlottedRow, SlottedRow]]) -> None:
        """Fetch the full tuples of one probe call's matches and rejoin them.

        The call's distinct left and distinct right resourceIDs are fetched
        with one scoped ``get_batch`` per side.  Each owner reply records its
        tuples and sends, through the join tail, every pair of this call
        whose other side has already landed: a pair is rejoined once, when
        its second side arrives.
        """
        semi = state.plan.semi
        left_slot, right_slot = semi.rid_slots
        # Per side: resourceID -> the other side's resourceID of each pair.
        partners: Tuple[Dict[Any, List[Any]], Dict[Any, List[Any]]] = ({}, {})
        for left_row, right_row in pairs:
            left_rid, right_rid = left_row[left_slot], right_row[right_slot]
            partners[0].setdefault(left_rid, []).append(right_rid)
            partners[1].setdefault(right_rid, []).append(left_rid)
        if not partners[0]:
            return
        # Per side: resourceID -> its full slotted tuples, once they landed.
        landed: Tuple[Dict[Any, List[SlottedRow]], Dict[Any, List[SlottedRow]]] = ({}, {})
        left_key, right_key = semi.key_slots

        def _matches(side: int, results: List[Tuple[Any, List[DHTItem]]]
                     ) -> Iterator[Tuple[SlottedRow, SlottedRow]]:
            read, mine, theirs = semi.readers[side], landed[side], landed[1 - side]
            for rid, items in results:
                rows = mine[rid] = [read(item.value) for item in items
                                    if isinstance(item.value, dict)]
                for other_rid in partners[side].get(rid, ()):
                    others = theirs.get(other_rid)
                    if others is None:
                        continue  # rejoined when that side lands
                    lefts, rights = (rows, others) if side == 0 else (others, rows)
                    yield from ((left_row, right_row)
                                for left_row in lefts for right_row in rights
                                if left_row[left_key] == right_row[right_key])

        def _on_reply(side: int, results: List[Tuple[Any, List[DHTItem]]]) -> None:
            if query.query_id in self._states:  # else torn down in flight
                self._emit_join_results(query, _matches(side, results), semi.emit)

        for side, namespace in enumerate(semi.namespaces):
            self.provider.get_batch(
                namespace, list(partners[side]),
                lambda results, side=side: _on_reply(side, results),
                scope=query.query_id)

    # -------------------------------------------------------------- bloom join

    def _setup_multicast_gate(self, query: QuerySpec, state: _NodeQueryState,
                              node: OpNode) -> None:
        """Subscribe a Bloom gate to its summary-distribution namespace.

        The gate also arms a fallback timer, which the summary cancels: if
        the OR-ed summary never arrives (its collector died, or the
        distribution flood was cut), the gated side rehashes *unfiltered*
        after ``fallback_delay_s`` — the join degrades to symmetric hash
        for that side instead of contributing nothing to the sink.
        """
        distribution_namespace = node.params["distribution_namespace"]
        fallback = self.node.schedule(node.params["fallback_delay_s"],
                                      self._bloom_gate_fallback, query, node)
        state.timers.append(fallback)

        def _handler(namespace, resource_id, item, origin, node=node) -> None:
            self._on_bloom_filter(query, node, item, fallback)

        self.provider.on_multicast(distribution_namespace, _handler)
        state.multicast_subscriptions.append((distribution_namespace, _handler))

    def _bloom_gate_fallback(self, query: QuerySpec, gate_node: OpNode) -> None:
        """Rehash the gated side unfiltered: its summary never arrived (it
        would have cancelled this timer), and one arriving late is ignored."""
        state = self._states[query.query_id]
        state.rehash_done_for.add((gate_node.params["rehash_alias"], "bloom-rehash"))
        state.degraded_ops += 1
        scan_node = state.graph.local_downstream(gate_node)
        self._run_source_chain(query, state, scan_node, bloom_filter=None)

    def _run_bloom_build(self, query: QuerySpec, state: _NodeQueryState,
                         node: OpNode, chunk: Chunk) -> None:
        """Build this side's local filter and publish it to its collectors."""
        if not chunk.length:
            return
        bloom = BloomFilter(query.bloom_bits, query.bloom_hashes)
        bloom.update(chunk.columns[state.plan.key_slots[node.op_id]])
        self.provider.put_batch(
            node.params["namespace"],
            [(BLOOM_COLLECTOR, bloom)],
            lifetime=query.temp_lifetime_s,
            item_bytes=bloom.size_bytes,
        )

    def _flush_bloom_collectors(self, query: QuerySpec) -> None:
        """OR the filters stored locally for each side and multicast the summary.

        A side with no filter gets a ``None`` summary from its collector, if
        that was this node all along: a node that took the key over
        mid-window may have missed filters, so it leaves the gates' fallback.
        """
        state = self._states.get(query.query_id)
        if state is None:
            return
        summaries: List[Tuple[str, Any, Any, int]] = []
        for alias in query.aliases:
            accumulator: Optional[BloomFilter] = None
            for item in self.provider.lscan(query.bloom_namespace(alias)):
                incoming = item.value
                if not isinstance(incoming, BloomFilter):
                    continue
                if accumulator is None:
                    accumulator = incoming.copy()
                else:
                    accumulator.union_in_place(incoming)
            namespace = bloom_distribution_namespace(query, alias)
            if accumulator is not None and not accumulator.is_empty():
                summaries.append((namespace, "filter", accumulator,
                                  accumulator.size_bytes))
            elif alias in state.bloom_collecting and self._collects(query, alias):
                summaries.append((namespace, "filter", None, EMPTY_SUMMARY_BYTES))
        if summaries:
            # Both sides' summaries share one flood wave over the overlay.
            self.provider.multicast_batch(summaries)

    def _collects(self, query: QuerySpec, alias: str) -> bool:
        """Whether this node owns ``alias``'s Bloom collector key now."""
        return self.provider.routing.owns(
            hash_key(query.bloom_namespace(alias), BLOOM_COLLECTOR))

    def _on_bloom_filter(self, query: QuerySpec, gate_node: OpNode,
                         bloom: Optional[BloomFilter], fallback: Any) -> None:
        """A summary of one side's join keys arrived: cancel the gate's
        ``fallback`` timer and rehash the other side — unless the summary is
        ``None`` (that side selected no row, so nothing here can match)."""
        state = self._states.get(query.query_id)
        if state is None:
            return
        fallback.cancel()
        rehash_alias = gate_node.params["rehash_alias"]
        marker = (rehash_alias, "bloom-rehash")
        if marker in state.rehash_done_for:
            return
        state.rehash_done_for.add(marker)
        if bloom is None:
            return
        scan_node = state.graph.local_downstream(gate_node)
        self._run_source_chain(query, state, scan_node, bloom_filter=bloom)

    # ------------------------------------------------------------ aggregation

    def _run_partial_agg(self, query: QuerySpec, state: _NodeQueryState,
                         node: OpNode, chunk: Chunk) -> None:
        """Compute local partial aggregates and ship them to their owners
        (into the aggregation tree).

        Rows are grouped over the key columns and every aggregate takes its
        group's inputs in one bulk add.
        """
        partial = build_final_aggregation(query)
        state.plan.aggs[node.op_id].fold(partial, chunk)
        self._ship_partial_aggregates(query, node.params["namespace"], partial)

    def _ship_partial_aggregates(self, query: QuerySpec, namespace: str,
                                 partial: GroupByAggregate) -> None:
        """Publish a chain's partial aggregates into the aggregation tree."""
        payloads = partial.partial_payloads()
        sizes = partial.partial_sizes()
        if query.hierarchical_aggregation:
            bucket = aggregation_tree.combiner_bucket(
                self.node.address, query.query_id,
                query.aggregation_branching or aggregation_tree.DEFAULT_BRANCHING,
            )
            entries = [
                (aggregation_tree.level1_resource_id(bucket, group_key),
                 {"group": group_key, "partials": states, "level": 1},
                 None, sizes[group_key])
                for group_key, states in payloads.items()
            ]
            level = "level1"
        else:
            entries = [
                (aggregation_tree.level0_resource_id(group_key),
                 {"group": group_key, "partials": states, "level": 0},
                 None, sizes[group_key])
                for group_key, states in payloads.items()
            ]
            level = "level0"
        if entries:
            self.provider.put_batch(
                namespace, entries, lifetime=query.temp_lifetime_s,
            )
            self._count_agg_bytes(query.query_id, level, sizes.values())

    def _flush_combiners(self, query: QuerySpec) -> None:
        """Level-1 combiners merge what they received and forward level-0 partials."""
        namespace = query.aggregation_namespace()
        combined: Dict[Tuple, GroupByAggregate] = {}
        for item in self.provider.lscan(namespace):
            if not aggregation_tree.is_level1(item.resource_id):
                continue
            value = item.value
            group_key = tuple(value["group"])
            merger = combined.get(group_key)
            if merger is None:
                merger = build_final_aggregation(query)
                combined[group_key] = merger
            merger.merge_partial(group_key, value["partials"])
        entries = []
        shipped_sizes = []
        for group_key, merger in combined.items():
            size = merger.partial_sizes()[group_key]
            entries.append(
                (aggregation_tree.level0_resource_id(group_key),
                 {"group": group_key,
                  "partials": merger.partial_payloads()[group_key],
                  "level": 0},
                 None, size)
            )
            shipped_sizes.append(size)
        if entries:
            self.provider.put_batch(
                namespace, entries, lifetime=query.temp_lifetime_s,
            )
            self._count_agg_bytes(query.query_id, "level0", shipped_sizes)

    def _flush_aggregation(self, query: QuerySpec) -> None:
        """Group owners merge level-0 partials, apply HAVING and report."""
        namespace = query.aggregation_namespace()
        final = build_final_aggregation(query)
        saw_any = False
        for item in self.provider.lscan(namespace):
            if not aggregation_tree.is_level0(item.resource_id):
                continue
            value = item.value
            final.merge_partial(tuple(value["group"]), value["partials"])
            saw_any = True
        if not saw_any:
            return
        rows = finalize_aggregation_rows(query, final)
        self._send_results(query, rows, bytes_per_row=AGG_RESULT_ROW_BYTES)

    def _count_agg_bytes(self, query_id: int, level: str, sizes) -> None:
        """Account partial-aggregate bytes this node shipped for ``query_id``."""
        counters = self.agg_bytes.setdefault(query_id, {"level0": 0, "level1": 0})
        counters[level] += sum(sizes)

    # ------------------------------------------------------------ timer nodes

    def _run_timer_node(self, query: QuerySpec, node: OpNode) -> None:
        """Dispatch a collection-window flush when its timer fires."""
        if query.query_id not in self._states:
            return
        if node.kind is OpKind.BLOOM_COMBINE:
            self._flush_bloom_collectors(query)
        elif node.kind is OpKind.COMBINE_AGG:
            self._flush_combiners(query)
        elif node.kind is OpKind.FINAL_AGG:
            self._flush_aggregation(query)
        else:  # pragma: no cover - constructions only build the kinds above
            raise PlanError(f"unexpected timer node {node.kind}")

    # ---------------------------------------------------------- query teardown

    def _teardown_local(self, query_id: int) -> bool:
        """Release everything this node holds for ``query_id``.

        Unregisters ``newData`` probes and multicast subscriptions, cancels
        pending collection-window timers, purges locally stored temporary
        fragments and forgets the per-query state and (at the initiator) the
        handle registration, so late result messages are dropped.
        """
        state = self._states.pop(query_id, None)
        self._handles.pop(query_id, None)
        self.agg_bytes.pop(query_id, None)
        if state is None:
            return False
        # Per-node cardinality feedback: keep what this node's scans saw.
        for alias, selected in state.observed_selected.items():
            try:
                relation = state.query.table(alias).relation
            except PlanError:  # pragma: no cover - aliases come from the spec
                continue
            self.stats.observe_scan(relation.name, selected, at=self.now)
        for namespace, callback in state.new_data_registrations:
            self.provider.off_new_data(namespace, callback)
        for namespace, handler in state.multicast_subscriptions:
            self.provider.off_multicast(namespace, handler)
        for timer in state.timers:
            timer.cancel()
        for namespace in state.temp_namespaces:
            self.provider.purge_namespace(namespace)
        # Drop this query's in-flight gets so a cancelled dataflow stops
        # accumulating (and firing) reply callbacks.
        self.provider.cancel_pending(query_id)
        return True

    def handle_node_failure(self) -> int:
        """Model this node's process death: release every query's state.

        Called by the failure wiring when this node is failed.  The resumed
        identity comes back with no dataflows — probes, subscriptions,
        timers, pending fetches and initiator handles all die with the
        process — which also means a teardown flood the node misses while
        dead has nothing left to leak.  Returns the number of queries torn
        down.
        """
        torn_down = 0
        for query_id in list(self._states):
            if self._teardown_local(query_id):
                torn_down += 1
        self._handles.clear()
        return torn_down

    def _prune_finished_markers(self) -> None:
        now = self.now
        stale = [query_id for query_id, when in self._finished.items()
                 if now - when > FINISHED_MARKER_TTL_S]
        for query_id in stale:
            del self._finished[query_id]
