"""Physical operator graphs: PIER's "boxes and arrows" dataflow as an IR.

The paper describes the core engine as receiving an *operator graph* from the
layers above it — boxes (physical operators) wired by arrows (local queues,
DHT exchanges, multicasts).  This module makes that graph explicit:
:func:`build_opgraph` lowers a :class:`repro.core.query.QuerySpec` into an
:class:`OpGraph` whose nodes are physical operators (scan, filter, project,
rehash-exchange, probe, bloom build/combine, partial/final aggregation,
sink) and whose edges carry a kind (local pipeline, DHT exchange, multicast
flood, or the direct IP hop to the initiator).

The :class:`repro.core.executor.QueryExecutor` runs whatever graph it is
handed, so each join strategy and the aggregation variants are purely graph
**constructions** here — adding a new strategy means composing a new graph,
not forking the executor.  What the executor runs a graph *with* is lowered
here too, once per plan and only when an executor asks
(:attr:`OpGraph.artifacts`): one fused chunk kernel per scan chain, key
slots, join-tail kernels, aggregate extractors and the derived-column /
HAVING kernels, every column name resolved to a slot at plan time.

Every node also carries an ``activation`` describing *when* it runs on a
participating node:

* ``START`` — as soon as the query (and therefore the graph) arrives;
* ``NEW_DATA`` — on Provider ``newData`` callbacks for a namespace (probes);
* ``MULTICAST`` — on arrival of a multicast in a namespace (Bloom summaries);
* ``TIMER`` — once, ``params["delay_s"]`` seconds after query arrival
  (collection windows);
* ``DOWNSTREAM`` — only when an upstream node feeds it.

``OpGraph.describe()`` renders the graph as the human-readable physical plan
surfaced by ``PierClient.explain``.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from itertools import compress as _compress
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.expressions import Expression, compile_vector_expression
from repro.core.query import JoinStrategy, QuerySpec
from repro.core.tuples import Chunk, Row, RowLayout, SlottedRow
from repro.exceptions import ExpressionError, PlanError, QueryError, SchemaError

if TYPE_CHECKING:
    from repro.core.operators.aggregate import GroupByAggregate


class OpKind(enum.Enum):
    """Physical operator kinds (the boxes)."""

    SCAN = "Scan"
    FILTER = "Filter"
    PROJECT = "Project"
    REHASH = "RehashExchange"
    PROBE = "Probe"
    FETCH = "FetchMatches"
    PAIR_FETCH = "PairFetch"
    BLOOM_BUILD = "BloomBuild"
    BLOOM_COMBINE = "BloomCombine"
    BLOOM_GATE = "BloomGate"
    PARTIAL_AGG = "PartialAgg"
    COMBINE_AGG = "CombineAgg"
    FINAL_AGG = "FinalAgg"
    RESIDUAL = "ResidualFilter"
    SINK = "Sink"


class EdgeKind(enum.Enum):
    """How rows travel between two operators (the arrows)."""

    LOCAL = "local"            # same-node operator pipeline
    DHT_EXCHANGE = "dht"       # put/get through the DHT (rehash, fetch)
    MULTICAST = "multicast"    # overlay flood (Bloom summary distribution)
    DIRECT = "ip"              # single IP hop to the initiator


class Activation(enum.Enum):
    """When a node starts doing work on a participant."""

    START = "start"
    NEW_DATA = "newData"
    MULTICAST = "multicast"
    TIMER = "timer"
    DOWNSTREAM = "downstream"


@dataclass
class OpNode:
    """One physical operator instance in the graph."""

    op_id: int
    kind: OpKind
    label: str
    activation: Activation
    params: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.op_id}] {self.label}"


@dataclass(frozen=True)
class OpEdge:
    """A directed arrow between two operators."""

    src: int
    dst: int
    kind: EdgeKind


#: Arrow rendering per edge kind, used by :meth:`OpGraph.describe`.
_ARROWS = {
    EdgeKind.LOCAL: "->",
    EdgeKind.DHT_EXCHANGE: "=dht=>",
    EdgeKind.MULTICAST: "=mcast=>",
    EdgeKind.DIRECT: "=ip=>",
}


class OpGraph:
    """A physical operator graph for one query."""

    def __init__(self, query: QuerySpec):
        self.query = query
        #: The spec's ``query_id`` when this graph was built (namespaces
        #: carry it; a spec renumbered since is lowered afresh).
        self.query_id = query.query_id
        self.nodes: List[OpNode] = []
        self.edges: List[OpEdge] = []
        self._artifacts: Optional["PlanArtifacts"] = None

    @property
    def artifacts(self) -> "PlanArtifacts":
        """Kernels and closures the executor runs this graph with.

        Lowered on first access and kept: planning, costing and EXPLAIN only
        walk the boxes and arrows and never pay for compilation, while the
        first executor to receive the query compiles once for every node
        sharing the spec — and is where a bad column reference surfaces.
        """
        if self._artifacts is None:
            self._artifacts = _lower(self)
        return self._artifacts

    # -------------------------------------------------------------- building

    def add(self, kind: OpKind, label: str,
            activation: Activation = Activation.DOWNSTREAM,
            **params: Any) -> OpNode:
        """Create a node and return it."""
        node = OpNode(op_id=len(self.nodes), kind=kind, label=label,
                      activation=activation, params=params)
        self.nodes.append(node)
        return node

    def connect(self, src: OpNode, dst: OpNode,
                kind: EdgeKind = EdgeKind.LOCAL) -> OpNode:
        """Wire ``src -> dst``; returns ``dst`` for chaining."""
        self.edges.append(OpEdge(src.op_id, dst.op_id, kind))
        return dst

    # ------------------------------------------------------------- traversal

    def node(self, op_id: int) -> OpNode:
        """Node by id."""
        return self.nodes[op_id]

    def downstream(self, node: OpNode) -> List[Tuple[OpEdge, OpNode]]:
        """Outgoing edges of ``node`` with their target nodes, in wiring order."""
        return [(edge, self.nodes[edge.dst])
                for edge in self.edges if edge.src == node.op_id]

    def local_downstream(self, node: OpNode) -> Optional[OpNode]:
        """The first node fed by ``node`` over a LOCAL edge (or ``None``)."""
        for edge, target in self.downstream(node):
            if edge.kind is EdgeKind.LOCAL:
                return target
        return None

    def roots(self) -> List[OpNode]:
        """Nodes that are activated by something other than an upstream node."""
        return [node for node in self.nodes
                if node.activation is not Activation.DOWNSTREAM]

    def nodes_of_kind(self, kind: OpKind) -> List[OpNode]:
        """All nodes of the given kind."""
        return [node for node in self.nodes if node.kind is kind]

    #: Node kinds whose ``namespace`` param is a *temporary* (per-query)
    #: namespace.  FETCH is deliberately absent: its namespace is the base
    #: relation being probed, never to be purged.
    _TEMP_NAMESPACE_KINDS = frozenset({
        OpKind.PROBE, OpKind.REHASH, OpKind.BLOOM_BUILD,
        OpKind.PARTIAL_AGG, OpKind.COMBINE_AGG, OpKind.FINAL_AGG,
    })

    def temp_namespaces(self) -> List[str]:
        """Temporary namespaces this query may leave fragments in.

        Teardown purges these on every node, whether or not the node
        actively published into them (Bloom collectors, group owners and
        probe owners store other nodes' fragments).
        """
        namespaces = {
            node.params["namespace"]
            for node in self.nodes
            if node.kind in self._TEMP_NAMESPACE_KINDS and "namespace" in node.params
        }
        return sorted(namespaces)

    # -------------------------------------------------------------- describe

    def flavor(self) -> str:
        """Short description of the query shape this graph implements."""
        query = self.query
        if query.is_join:
            text = f"{query.strategy.value} join"
            if query.is_aggregation:
                text += " + partial aggregation at the join sites"
            return text
        if query.is_aggregation and query.distributed_aggregation:
            if query.hierarchical_aggregation:
                return "hierarchical in-network aggregation"
            return "distributed hash aggregation"
        if query.is_aggregation:
            return "scan + initiator aggregation"
        return "selection/projection scan"

    def describe(self, cost=None) -> List[str]:
        """Human-readable physical plan, one line per operator.

        ``cost`` (a :class:`repro.core.costmodel.GraphCost`) annotates each
        operator with its estimated rows/bytes/hops and appends the plan's
        estimated completion time — the EXPLAIN surface of the optimizer.
        """
        lines = [f"Query {self.query.query_id} physical plan ({self.flavor()})"]
        printed: set = set()
        annotations = cost.per_op if cost is not None else {}
        for root in self.roots():
            lines.append(f"  on {self._activation_text(root)}:")
            self._describe_chain(root, lines, indent="    ", arrow="",
                                 printed=printed, annotations=annotations)
        if cost is not None:
            lines.append(
                f"  estimated: time {cost.completion_time_s:.3f}s, "
                f"result rows {cost.result_rows:.3g}, "
                f"moved {cost.moved_bytes:.3g}B, dht hops {cost.dht_hops:.3g}"
            )
        return lines

    @staticmethod
    def _activation_text(node: OpNode) -> str:
        if node.activation is Activation.NEW_DATA:
            return f"newData({node.params.get('namespace', '?')})"
        if node.activation is Activation.MULTICAST:
            return f"multicast({node.params.get('distribution_namespace', '?')})"
        if node.activation is Activation.TIMER:
            return f"timer(+{node.params.get('delay_s', 0):g}s)"
        return "start"

    def _describe_chain(self, node: OpNode, lines: List[str], indent: str,
                        arrow: str, printed: set,
                        annotations: Optional[Dict[int, Any]] = None) -> None:
        prefix = f"{indent}{arrow} " if arrow else indent
        if node.op_id in printed:
            # Converging edges (e.g. both rehash chains feed one probe) are
            # shown as references instead of re-printing the subtree.
            lines.append(f"{prefix}[{node.op_id}] {node.label} (see above)")
            return
        printed.add(node.op_id)
        suffix = ""
        if annotations:
            estimate = annotations.get(node.op_id)
            if estimate is not None:
                suffix = estimate.annotation()
        lines.append(f"{prefix}[{node.op_id}] {node.label}{suffix}")
        for edge, target in self.downstream(node):
            self._describe_chain(target, lines, indent + "  ",
                                 _ARROWS[edge.kind], printed,
                                 annotations=annotations)


# --------------------------------------------------------------------- lowering


def fetch_sides(query: QuerySpec) -> Tuple[str, str]:
    """``(scan_alias, fetch_alias)`` for the Fetch Matches strategy.

    The fetched side must already be hashed (stored) on its join attribute,
    i.e. its join column is its resourceID column.
    """
    hashed = [
        alias
        for alias in query.aliases
        if query.join.key_column(alias) == query.table(alias).relation.resource_id_column
    ]
    if not hashed:
        raise PlanError(
            "Fetch Matches requires one table to be hashed on its join attribute"
        )
    fetch_alias = hashed[-1]
    scan_alias = query.join.other_alias(fetch_alias)
    return scan_alias, fetch_alias


#: ``id(spec)`` -> the graph built for that spec object, for as long as
#: anything (a node's query state, the initiator's handle) holds the graph.
#: The spec does not point at its graph, so a finished query is freed by
#: reference counting alone; a live graph holds its spec, so the id is not
#: reused while the entry exists.
_GRAPHS: "weakref.WeakValueDictionary[int, OpGraph]" = weakref.WeakValueDictionary()


def build_opgraph(query: QuerySpec) -> OpGraph:
    """Lower a :class:`QuerySpec` into its physical operator graph.

    The built graph is shared per spec object: every participant of an
    N-node simulation lowers the *same* multicast spec, so the plan (and the
    kernels behind :attr:`OpGraph.artifacts`) is built once instead of N
    times.  A copy of a spec (a costing candidate, a continuous-query
    window, a spec decoded off the wire) is a different object and builds
    its own; a spec whose ``query_id`` changed since is built afresh.
    """
    cached = _GRAPHS.get(id(query))
    if cached is not None and cached.query_id == query.query_id:
        return cached
    if query.strategy is JoinStrategy.AUTO:
        # Cost-based resolution: enumerate candidate strategy graphs, cost
        # each from the planning context attached to the spec (statistics,
        # topology, observed feedback) and rewrite ``query.strategy`` to the
        # winner.  The spec is shared by every node of a simulation, so the
        # decision is made once and every participant lowers the same
        # physical graph.
        from repro.core.costmodel import resolve_auto_strategy

        resolve_auto_strategy(query)
    graph = OpGraph(query)
    if query.is_join:
        strategy = query.strategy
        if strategy is JoinStrategy.SYMMETRIC_HASH:
            _build_symmetric_hash(graph)
        elif strategy is JoinStrategy.FETCH_MATCHES:
            _build_fetch_matches(graph)
        elif strategy is JoinStrategy.SYMMETRIC_SEMI_JOIN:
            _build_semi_join(graph)
        elif strategy is JoinStrategy.BLOOM:
            _build_bloom(graph)
        else:  # pragma: no cover - enum is exhaustive
            raise PlanError(f"unknown join strategy {strategy}")
    elif query.is_aggregation and query.distributed_aggregation:
        _build_distributed_aggregation(graph)
    else:
        _build_scan(graph)
    _GRAPHS[id(query)] = graph
    return graph


# ------------------------------------------------------------------- helpers


def scan_chain_parts(graph: OpGraph, scan_node: OpNode
                     ) -> Tuple[Any, Optional[List[str]], Optional[OpNode]]:
    """``(predicate, projection_columns, terminal)`` of one scan chain.

    Walks the LOCAL pipeline hanging off a SCAN node, collecting the filter
    predicate and projection columns until the first non-FILTER/PROJECT
    operator (the chain's exchange terminal).
    """
    predicate = None
    columns: Optional[List[str]] = None
    node = scan_node
    while True:
        targets = graph.downstream(node)
        if not targets:
            return predicate, columns, None
        downstream = targets[0][1]
        if downstream.kind is OpKind.FILTER:
            predicate = downstream.params["predicate"]
        elif downstream.kind is OpKind.PROJECT:
            columns = downstream.params["columns"]
        else:
            return predicate, columns, downstream
        node = downstream


def _source_chain(graph: OpGraph, alias: str,
                  columns: Optional[List[str]] = None,
                  activation: Activation = Activation.START,
                  upstream: Optional[OpNode] = None) -> OpNode:
    """Scan → (filter) → (project) chain for one table; returns the last node.

    ``columns`` defaults to the columns the query needs from this side after
    the join; pass an explicit list to override (semi-join projections), or
    ``None`` via ``project=False`` semantics is not needed here because every
    chain in this engine projects.
    """
    query = graph.query
    scan = graph.add(OpKind.SCAN, f"Scan({alias})", activation, alias=alias)
    if upstream is not None:
        graph.connect(upstream, scan, EdgeKind.LOCAL)
    last = scan
    predicate = query.local_predicates.get(alias)
    if predicate is not None:
        last = graph.connect(last, graph.add(
            OpKind.FILTER, f"Filter({alias}: {predicate!r})",
            predicate=predicate, alias=alias,
        ))
    if columns is None:
        columns = query.columns_needed_from(alias)
    if columns:
        last = graph.connect(last, graph.add(
            OpKind.PROJECT, f"Project({alias}: {', '.join(columns)})",
            columns=list(columns), alias=alias,
        ))
    return last


def _join_tail(graph: OpGraph, upstream: OpNode,
               upstream_edge: EdgeKind = EdgeKind.LOCAL) -> OpNode:
    """Residual filter → (partial aggregation) → sink chain after matches form.

    A join with GROUP BY aggregates where its pairs are matched: each join
    site ships partial aggregates, not joined rows, to the initiator.
    """
    query = graph.query
    last = upstream
    edge = upstream_edge
    if query.post_join_predicate is not None:
        last = graph.connect(last, graph.add(
            OpKind.RESIDUAL, f"ResidualFilter({query.post_join_predicate!r})",
            predicate=query.post_join_predicate,
        ), edge)
        edge = EdgeKind.LOCAL
    if query.is_aggregation:
        last = graph.connect(last, _partial_agg_node(graph, "initiator"), edge)
    return graph.connect(last, _sink_node(graph), EdgeKind.DIRECT)


def _partial_agg_node(graph: OpGraph, target: str, **params: Any) -> OpNode:
    """A PartialAgg box shipping to ``target`` (group owners or the initiator)."""
    query = graph.query
    aggregates = ", ".join(
        f"{a.function}({a.column or '*'}) AS {a.alias}" for a in query.aggregates
    )
    grouping = ", ".join(query.group_by) or "()"
    return graph.add(
        OpKind.PARTIAL_AGG,
        f"PartialAgg(group by {grouping} computing [{aggregates}] -> {target})",
        **params,
    )


def _sink_node(graph: OpGraph) -> OpNode:
    """The initiator's sink: result rows, or partial aggregates it merges."""
    query = graph.query
    if query.finalized_at_initiator:
        having = f", having {query.having!r}" if query.having is not None else ""
        return graph.add(OpKind.SINK, f"Sink(initiator: merge partials{having})")
    if query.is_join and query.output_columns:
        return graph.add(OpKind.SINK,
                         f"Sink(initiator: {', '.join(query.output_columns)})")
    return graph.add(OpKind.SINK, "Sink(initiator)")


def _probe_and_tail(graph: OpGraph, semi_join: bool = False) -> OpNode:
    """The newData-driven probe of the rehash namespace plus its result tail."""
    query = graph.query
    namespace = query.rehash_namespace()
    probe = graph.add(
        OpKind.PROBE, f"Probe({namespace})", Activation.NEW_DATA,
        namespace=namespace, semi_join=semi_join,
    )
    if semi_join:
        left = query.table(query.join.left_alias).relation
        right = query.table(query.join.right_alias).relation
        pair = graph.connect(probe, graph.add(
            OpKind.PAIR_FETCH,
            f"PairFetch(get {left.namespace}[rid], {right.namespace}[rid])",
            left_namespace=left.namespace, right_namespace=right.namespace,
        ), EdgeKind.LOCAL)
        rejoin = graph.connect(pair, graph.add(
            OpKind.FILTER,
            f"RejoinFilter({query.join.left_alias}.{query.join.left_column}"
            f" = {query.join.right_alias}.{query.join.right_column})",
        ), EdgeKind.DHT_EXCHANGE)
        _join_tail(graph, rejoin)
    else:
        _join_tail(graph, probe)
    return probe


def _rehash_node(graph: OpGraph, alias: str, item_bytes: int) -> OpNode:
    query = graph.query
    namespace = query.rehash_namespace()
    key_column = query.join.key_column(alias)
    return graph.add(
        OpKind.REHASH,
        f"RehashExchange({alias}.{key_column} -> {namespace})",
        alias=alias, namespace=namespace, key_column=key_column,
        item_bytes=item_bytes,
    )


# ---------------------------------------------------------------- strategies


def _build_scan(graph: OpGraph) -> None:
    """Selection/projection-only query, or one partial aggregate per node."""
    query = graph.query
    alias = query.tables[0].alias
    if query.output_columns and not query.is_aggregation:
        columns = [column.split(".", 1)[1]
                   for column in query.output_columns_for(alias)]
    else:
        columns = query.columns_needed_from(alias)
    last = _source_chain(graph, alias, columns=columns)
    if query.is_aggregation:
        last = graph.connect(last, _partial_agg_node(graph, "initiator",
                                                     alias=alias))
    graph.connect(last, _sink_node(graph), EdgeKind.DIRECT)


def _build_symmetric_hash(graph: OpGraph) -> None:
    """Rehash both tables on the join key; probe on every newData arrival."""
    query = graph.query
    probe = _probe_and_tail(graph)
    for alias in query.aliases:
        last = _source_chain(graph, alias)
        rehash = graph.connect(
            last, _rehash_node(graph, alias, query.projected_tuple_bytes(alias))
        )
        graph.connect(rehash, probe, EdgeKind.DHT_EXCHANGE)


def _build_fetch_matches(graph: OpGraph) -> None:
    """Scan the non-indexed table; ``get`` the side hashed on the join key."""
    query = graph.query
    scan_alias, fetch_alias = fetch_sides(query)
    fetch_relation = query.table(fetch_alias).relation
    key_column = query.join.key_column(scan_alias)
    last = _source_chain(graph, scan_alias)
    fetch = graph.connect(last, graph.add(
        OpKind.FETCH,
        f"FetchMatches(get {fetch_relation.namespace}[{scan_alias}.{key_column}])",
        scan_alias=scan_alias, fetch_alias=fetch_alias,
        namespace=fetch_relation.namespace, key_column=key_column,
    ))
    predicate = query.local_predicates.get(fetch_alias)
    tail_head: OpNode = fetch
    edge = EdgeKind.DHT_EXCHANGE
    if predicate is not None:
        # The fetched side's predicate cannot be pushed into the DHT; it is
        # applied at the computation node on the fetched tuples (§4.1).
        tail_head = graph.connect(fetch, graph.add(
            OpKind.FILTER, f"Filter({fetch_alias}: {predicate!r})",
            predicate=predicate, alias=fetch_alias,
        ), edge)
        edge = EdgeKind.LOCAL
    _join_tail(graph, tail_head, upstream_edge=edge)


def check_semi_join(query: QuerySpec) -> None:
    """Raise :class:`PlanError` unless the symmetric semi-join can run.

    The rejoin fetches every tuple stored under a matched resourceID and
    re-applies neither side's local predicate, so each side's resourceID
    must be its primary key: one resourceID, one tuple.
    """
    for alias in query.aliases:
        relation = query.table(alias).relation
        if relation.resource_id_column != relation.primary_key:
            raise PlanError(
                f"the symmetric semi-join needs {alias} published under its "
                f"primary key {relation.primary_key!r}, not "
                f"{relation.resource_id_column!r}"
            )


def _build_semi_join(graph: OpGraph) -> None:
    """Rehash only (resourceID, join key) projections; fetch survivors."""
    query = graph.query
    check_semi_join(query)
    probe = _probe_and_tail(graph, semi_join=True)
    for alias in query.aliases:
        relation = query.table(alias).relation
        key_column = query.join.key_column(alias)
        projection = sorted({relation.resource_id_column, key_column})
        # Only resourceID + join key cross the network in this phase.
        item_bytes = 8 * len(projection) + 8
        last = _source_chain(graph, alias, columns=projection)
        rehash = graph.connect(last, _rehash_node(graph, alias, item_bytes))
        graph.connect(rehash, probe, EdgeKind.DHT_EXCHANGE)


def _build_bloom(graph: OpGraph) -> None:
    """Publish per-side Bloom filters; rehash only tuples passing the other's."""
    query = graph.query
    probe = _probe_and_tail(graph)
    combine = graph.add(
        OpKind.BLOOM_COMBINE,
        f"BloomCombine(OR filters of {', '.join(query.aliases)}; multicast)",
        Activation.TIMER,
        delay_s=query.collection_window_s, aliases=list(query.aliases),
    )
    for alias in query.aliases:
        # Build and publish this side's local filter to its collectors.
        last = _source_chain(graph, alias)
        build = graph.connect(last, graph.add(
            OpKind.BLOOM_BUILD,
            f"BloomBuild({alias}.{query.join.key_column(alias)}"
            f" -> {query.bloom_namespace(alias)}, {query.bloom_bits} bits)",
            alias=alias, namespace=query.bloom_namespace(alias),
            key_column=query.join.key_column(alias),
        ))
        graph.connect(build, combine, EdgeKind.DHT_EXCHANGE)
        # When the OR-ed summary of ``alias`` arrives, rehash the *other*
        # side against it.
        other = query.join.other_alias(alias)
        distribution_namespace = bloom_distribution_namespace(query, alias)
        gate = graph.add(
            OpKind.BLOOM_GATE,
            f"BloomGate(on {alias} summary: rehash {other})",
            Activation.MULTICAST,
            filtered_alias=alias, rehash_alias=other,
            distribution_namespace=distribution_namespace,
            # Failure-aware executors arm a fallback at this delay: if the
            # summary never arrives (collector died, flood cut), the gated
            # side rehashes unfiltered so the join degrades to symmetric
            # hash instead of silently producing nothing.
            fallback_delay_s=query.collection_window_s * 2.5 + 5.0,
        )
        graph.connect(combine, gate, EdgeKind.MULTICAST)
        gated = _source_chain(graph, other, activation=Activation.DOWNSTREAM,
                              upstream=gate)
        rehash = graph.connect(
            gated, _rehash_node(graph, other, query.projected_tuple_bytes(other))
        )
        graph.connect(rehash, probe, EdgeKind.DHT_EXCHANGE)


def _build_distributed_aggregation(graph: OpGraph) -> None:
    """Ship partial aggregates to group owners (optionally via combiners)."""
    query = graph.query
    alias = query.tables[0].alias
    namespace = query.aggregation_namespace()
    last = _source_chain(graph, alias, columns=[])
    partial = graph.connect(last, _partial_agg_node(
        graph, namespace, alias=alias, namespace=namespace))
    final_delay = query.collection_window_s * (
        1.3 if query.hierarchical_aggregation else 1.0
    )
    having = f", having {query.having!r}" if query.having is not None else ""
    final = graph.add(
        OpKind.FINAL_AGG,
        f"FinalAgg(merge partials at group owners{having})",
        Activation.TIMER, delay_s=final_delay, namespace=namespace,
    )
    if query.hierarchical_aggregation:
        combine = graph.add(
            OpKind.COMBINE_AGG,
            "CombineAgg(level-1 combiners merge and forward)",
            Activation.TIMER,
            delay_s=query.collection_window_s * 0.6, namespace=namespace,
        )
        graph.connect(partial, combine, EdgeKind.DHT_EXCHANGE)
        graph.connect(combine, final, EdgeKind.DHT_EXCHANGE)
    else:
        graph.connect(partial, final, EdgeKind.DHT_EXCHANGE)
    graph.connect(final, _sink_node(graph), EdgeKind.DIRECT)


def bloom_distribution_namespace(query: QuerySpec, alias: str) -> str:
    """Namespace over which the OR-ed summary of ``alias`` is multicast."""
    return f"__pier_bloomdist_{query.query_id}_{alias}__"


# --------------------------------------------------------------------- lowering
#
# Lowering is the plan-time half of the execution pipeline: it resolves every
# name the graph will ever look up — scan columns, filter and residual
# predicates, projection slots, join/rehash key slots, aggregate group and
# input columns, derived columns and HAVING, output projections — against
# slotted-row layouts exactly once, and packages the resulting kernels per
# operator node.  Every kernel runs over a batch: scan chains, partial
# aggregation and scan sinks over a chunk's columns, join tails over a list
# of matched ``(left, right)`` slotted pairs, the Fetch Matches fetched side
# over one reply's tuples, derived columns and HAVING over a group owner's
# (or the initiator's) final rows.  The dict view of a row is rebuilt only
# where rows cross the client boundary.

#: A scan-chain chunk kernel: stored base dicts → one dense output chunk.
ChunkKernel = Callable[[List[Row]], Chunk]

#: A join-tail kernel over matched slotted pairs: applies the residual
#: predicate and output projection, returning one boundary dict per pair the
#: residual keeps, in pair order.
PairKernel = Callable[[List[Tuple[SlottedRow, SlottedRow]]], List[Row]]

#: The join tail of a join with GROUP BY: applies the residual predicate and
#: folds the pairs it keeps into a partial group-by, returning how many it
#: kept (the joined rows the partial stands for).
PairFold = Callable[[List[Tuple[SlottedRow, SlottedRow]], "GroupByAggregate"], int]

#: What a join site runs its matched pairs through.
JoinTail = Union[PairKernel, PairFold]

#: Derived columns and HAVING over a group owner's (or the initiator's)
#: final aggregate rows.
RowsKernel = Callable[[List[Row]], List[Row]]


@dataclass
class ChainArtifact:
    """Fused Scan → (Filter) → (Project) chunk kernel of one table alias."""

    alias: str
    namespace: str
    #: Stored dicts → dense chunk: column extraction, vectorized predicate,
    #: mask compaction and projection in one call.
    kernel: ChunkKernel
    #: Layout of the chunk the kernel emits.
    layout: RowLayout
    #: The exchange operator the chain feeds (rehash/fetch/bloom/agg/sink).
    terminal: OpNode


@dataclass
class FetchArtifact:
    """Fetch Matches artifacts (scan-side keys, fetched-side join)."""

    #: Slot of the scan side's join key in its chain layout.
    key_slot: int
    #: Fetched base dict → slotted row (full fetched-relation schema).
    reader: Callable[[Row], SlottedRow]
    #: Fetched side's local predicate: a vector kernel over its full layout.
    predicate: Optional[Callable[[List[List[Any]], int], List[Any]]]
    #: Whether the scanned side is the join's left side (pair orientation).
    scan_is_left: bool
    emit: JoinTail


@dataclass
class SemiJoinArtifact:
    """Symmetric semi-join artifacts, each pair of fields ordered (left, right)."""

    #: Slots of the resourceID columns inside the rehashed projections.
    rid_slots: Tuple[int, int]
    #: Base namespaces the full tuples are fetched from.
    namespaces: Tuple[str, str]
    #: Fetched base dict → slotted row of the full relation schema.
    readers: Tuple[Callable[[Row], SlottedRow], Callable[[Row], SlottedRow]]
    #: Join-column slots in the full layouts (the rejoin's equality check).
    key_slots: Tuple[int, int]
    #: Join tail over pairs of full slotted tuples.
    emit: JoinTail


@dataclass
class AggArtifact:
    """Group-key and aggregate-input extraction for partial aggregation."""

    #: Slots of the group-by columns in the chunk layout.
    group_slots: Tuple[int, ...]
    #: One per aggregate: ``(chunk, row_indices) -> input value list``
    #: (``count(*)`` yields constant 1s, a missing column constant ``None``s).
    extractors: Tuple[Callable[[Chunk, List[int]], list], ...]

    def fold(self, partial: "GroupByAggregate", chunk: Chunk) -> None:
        """Group ``chunk``'s rows on the key columns and add each group's
        inputs to ``partial`` in one bulk add per aggregate."""
        if not chunk.length:
            return
        if self.group_slots:
            key_columns = [chunk.columns[s] for s in self.group_slots]
            groups: Dict[Tuple, List[int]] = {}
            for index, key in enumerate(zip(*key_columns)):
                group = groups.get(key)
                if group is None:
                    groups[key] = [index]
                else:
                    group.append(index)
        else:
            groups = {(): list(range(chunk.length))}
        for key, indices in groups.items():
            partial.accumulate_many(
                key, [extract(chunk, indices) for extract in self.extractors],
                len(indices))


@dataclass
class PlanArtifacts:
    """Everything the executor runs one operator graph with, by ``op_id``."""

    #: Derived columns and HAVING over final aggregate rows (identity for a
    #: query with neither).
    finalize: RowsKernel
    chains: Dict[int, ChainArtifact] = field(default_factory=dict)
    #: Rehash / Bloom-build join-key slots in their chain layouts.
    key_slots: Dict[int, int] = field(default_factory=dict)
    fetches: Dict[int, FetchArtifact] = field(default_factory=dict)
    #: Probe-node join tails (symmetric hash / Bloom rehash layouts).
    pair_emitters: Dict[int, JoinTail] = field(default_factory=dict)
    semi: Optional[SemiJoinArtifact] = None
    aggs: Dict[int, AggArtifact] = field(default_factory=dict)
    #: Scan-sink emitters: chunk → boundary dicts.
    sinks: Dict[int, Callable[[Chunk], List[Row]]] = field(default_factory=dict)


def _compile_chain_kernel(query: QuerySpec, alias: str, predicate_expr,
                          columns: Optional[List[str]]) -> Tuple[ChunkKernel, RowLayout]:
    """Fuse one scan chain into a chunk kernel.

    Reads from storage only the base columns the predicate or the output
    actually touches, evaluates the predicate as one vectorized pass, and
    compacts the survivors into the chain's output layout.
    """
    base_layout = query.table(alias).relation.schema.layout()
    out_names = list(columns) if columns else list(base_layout.names)
    out_layout = RowLayout(columns) if columns else base_layout
    missing = [name for name in out_names if name not in base_layout.slots]
    if missing:
        raise SchemaError(f"projection references missing columns {missing}")

    read = {base_layout.slots[name] for name in out_names}
    read |= _slots_read_by(predicate_expr, base_layout)
    read_names = [base_layout.names[slot] for slot in sorted(read)]
    read_layout = RowLayout(read_names)
    predicate = compile_vector_expression(predicate_expr, read_layout)
    out_slots = [read_layout.slots[name] for name in out_names]

    def kernel(values: List[Row]) -> Chunk:
        n = len(values)
        if not n:
            return Chunk.empty(out_layout)
        cols = [[value[name] for value in values] for name in read_names]
        if predicate is None:
            return Chunk(out_layout, [cols[s] for s in out_slots], n)
        mask = predicate(cols, n)
        return Chunk(out_layout,
                     [list(_compress(cols[s], mask)) for s in out_slots])

    return kernel, out_layout


def _slots_read_by(expression: Optional[Expression],
                   layout: RowLayout) -> Set[int]:
    """Slots of ``layout`` an expression's column references resolve to.

    Unresolvable references are left out, so compiling the expression
    against a layout of just these slots raises the plan-time
    ``ExpressionError``; ambiguous ones raise here.
    """
    if expression is None:
        return set()
    slots = set()
    for name in expression.columns_referenced():
        slot = layout.slot(name, ambiguity_error=ExpressionError)
        if slot is not None:
            slots.add(slot)
    return slots


def _compile_pair_emitter(query: QuerySpec, left_layout: RowLayout,
                          right_layout: RowLayout) -> JoinTail:
    """Compile the join tail (qualify + merge + residual + output or fold).

    Names resolve once against the merged layout (left qualified, then right
    qualified).  Per call, over a list of matched pairs: the merged columns
    the residual and the output read, one vector residual pass, then one
    compress of the output columns and the boundary dicts — or, for a join
    with GROUP BY (:data:`PairFold`), the kept pairs as one chunk of the
    group and aggregate input columns, folded into the caller's partial.
    """
    join = query.join
    merged = left_layout.qualified(join.left_alias).concat(
        right_layout.qualified(join.right_alias)
    )
    if query.is_aggregation:
        names = (*query.group_by,
                 *(a.column for a in query.aggregates if a.column))
        out_slots = sorted({merged.slots[name] for name in names
                            if name in merged.slots})
    elif query.output_columns:
        names = tuple(query.output_columns)
        missing = [name for name in names if name not in merged.slots]
        if missing:
            raise SchemaError(f"projection references missing columns {missing}")
        out_slots = [merged.slots[name] for name in names]
    else:
        names = merged.names
        out_slots = list(range(len(names)))
    read = sorted(set(out_slots)
                  | _slots_read_by(query.post_join_predicate, merged))
    read_layout = RowLayout([merged.names[s] for s in read])
    residual = compile_vector_expression(query.post_join_predicate, read_layout)
    width = len(left_layout)
    sources = [(slot < width, slot if slot < width else slot - width)
               for slot in read]

    def gather(pairs: List[Tuple[SlottedRow, SlottedRow]]) -> List[List[Any]]:
        lefts, rights = zip(*pairs)
        return [[row[i] for row in (lefts if is_left else rights)]
                for is_left, i in sources]

    if query.is_aggregation:
        agg = _compile_agg(query, read_layout)

        def fold(pairs: List[Tuple[SlottedRow, SlottedRow]],
                 partial: "GroupByAggregate") -> int:
            chunk = Chunk(read_layout, gather(pairs), len(pairs))
            if residual is not None:
                chunk = chunk.compress(residual(chunk.columns, len(pairs)))
            agg.fold(partial, chunk)
            return chunk.length

        return fold

    out_positions = [read.index(slot) for slot in out_slots]

    def emit(pairs: List[Tuple[SlottedRow, SlottedRow]]) -> List[Row]:
        if not pairs:
            return []
        columns = gather(pairs)
        if residual is None:
            out = [columns[p] for p in out_positions]
        else:
            mask = residual(columns, len(pairs))
            out = [_compress(columns[p], mask) for p in out_positions]
        return [dict(zip(names, values)) for values in zip(*out)]

    return emit


def _compile_agg(query: QuerySpec, layout: RowLayout) -> AggArtifact:
    """Group-key / aggregate-input extraction over a qualified ``layout``.

    Resolution is *exact* by design, as in a dict row: a missing group-by
    name is a ``QueryError`` (here at plan time), a missing aggregate input
    reads as ``None``.
    """
    group_slots = []
    for column in query.group_by:
        slot = layout.slots.get(column)
        if slot is None:
            raise QueryError(f"group-by column missing from row: {column!r}")
        group_slots.append(slot)

    extractors: List[Callable[[Chunk, List[int]], list]] = []
    for aggregate in query.aggregates:
        if aggregate.column is None:
            extractors.append(lambda _chunk, indices: [1] * len(indices))
        else:
            slot = layout.slots.get(aggregate.column)
            if slot is None:
                extractors.append(lambda _chunk, indices: [None] * len(indices))
            else:
                extractors.append(
                    lambda chunk, indices, _s=slot: [
                        chunk.columns[_s][i] for i in indices
                    ]
                )
    return AggArtifact(group_slots=tuple(group_slots),
                       extractors=tuple(extractors))


def _compile_finalize(query: QuerySpec) -> RowsKernel:
    """Compile derived columns and HAVING against the aggregate output layout.

    The layout is the group-by names, then the aggregate aliases, then each
    derived alias in order; every derived column compiles against the
    layout before its own alias, so it may use an earlier one.  A name that
    repeats resolves to its last slot, as a later dict key overwrites.
    """
    names = [*query.group_by, *(a.alias for a in query.aggregates)]
    base_names = list(names)
    derived = []
    for alias, expression in query.derived_columns.items():
        derived.append((alias, expression.compile_vector(RowLayout(names))))
        names.append(alias)
    having = compile_vector_expression(query.having, RowLayout(names))
    if not derived and having is None:
        return lambda rows: rows

    def finalize(rows: List[Row]) -> List[Row]:
        if not rows:
            return rows
        n = len(rows)
        columns = [[row[name] for row in rows] for name in base_names]
        for alias, kernel in derived:
            values = kernel(columns, n)
            columns.append(values)
            for row, value in zip(rows, values):
                row[alias] = value
        if having is not None:
            rows = list(_compress(rows, having(columns, n)))
        return rows

    return finalize


def _compile_sink(query: QuerySpec,
                  qualified: RowLayout) -> Callable[[Chunk], List[Row]]:
    """Chunk → boundary dicts for a scan sink (vectorized output projection)."""
    if query.output_columns and not query.is_aggregation:
        names = tuple(query.output_columns)
        missing = [name for name in names if name not in qualified.slots]
        if missing:
            raise SchemaError(f"projection references missing columns {missing}")
        slots = [qualified.slots[name] for name in names]
    else:
        names = qualified.names
        slots = list(range(len(names)))

    def emit(chunk: Chunk) -> List[Row]:
        if not chunk.length:
            return []
        selected = [chunk.columns[s] for s in slots]
        return [dict(zip(names, values)) for values in zip(*selected)]

    return emit


def _lower_chain(graph: OpGraph, plan: PlanArtifacts, scan: OpNode) -> None:
    """Lower one scan chain and its terminal's artifacts."""
    query = graph.query
    alias = scan.params["alias"]
    predicate_expr, columns, terminal = scan_chain_parts(graph, scan)
    if terminal is None:  # pragma: no cover - every construction has a terminal
        return
    kernel, layout = _compile_chain_kernel(query, alias, predicate_expr, columns)
    plan.chains[scan.op_id] = ChainArtifact(
        alias=alias,
        namespace=query.table(alias).namespace,
        kernel=kernel,
        layout=layout,
        terminal=terminal,
    )

    kind = terminal.kind
    if kind in (OpKind.REHASH, OpKind.BLOOM_BUILD):
        key_column = terminal.params["key_column"]
        slot = layout.slots.get(key_column)
        if slot is None:  # pragma: no cover - projections keep the join key
            raise PlanError(
                f"join key {key_column!r} missing from rehash projection {layout.names}"
            )
        plan.key_slots[terminal.op_id] = slot
    elif kind is OpKind.FETCH:
        fetch_alias = terminal.params["fetch_alias"]
        fetch_layout = query.table(fetch_alias).relation.schema.layout()
        scan_is_left = alias == query.join.left_alias
        left, right = ((layout, fetch_layout) if scan_is_left
                       else (fetch_layout, layout))
        plan.fetches[terminal.op_id] = FetchArtifact(
            key_slot=layout.slots[terminal.params["key_column"]],
            reader=fetch_layout.reader(),
            predicate=compile_vector_expression(
                query.local_predicates.get(fetch_alias), fetch_layout
            ),
            scan_is_left=scan_is_left,
            emit=_compile_pair_emitter(query, left, right),
        )
    elif kind is OpKind.PARTIAL_AGG:
        # Qualification is a pure rename: the qualified layout indexes the
        # same slots of the unchanged chunk.
        plan.aggs[terminal.op_id] = _compile_agg(query, layout.qualified(alias))
    elif kind is OpKind.SINK:
        plan.sinks[terminal.op_id] = _compile_sink(query, layout.qualified(alias))


def _lower(graph: OpGraph) -> PlanArtifacts:
    """Compile every row-touching operator of ``graph`` (once per plan)."""
    query = graph.query
    plan = PlanArtifacts(finalize=_compile_finalize(query))
    for scan in graph.nodes_of_kind(OpKind.SCAN):
        _lower_chain(graph, plan, scan)

    probes = graph.nodes_of_kind(OpKind.PROBE)
    if probes:
        # Layouts of what actually crossed the network per side: the rehash
        # chains' projections (full tuples for SHJ/Bloom, rid+key for semi).
        rehash_layouts = {
            chain.alias: chain.layout
            for chain in plan.chains.values()
            if chain.terminal.kind is OpKind.REHASH
        }
        join = query.join
        for probe in probes:
            if probe.params.get("semi_join"):
                relations = (query.table(join.left_alias).relation,
                             query.table(join.right_alias).relation)
                left_full, right_full = (relation.schema.layout()
                                         for relation in relations)
                plan.semi = SemiJoinArtifact(
                    rid_slots=(
                        rehash_layouts[join.left_alias].slots[
                            relations[0].resource_id_column],
                        rehash_layouts[join.right_alias].slots[
                            relations[1].resource_id_column],
                    ),
                    namespaces=(relations[0].namespace, relations[1].namespace),
                    readers=(left_full.reader(), right_full.reader()),
                    key_slots=(left_full.slots[join.left_column],
                               right_full.slots[join.right_column]),
                    emit=_compile_pair_emitter(query, left_full, right_full),
                )
            else:
                plan.pair_emitters[probe.op_id] = _compile_pair_emitter(
                    query,
                    rehash_layouts[join.left_alias],
                    rehash_layouts[join.right_alias],
                )
    return plan
