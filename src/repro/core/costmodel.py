"""Cost model and cost-based strategy selection (the optimizer layer).

The paper's Section 5.5.1 backs its Table 4 with a closed-form
message-pattern decomposition of each join strategy; the reproduction's
harness used that model only to *validate* simulations.  This module
promotes it into a real optimizer layer:

* the analytic primitives (overlay hop counts, lookup/multicast latencies,
  :class:`StrategyCostModel`) live here (``repro.harness.analytical`` keeps
  only the harness's provisioning and recall formulas);
* :class:`TopologyParams` captures the deployment parameters the model
  needs (node count, DHT flavour, per-hop latency, inbound bandwidth);
* :func:`estimate_selectivity` estimates predicate selectivities from
  :class:`repro.core.stats.RelationStats` (range fractions from min/max,
  equality from distinct counts);
* :func:`cost_graph` walks a lowered :class:`repro.core.opgraph.OpGraph`
  and produces per-operator row/byte/hop estimates plus a completion-time
  prediction combining the latency decomposition with bandwidth terms
  (bytes moved per rehash/probe/bloom edge through the paper's bottleneck
  inbound links);
* :func:`optimize_query` enumerates the feasible strategies for a join
  query, costs each candidate graph, auto-sizes Bloom filters from the
  estimated build-side cardinality and a target false-positive rate, and
  picks the cheapest — this is what ``JoinStrategy.AUTO`` resolves through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.expressions import And, Comparison, Expression, Literal, Not, Or
from repro.core.operators.aggregate import GroupByAggregate
from repro.core.query import JoinStrategy, QuerySpec
from repro.core.stats import RelationStats, join_signature
from repro.exceptions import PlanError

#: Paper baseline per-hop (pairwise) latency in the full-mesh topology.
DEFAULT_HOP_LATENCY_S = 0.100

#: Selectivity assumed for predicates the statistics cannot score
#: (opaque UDFs, comparisons over columns with no numeric bounds).
DEFAULT_SELECTIVITY = 0.5
#: Fallback cardinality assumed for relations with no statistics at all.
DEFAULT_CARDINALITY = 1000
#: Target false-positive rate used when auto-sizing Bloom filters.
DEFAULT_BLOOM_FPR = 0.03
#: Bloom filter size clamp (bits).
MIN_BLOOM_BITS = 1024
MAX_BLOOM_BITS = 1 << 20


# ---------------------------------------------------------------------------
# Analytic primitives (paper Sections 3.1.1 and 5.5.1).


def can_average_hops(num_nodes: int, dimensions: int = 2) -> float:
    """Average CAN routing path length: ``(d/4) · n^{1/d}`` hops."""
    if num_nodes <= 1:
        return 0.0
    return (dimensions / 4.0) * num_nodes ** (1.0 / dimensions)


def chord_average_hops(num_nodes: int) -> float:
    """Average Chord routing path length: ``(1/2) · log2 n`` hops."""
    if num_nodes <= 1:
        return 0.0
    return 0.5 * math.log2(num_nodes)


def lookup_latency(num_nodes: int, dimensions: int = 2,
                   hop_latency_s: float = DEFAULT_HOP_LATENCY_S) -> float:
    """Average CAN lookup latency in seconds."""
    return can_average_hops(num_nodes, dimensions) * hop_latency_s


def multicast_depth(num_nodes: int, dimensions: int = 2) -> float:
    """Approximate depth of the CAN multicast wave (the torus diameter)."""
    if num_nodes <= 1:
        return 0.0
    return (dimensions / 2.0) * num_nodes ** (1.0 / dimensions)


def multicast_latency(num_nodes: int, dimensions: int = 2,
                      hop_latency_s: float = DEFAULT_HOP_LATENCY_S) -> float:
    """Approximate time for a multicast to reach every node."""
    return multicast_depth(num_nodes, dimensions) * hop_latency_s


@dataclass(frozen=True)
class StrategyCostModel:
    """Message-pattern decomposition of one join strategy (Section 5.5.1).

    ``multicasts`` counts namespace-wide disseminations, ``lookups`` counts
    CAN lookups on the critical path, ``directs`` counts direct IP hops on
    the critical path (including final result delivery).
    """

    name: str
    multicasts: int
    lookups: int
    directs: int

    def completion_time(self, num_nodes: int, dimensions: int = 2,
                        hop_latency_s: float = DEFAULT_HOP_LATENCY_S) -> float:
        """Predicted time to the last result tuple with unlimited bandwidth."""
        return (
            self.multicasts * multicast_latency(num_nodes, dimensions, hop_latency_s)
            + self.lookups * lookup_latency(num_nodes, dimensions, hop_latency_s)
            + self.directs * hop_latency_s
        )


#: The per-strategy decompositions given in Section 5.5.1.
STRATEGY_COST_MODELS: Dict[str, StrategyCostModel] = {
    "symmetric_hash": StrategyCostModel("symmetric_hash", multicasts=1, lookups=1, directs=2),
    "fetch_matches": StrategyCostModel("fetch_matches", multicasts=1, lookups=1, directs=3),
    "symmetric_semi_join": StrategyCostModel("symmetric_semi_join", multicasts=1, lookups=2, directs=4),
    "bloom": StrategyCostModel("bloom", multicasts=2, lookups=2, directs=3),
}


def predicted_strategy_times(num_nodes: int, dimensions: int = 2,
                             hop_latency_s: float = DEFAULT_HOP_LATENCY_S
                             ) -> Dict[str, float]:
    """Predicted time-to-last-tuple for all four strategies (paper Table 4)."""
    return {
        name: model.completion_time(num_nodes, dimensions, hop_latency_s)
        for name, model in STRATEGY_COST_MODELS.items()
    }


# ---------------------------------------------------------------------------
# Topology parameters


@dataclass(frozen=True)
class TopologyParams:
    """Deployment parameters the cost model prices message patterns with."""

    num_nodes: int
    dht: str = "can"
    can_dimensions: int = 2
    hop_latency_s: float = DEFAULT_HOP_LATENCY_S
    #: Inbound link bandwidth (bytes/s); ``None`` is the infinite-bandwidth
    #: scenario of Section 5.5.1 (byte terms cost nothing).
    bandwidth_bytes_per_s: Optional[float] = None

    @classmethod
    def from_config(cls, config) -> "TopologyParams":
        """Build from a :class:`repro.harness.SimulationConfig`-like object."""
        return cls(
            num_nodes=getattr(config, "num_nodes", 64),
            dht=getattr(config, "dht", "can"),
            can_dimensions=getattr(config, "can_dimensions", 2),
            hop_latency_s=getattr(config, "latency_s", DEFAULT_HOP_LATENCY_S),
            bandwidth_bytes_per_s=getattr(config, "bandwidth_bytes_per_s", None),
        )

    @classmethod
    def from_pier(cls, pier) -> "TopologyParams":
        """Build from an assembled deployment (tolerates stubbed piers)."""
        config = getattr(pier, "config", None)
        if config is None:
            return cls(num_nodes=getattr(pier, "num_nodes", 64))
        return cls.from_config(config)

    def lookup_hops(self) -> float:
        """Average overlay hops of one lookup on this deployment."""
        if self.dht == "chord":
            return chord_average_hops(self.num_nodes)
        return can_average_hops(self.num_nodes, self.can_dimensions)

    def lookup_time(self) -> float:
        """Average lookup latency."""
        return self.lookup_hops() * self.hop_latency_s

    def multicast_time(self) -> float:
        """Approximate namespace-flood completion time."""
        return multicast_latency(self.num_nodes, self.can_dimensions,
                                 self.hop_latency_s)

    def transfer_time(self, total_bytes: float,
                      parallel_links: Optional[int] = None) -> float:
        """Serialisation delay of ``total_bytes`` through the inbound links.

        ``parallel_links`` spreads the bytes over that many links (rehash
        traffic lands uniformly across the network); by default the whole
        volume goes through one link (the initiator's result stream).
        """
        if self.bandwidth_bytes_per_s is None or total_bytes <= 0:
            return 0.0
        links = max(1, parallel_links or 1)
        return (total_bytes / links) / self.bandwidth_bytes_per_s


# ---------------------------------------------------------------------------
# Selectivity estimation


def _comparison_selectivity(expression: Comparison,
                            stats: Optional[RelationStats]) -> float:
    column_side = literal_side = None
    if hasattr(expression.left, "name") and isinstance(expression.right, Literal):
        column_side, literal_side = expression.left, expression.right
        op = expression.op
    elif hasattr(expression.right, "name") and isinstance(expression.left, Literal):
        column_side, literal_side = expression.right, expression.left
        op = _FLIPPED.get(expression.op, expression.op)
    else:
        return DEFAULT_SELECTIVITY
    column_stats = stats.column(column_side.name) if stats is not None else None
    if column_stats is None:
        return DEFAULT_SELECTIVITY
    if op in ("=", "=="):
        distinct = max(1, column_stats.distinct or 1)
        return min(1.0, 1.0 / distinct)
    if op == "!=":
        distinct = max(1, column_stats.distinct or 1)
        return max(0.0, 1.0 - 1.0 / distinct)
    width = column_stats.width
    value = literal_side.value
    if width is None or width <= 0 or not isinstance(value, (int, float)):
        return DEFAULT_SELECTIVITY
    low = float(column_stats.min_value)
    high = float(column_stats.max_value)
    position = (float(value) - low) / width
    if op in (">", ">="):
        fraction = 1.0 - position
    elif op in ("<", "<="):
        fraction = position
    else:  # pragma: no cover - comparison ops are exhaustive
        return DEFAULT_SELECTIVITY
    if value < low:
        fraction = 1.0 if op in (">", ">=") else 0.0
    elif value > high:
        fraction = 0.0 if op in (">", ">=") else 1.0
    return min(1.0, max(0.0, fraction))


_FLIPPED = {">": "<", ">=": "<=", "<": ">", "<=": ">="}


def estimate_selectivity(expression: Optional[Expression],
                         stats: Optional[RelationStats]) -> float:
    """Estimated fraction of rows passing ``expression``.

    Range comparisons against literals score from the column's min/max
    bounds, equality from its distinct count; conjunctions multiply
    (independence assumption), disjunctions combine inclusion-exclusion
    style, and anything opaque (UDF calls, column-to-column comparisons)
    falls back to :data:`DEFAULT_SELECTIVITY`.
    """
    if expression is None:
        return 1.0
    if isinstance(expression, Literal):
        return 1.0 if expression.value else 0.0
    if isinstance(expression, Comparison):
        return _comparison_selectivity(expression, stats)
    if isinstance(expression, And):
        product = 1.0
        for term in expression.terms:
            product *= estimate_selectivity(term, stats)
        return product
    if isinstance(expression, Or):
        miss = 1.0
        for term in expression.terms:
            miss *= 1.0 - estimate_selectivity(term, stats)
        return 1.0 - miss
    if isinstance(expression, Not):
        return 1.0 - estimate_selectivity(expression.term, stats)
    return DEFAULT_SELECTIVITY


# ---------------------------------------------------------------------------
# Bloom filter sizing


def bloom_parameters(expected_keys: int,
                     target_fpr: float = DEFAULT_BLOOM_FPR) -> Tuple[int, int]:
    """Optimal ``(bits, hashes)`` for ``expected_keys`` at ``target_fpr``.

    The classic sizing: ``m = -n·ln p / (ln 2)²`` bits and ``k = (m/n)·ln 2``
    hash functions, clamped to sane bounds so degenerate estimates cannot
    produce pathological filters.
    """
    n = max(1, int(expected_keys))
    p = min(0.5, max(1e-6, float(target_fpr)))
    bits = int(math.ceil(-n * math.log(p) / (math.log(2.0) ** 2)))
    bits = min(MAX_BLOOM_BITS, max(MIN_BLOOM_BITS, bits))
    hashes = max(1, min(16, int(round((bits / n) * math.log(2.0)))))
    return bits, hashes


def bloom_false_positive_rate(bits: int, hashes: int, keys: int) -> float:
    """Expected false-positive rate of an (m, k) filter holding ``keys``."""
    if keys <= 0:
        return 0.0
    return (1.0 - math.exp(-hashes * keys / float(bits))) ** hashes


# ---------------------------------------------------------------------------
# Graph costing


@dataclass
class OpEstimate:
    """Estimated behaviour of one operator node."""

    op_id: int
    rows: float = 0.0
    bytes: float = 0.0
    dht_hops: float = 0.0

    def annotation(self) -> str:
        """Compact suffix rendered into EXPLAIN output."""
        parts = [f"~rows={_fmt(self.rows)}"]
        if self.bytes:
            parts.append(f"~bytes={_fmt(self.bytes)}")
        if self.dht_hops:
            parts.append(f"~hops={_fmt(self.dht_hops)}")
        return "  [" + " ".join(parts) + "]"


def _fmt(value: float) -> str:
    if value >= 100:
        return str(int(round(value)))
    return f"{value:.3g}"


@dataclass
class GraphCost:
    """Estimated cost of running one operator graph."""

    strategy: JoinStrategy
    completion_time_s: float
    result_rows: float
    result_bytes: float
    moved_bytes: float
    dht_hops: float
    per_op: Dict[int, OpEstimate] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line rendering for EXPLAIN candidate listings."""
        return (f"{self.strategy.value}: est time {self.completion_time_s:.3f}s, "
                f"rows {_fmt(self.result_rows)}, moved {_fmt(self.moved_bytes)}B, "
                f"hops {_fmt(self.dht_hops)}")


@dataclass
class _JoinEstimates:
    """Shared intermediate quantities of one join query's costing."""

    selected: Dict[str, float]
    cardinality: Dict[str, float]
    proj_bytes: Dict[str, float]
    full_bytes: Dict[str, float]
    matched_pairs: float
    result_rows: float
    residual_selectivity: float


def _stats_for(query: QuerySpec, stats_map: Optional[Dict[str, RelationStats]],
               alias: str) -> RelationStats:
    """Stats for ``alias``, falling back to a schema-derived default."""
    if stats_map:
        stats = stats_map.get(alias)
        if stats is None:
            relation = query.table(alias).relation
            stats = stats_map.get(relation.name)
        if stats is not None:
            return stats
    relation = query.table(alias).relation
    return RelationStats(name=relation.name, cardinality=DEFAULT_CARDINALITY,
                         total_bytes=DEFAULT_CARDINALITY * (relation.tuple_bytes or 64))


def _join_estimates(query: QuerySpec,
                    stats_map: Optional[Dict[str, RelationStats]],
                    observed_selectivity: Optional[float] = None
                    ) -> _JoinEstimates:
    selected: Dict[str, float] = {}
    cardinality: Dict[str, float] = {}
    proj_bytes: Dict[str, float] = {}
    full_bytes: Dict[str, float] = {}
    distinct: Dict[str, float] = {}
    for table in query.tables:
        alias = table.alias
        stats = _stats_for(query, stats_map, alias)
        card = float(max(0, stats.cardinality))
        sel = estimate_selectivity(query.local_predicates.get(alias), stats)
        cardinality[alias] = card
        selected[alias] = card * sel
        proj_bytes[alias] = float(query.projected_tuple_bytes(alias))
        full = stats.avg_tuple_bytes or (table.relation.tuple_bytes or 64)
        full_bytes[alias] = float(full)
        if query.join is not None:
            key = query.join.key_column(alias)
            distinct[alias] = float(stats.distinct(key, default=None)
                                    or max(1.0, card))
    if query.join is None:
        return _JoinEstimates(selected, cardinality, proj_bytes, full_bytes,
                              matched_pairs=0.0,
                              result_rows=sum(selected.values()),
                              residual_selectivity=1.0)
    left = query.join.left_alias
    right = query.join.right_alias
    key_domain = max(1.0, max(distinct[left], distinct[right]))
    residual = estimate_selectivity(query.post_join_predicate, None)
    if observed_selectivity is not None and observed_selectivity > 0:
        result_rows = observed_selectivity * selected[left] * selected[right]
        matched_pairs = result_rows / max(residual, 1e-9)
    else:
        matched_pairs = selected[left] * selected[right] / key_domain
        result_rows = matched_pairs * residual
    return _JoinEstimates(selected, cardinality, proj_bytes, full_bytes,
                          matched_pairs=matched_pairs,
                          result_rows=result_rows,
                          residual_selectivity=residual)


def cost_graph(graph, stats_map: Optional[Dict[str, RelationStats]] = None,
               topology: Optional[TopologyParams] = None,
               observed_join_selectivity: Optional[float] = None) -> GraphCost:
    """Estimate rows/bytes/hops per operator and the completion time.

    Works on any lowered :class:`~repro.core.opgraph.OpGraph` — joins under
    every strategy, aggregations, plain scans.  The completion-time estimate
    combines the Section 5.5.1 latency decomposition with bandwidth terms:
    bytes crossing DHT-exchange edges are serialised through the paper's
    bottleneck inbound links (spread over all nodes), and the result stream
    through the initiator's single inbound link.  A query the initiator
    finalises ships partial records, not rows: one per group per site.
    """
    from repro.core.opgraph import OpKind

    query = graph.query
    topo = topology or TopologyParams(num_nodes=64)
    estimates = _join_estimates(query, stats_map, observed_join_selectivity)
    per_op: Dict[int, OpEstimate] = {}
    lookup_hops = topo.lookup_hops()

    def put(node, rows: float, bytes_: float = 0.0, hops: float = 0.0) -> None:
        per_op[node.op_id] = OpEstimate(node.op_id, rows=rows, bytes=bytes_,
                                        dht_hops=hops)

    result_rows = estimates.result_rows
    groups = _group_estimate(query, stats_map, result_rows)
    shipped = result_rows
    result_bytes = result_rows * query.result_tuple_bytes
    if query.finalized_at_initiator:
        # Every node may be a join site; a site's partial record holds at
        # most its share of the rows.
        shipped = topo.num_nodes * min(groups, result_rows / topo.num_nodes)
        result_bytes = shipped * partial_record_bytes(query)
    strategy = query.strategy
    window = query.collection_window_s
    n = topo.num_nodes

    # Per-alias pass fraction through the opposite side's Bloom filter.
    bloom_pass: Dict[str, float] = {}
    if query.is_join and strategy is JoinStrategy.BLOOM:
        fpr = bloom_false_positive_rate(
            query.bloom_bits, query.bloom_hashes,
            int(max(estimates.selected.values() or [1])),
        )
        for alias in query.aliases:
            matched = min(1.0, estimates.matched_pairs
                          / max(1.0, estimates.selected[alias]))
            bloom_pass[alias] = min(1.0, matched + (1.0 - matched) * fpr)

    rehash_bytes = 0.0
    fetch_bytes = 0.0
    pair_bytes = 0.0
    filter_bytes = 0.0

    for node in graph.nodes:
        kind = node.kind
        alias = node.params.get("alias")
        if kind is OpKind.SCAN:
            put(node, estimates.cardinality.get(alias, 0.0))
        elif kind in (OpKind.FILTER, OpKind.PROJECT):
            put(node, estimates.selected.get(alias, result_rows))
        elif kind is OpKind.REHASH:
            rows = estimates.selected.get(alias, 0.0)
            rows *= bloom_pass.get(alias, 1.0)
            volume = rows * node.params.get("item_bytes", 64)
            rehash_bytes += volume
            put(node, rows, volume, lookup_hops)
        elif kind is OpKind.PROBE:
            put(node, estimates.matched_pairs)
        elif kind is OpKind.FETCH:
            scan_alias = node.params["scan_alias"]
            fetch_alias = node.params["fetch_alias"]
            scan_rows = estimates.selected.get(scan_alias, 0.0)
            fetch_stats = _stats_for(query, stats_map, fetch_alias)
            key = query.join.key_column(fetch_alias)
            per_key = (estimates.cardinality[fetch_alias]
                       / max(1.0, float(fetch_stats.distinct(
                           key, default=max(1, fetch_stats.cardinality)))))
            volume = scan_rows * per_key * estimates.full_bytes[fetch_alias]
            fetch_bytes += volume
            put(node, scan_rows * per_key, volume, lookup_hops)
        elif kind is OpKind.PAIR_FETCH:
            volume = estimates.matched_pairs * (
                estimates.full_bytes[query.join.left_alias]
                + estimates.full_bytes[query.join.right_alias]
            )
            pair_bytes += volume
            put(node, estimates.matched_pairs, volume, 2 * lookup_hops)
        elif kind is OpKind.BLOOM_BUILD:
            rows = estimates.selected.get(alias, 0.0)
            volume = min(n, max(1.0, rows)) * (query.bloom_bits / 8.0)
            filter_bytes += volume
            put(node, rows, volume, lookup_hops)
        elif kind is OpKind.BLOOM_COMBINE:
            volume = len(query.aliases) * (query.bloom_bits / 8.0)
            filter_bytes += volume * n  # flood: every node receives a copy
            put(node, len(query.aliases), volume)
        elif kind is OpKind.BLOOM_GATE:
            gated = node.params.get("rehash_alias")
            put(node, estimates.selected.get(gated, 0.0)
                * bloom_pass.get(gated, 1.0))
        elif kind is OpKind.RESIDUAL:
            put(node, result_rows)
        elif kind is OpKind.SINK:
            put(node, shipped, result_bytes)
        elif kind in (OpKind.PARTIAL_AGG, OpKind.COMBINE_AGG, OpKind.FINAL_AGG):
            put(node, groups, hops=lookup_hops
                if "namespace" in node.params else 0.0)
        else:
            put(node, result_rows)

    moved_bytes = rehash_bytes + fetch_bytes + pair_bytes + filter_bytes + result_bytes

    # ------------------------------------------------- completion-time model
    time = topo.multicast_time()  # query dissemination reaches the last node
    lookup = topo.lookup_time()
    hop = topo.hop_latency_s
    if query.is_join:
        if strategy is JoinStrategy.SYMMETRIC_HASH:
            time += lookup + 2 * hop
            time += topo.transfer_time(rehash_bytes, parallel_links=n)
        elif strategy is JoinStrategy.FETCH_MATCHES:
            time += lookup + 3 * hop
            time += topo.transfer_time(fetch_bytes, parallel_links=n)
        elif strategy is JoinStrategy.SYMMETRIC_SEMI_JOIN:
            time += 2 * lookup + 4 * hop
            time += topo.transfer_time(rehash_bytes, parallel_links=n)
            time += topo.transfer_time(pair_bytes, parallel_links=n)
        elif strategy is JoinStrategy.BLOOM:
            time += topo.multicast_time() + 2 * lookup + 3 * hop + window
            time += topo.transfer_time(filter_bytes, parallel_links=n)
            time += topo.transfer_time(rehash_bytes, parallel_links=n)
        time += topo.transfer_time(result_bytes)  # initiator's inbound link
    elif query.distributed_aggregation:
        time += lookup + hop + window * (1.6 if query.hierarchical_aggregation
                                         else 1.0)
        time += topo.transfer_time(result_bytes)
    else:
        time += hop + topo.transfer_time(result_bytes)

    total_hops = sum(op.dht_hops for op in per_op.values())
    return GraphCost(
        strategy=strategy,
        completion_time_s=time,
        result_rows=result_rows,
        result_bytes=result_bytes,
        moved_bytes=moved_bytes,
        dht_hops=total_hops,
        per_op=per_op,
    )


def _group_estimate(query: QuerySpec,
                    stats_map: Optional[Dict[str, RelationStats]],
                    rows: float) -> float:
    """Estimated groups: the product of the group-by columns' distinct
    counts (10 when unknown), at most one per row."""
    estimate = 1.0
    for column in query.group_by:
        alias, _, name = column.rpartition(".")
        stats = _stats_for(query, stats_map,
                           alias if alias in query.aliases else query.tables[0].alias)
        estimate *= float(stats.distinct(name, default=10) or 10)
    return max(1.0, min(estimate, rows))


def partial_record_bytes(query: QuerySpec) -> float:
    """Wire size of one group's partial record, as ``partial_sizes`` bills
    a group that holds a single row."""
    probe = GroupByAggregate(query.group_by, [
        (a.function, a.column, a.alias, a.param) for a in query.aggregates])
    probe.accumulate_many((), [[None] for _ in query.aggregates], 1)
    return float(probe.partial_sizes()[()])


# ---------------------------------------------------------------------------
# Strategy selection (JoinStrategy.AUTO)


@dataclass
class OptimizationReport:
    """What the optimizer decided and why (surfaced by EXPLAIN)."""

    chosen: JoinStrategy
    costs: List[GraphCost]
    stats_map: Dict[str, RelationStats] = field(default_factory=dict)
    topology: Optional[TopologyParams] = None
    observed_join_selectivity: Optional[float] = None
    bloom_bits: Optional[int] = None
    bloom_hashes: Optional[int] = None
    #: Estimated selected input cardinalities, used by the executor's
    #: feedback path to normalise the observed result cardinality.
    estimated_inputs: Dict[str, float] = field(default_factory=dict)

    def cost_for(self, strategy: JoinStrategy) -> Optional[GraphCost]:
        """The candidate cost of one strategy (or ``None`` if infeasible)."""
        for cost in self.costs:
            if cost.strategy is strategy:
                return cost
        return None

    @property
    def chosen_cost(self) -> GraphCost:
        """Cost of the winning candidate."""
        return self.costs[0]

    def describe(self) -> List[str]:
        """Candidate listing for EXPLAIN (winner first)."""
        lines = [f"optimizer: chose {self.chosen.value}"
                 + (f" (observed join selectivity "
                    f"{self.observed_join_selectivity:.2e})"
                    if self.observed_join_selectivity is not None else "")]
        for i, cost in enumerate(self.costs):
            marker = "->" if i == 0 else "  "
            lines.append(f"  {marker} {cost.summary()}")
        return lines


def feasible_strategies(query: QuerySpec) -> List[JoinStrategy]:
    """The physical strategies this join query can actually run."""
    from repro.core.opgraph import check_semi_join, fetch_sides

    strategies = [JoinStrategy.SYMMETRIC_HASH]
    for strategy, check in ((JoinStrategy.FETCH_MATCHES, fetch_sides),
                            (JoinStrategy.SYMMETRIC_SEMI_JOIN, check_semi_join)):
        try:
            check(query)
        except PlanError:
            continue
        strategies.append(strategy)
    strategies.append(JoinStrategy.BLOOM)
    return strategies


def _candidate_spec(query: QuerySpec, strategy: JoinStrategy) -> QuerySpec:
    """A throwaway copy of ``query`` lowered under ``strategy``.

    The copy shares the immutable payload but gets its own strategy (and,
    being another object, its own graph), so costing candidates never
    disturbs the spec that will actually be multicast.
    """
    import copy

    candidate = copy.copy(query)
    candidate.strategy = strategy
    return candidate


def optimize_query(query: QuerySpec,
                   stats_map: Optional[Dict[str, RelationStats]] = None,
                   topology: Optional[TopologyParams] = None,
                   observed_join_selectivity: Optional[float] = None
                   ) -> OptimizationReport:
    """Pick the cheapest feasible strategy for a join query.

    Enumerates candidate strategy graphs, auto-sizes the Bloom candidate's
    filter from the estimated build-side cardinality and ``DEFAULT_BLOOM_FPR``,
    costs every graph with :func:`cost_graph`, and returns the report with
    candidates sorted cheapest-first.  The input spec is not modified; apply
    the decision with :func:`resolve_auto_strategy`.
    """
    from repro.core.opgraph import build_opgraph

    if not query.is_join:
        raise PlanError("optimize_query expects a join query")
    topo = topology or TopologyParams(num_nodes=64)
    estimates = _join_estimates(query, stats_map, observed_join_selectivity)
    build_side_keys = int(max(1, max(estimates.selected.values() or [1])))
    bloom_bits, bloom_hashes = bloom_parameters(build_side_keys, DEFAULT_BLOOM_FPR)

    costs: List[GraphCost] = []
    for strategy in feasible_strategies(query):
        candidate = _candidate_spec(query, strategy)
        if strategy is JoinStrategy.BLOOM:
            candidate.bloom_bits = bloom_bits
            candidate.bloom_hashes = bloom_hashes
        graph = build_opgraph(candidate)
        costs.append(cost_graph(
            graph, stats_map=stats_map, topology=topo,
            observed_join_selectivity=observed_join_selectivity,
        ))
    costs.sort(key=lambda cost: cost.completion_time_s)
    chosen = costs[0].strategy
    return OptimizationReport(
        chosen=chosen,
        costs=costs,
        stats_map=dict(stats_map or {}),
        topology=topo,
        observed_join_selectivity=observed_join_selectivity,
        bloom_bits=bloom_bits if chosen is JoinStrategy.BLOOM else None,
        bloom_hashes=bloom_hashes if chosen is JoinStrategy.BLOOM else None,
        estimated_inputs=dict(estimates.selected),
    )


def resolve_auto_strategy(query: QuerySpec) -> Optional[OptimizationReport]:
    """Resolve ``JoinStrategy.AUTO`` on ``query`` in place.

    Uses whatever planning context is attached to the spec — ``stats_map``
    (alias → :class:`RelationStats`), ``topology``
    (:class:`TopologyParams`) and ``join_selectivity_hint`` (observed
    feedback) — falling back to deterministic defaults, so any node lowering
    an unresolved spec reaches the same decision.  Mutates ``query.strategy``
    (and the Bloom sizing knobs when Bloom wins), stores the report on
    ``query.optimizer_report`` and returns it.
    """
    if query.strategy is not JoinStrategy.AUTO:
        return query.optimizer_report
    if not query.is_join:
        # Strategy is meaningless without a join; normalise for display.
        query.strategy = JoinStrategy.SYMMETRIC_HASH
        return None
    report = optimize_query(
        query,
        stats_map=query.stats_map,
        topology=query.topology,
        observed_join_selectivity=query.join_selectivity_hint,
    )
    query.strategy = report.chosen
    if report.bloom_bits is not None:
        query.bloom_bits = report.bloom_bits
        query.bloom_hashes = report.bloom_hashes
    query.optimizer_report = report
    return report


def estimated_selected_inputs(query: QuerySpec,
                              stats_map: Optional[Dict[str, RelationStats]] = None
                              ) -> Dict[str, float]:
    """Per-alias estimated selected-input cardinalities of a query.

    The executor's feedback path normalises observed result cardinalities
    with these when no optimizer report is attached to the spec.
    """
    return dict(_join_estimates(query, stats_map).selected)


def query_join_signature(query: QuerySpec) -> Optional[str]:
    """The stats-namespace signature of a join query's key pair."""
    if query.join is None:
        return None
    left = query.table(query.join.left_alias).relation
    right = query.table(query.join.right_alias).relation
    return join_signature(left.namespace, query.join.left_column,
                          right.namespace, query.join.right_column)
