"""Query descriptions: what gets multicast to every node.

A :class:`QuerySpec` is PIER's unit of query dissemination: the initiating
node builds one, multicasts it into the query namespace, and every node's
executor instantiates the appropriate local dataflow from it.  It carries the
relation definitions it touches (so executors need no shared catalog), the
per-table local predicates, the equi-join clause and residual predicate, the
output/grouping/aggregation description, and the chosen join strategy with
its tuning knobs.

The four strategies of Section 4 are the members of :class:`JoinStrategy`:

* ``SYMMETRIC_HASH`` — rehash both tables on the join key into a temporary
  namespace; probe locally on arrival.
* ``FETCH_MATCHES`` — usable when one table is already hashed on the join
  attribute; scan the other and ``get`` candidate matches.
* ``SYMMETRIC_SEMI_JOIN`` — rehash only (resourceID, join key) projections,
  then fetch the full tuples of surviving pairs.
* ``BLOOM`` — collect per-node Bloom filters of each side's join keys,
  OR them at collector nodes, multicast the summaries, and rehash only
  tuples that pass the opposite side's filter.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.expressions import Expression
from repro.core.tuples import RelationDef
from repro.exceptions import PlanError

@dataclass(frozen=True)
class QueryTeardown:
    """Control message multicast into the query namespace to end a query.

    Every node receiving it releases the query's soft state immediately —
    ``newData`` probes, multicast subscriptions, pending collection-window
    timers and locally stored temporary fragments; anything still in flight
    is dropped on arrival or left to soft-state expiry.
    """

    query_id: int


class JoinStrategy(enum.Enum):
    """Distributed equi-join algorithms / rewrites (paper Section 4).

    ``AUTO`` is not an algorithm: it asks the cost-based optimizer
    (:mod:`repro.core.costmodel`) to pick the cheapest feasible physical
    strategy from published relation statistics.  It is resolved to one of
    the four physical members before the query is lowered; code iterating
    over the actual algorithms should use :meth:`physical`.
    """

    SYMMETRIC_HASH = "symmetric_hash"
    FETCH_MATCHES = "fetch_matches"
    SYMMETRIC_SEMI_JOIN = "symmetric_semi_join"
    BLOOM = "bloom"
    AUTO = "auto"

    @classmethod
    def physical(cls) -> List["JoinStrategy"]:
        """The four executable join algorithms (everything except AUTO)."""
        return [strategy for strategy in cls if strategy is not cls.AUTO]


@dataclass(frozen=True)
class TableRef:
    """A relation participating in the query, with its alias."""

    relation: RelationDef
    alias: str

    @property
    def namespace(self) -> str:
        """DHT namespace holding the relation's base tuples."""
        return self.relation.namespace


@dataclass(frozen=True)
class JoinClause:
    """Equi-join condition ``left_alias.left_column = right_alias.right_column``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def key_column(self, alias: str) -> str:
        """Join column of the given side."""
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        raise PlanError(f"alias {alias!r} is not part of join clause {self}")

    def other_alias(self, alias: str) -> str:
        """The opposite side's alias."""
        if alias == self.left_alias:
            return self.right_alias
        if alias == self.right_alias:
            return self.left_alias
        raise PlanError(f"alias {alias!r} is not part of join clause {self}")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list: ``function(column) AS alias``.

    ``param`` carries the literal second argument of parameterised
    aggregates — ``APPROX_TOP_K(x, k)``'s ``k``, ``APPROX_PERCENTILE(x,
    p)``'s ``p`` — and stays ``None`` for the classic single-argument ones.
    """

    function: str
    column: Optional[str]
    alias: str
    param: Optional[float] = None


@dataclass
class QuerySpec:
    """Complete description of a PIER query.

    Only the fields relevant to a given query shape need to be set: a
    single-table aggregation has no ``join``; a pure join has no
    ``aggregates``.
    """

    tables: List[TableRef]
    output_columns: List[str] = field(default_factory=list)
    local_predicates: Dict[str, Expression] = field(default_factory=dict)
    join: Optional[JoinClause] = None
    post_join_predicate: Optional[Expression] = None
    group_by: List[str] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)
    having: Optional[Expression] = None
    #: Post-aggregation computed columns, e.g. ``wcnt = count(*) * sum(R.weight)``;
    #: maps output alias -> expression over group columns and aggregate aliases.
    derived_columns: Dict[str, Expression] = field(default_factory=dict)
    strategy: JoinStrategy = JoinStrategy.SYMMETRIC_HASH
    #: When set, rehashed join state is confined to these node addresses (the
    #: paper's "m computation nodes" experiments constrain the join namespace
    #: the same way).  ``None`` means every node participates in computation.
    computation_nodes: Optional[List[int]] = None
    #: Whether single-table aggregation is pushed into the DHT (hash grouping
    #: at the group owners) or computed at the initiator.
    distributed_aggregation: bool = True
    #: Use the hierarchical in-network aggregation extension instead of flat
    #: hash grouping (ablation of the paper's future-work discussion).
    hierarchical_aggregation: bool = False
    #: Number of level-1 combiner buckets for hierarchical aggregation
    #: (``None`` → :data:`repro.core.aggregation_tree.DEFAULT_BRANCHING`).
    #: The sketch benchmarks sweep this to trace bytes-to-root curves.
    aggregation_branching: Optional[int] = None
    #: Initiator-side cap on delivered result rows (SQL ``LIMIT n``).  The
    #: limit is enforced by the :class:`repro.client.ResultCursor`, which
    #: stops delivering rows and cancels the dataflow once satisfied.
    limit: Optional[int] = None
    #: Named by the executor that submits the spec (``None`` until then).
    query_id: Optional[int] = None
    initiator: int = 0
    #: Wire size of one result tuple delivered to the initiator (the paper
    #: pads results to 1 KB).
    result_tuple_bytes: int = 1024
    #: Soft-state lifetime of temporary query state (rehashed fragments...).
    temp_lifetime_s: float = 300.0
    #: How long group owners / Bloom collectors wait before finalising.
    collection_window_s: float = 4.0
    #: Bloom filter sizing for the BLOOM strategy.  ``strategy=AUTO``
    #: overrides these from the estimated build-side cardinality and a
    #: target false-positive rate when the optimizer picks Bloom.
    bloom_bits: int = 8192
    bloom_hashes: int = 4
    #: Planning context for ``strategy=AUTO``: per-alias
    #: :class:`repro.core.stats.RelationStats` attached by the client (or
    #: harness) before the spec is lowered.  ``None`` makes the optimizer
    #: fall back to deterministic schema-derived defaults.
    stats_map: Optional[Dict[str, Any]] = None
    #: :class:`repro.core.costmodel.TopologyParams` of the deployment the
    #: query will run on (AUTO planning context).
    topology: Optional[Any] = None
    #: Observed join selectivity for this query's join signature, fed back
    #: from previous executions (AUTO planning context).
    join_selectivity_hint: Optional[float] = None
    #: The optimizer's decision record, set when AUTO is resolved; rendered
    #: by ``PierClient.explain``.
    optimizer_report: Optional[Any] = None

    # ------------------------------------------------------------ validation

    def __post_init__(self) -> None:
        if not self.tables:
            raise PlanError("a query must reference at least one table")
        aliases = [table.alias for table in self.tables]
        if len(aliases) != len(set(aliases)):
            raise PlanError(f"duplicate table aliases: {aliases}")
        if self.join is not None:
            if len(self.tables) != 2:
                raise PlanError("join queries must reference exactly two tables")
            for alias in (self.join.left_alias, self.join.right_alias):
                if alias not in aliases:
                    raise PlanError(f"join references unknown alias {alias!r}")
        elif len(self.tables) > 1:
            raise PlanError("multi-table queries require a join clause")
        for alias in self.local_predicates:
            if alias not in aliases:
                raise PlanError(f"local predicate references unknown alias {alias!r}")
        if self.having is not None and not self.aggregates:
            raise PlanError("HAVING requires at least one aggregate")
        if not self.output_columns and not self.aggregates and not self.group_by:
            raise PlanError("query produces no output columns")
        if self.limit is not None and self.limit <= 0:
            raise PlanError(f"LIMIT must be positive, got {self.limit}")

    # ------------------------------------------------------------- utilities

    def clone_for_window(self) -> "QuerySpec":
        """A fresh spec for one periodic-query window, sharing the plan.

        Only the per-window mutable state is rebuilt: the container fields a
        window may rewrite (``local_predicates`` gets the sliding-window
        conjunct) become fresh copies, and the ``query_id`` is cleared so the
        submitting executor names the window afresh (its temporary namespaces
        are its own).  The immutable payload — relation definitions,
        expressions, join/aggregate descriptions — is shared, not deep-copied.
        """
        clone = copy.copy(self)
        clone.tables = list(self.tables)
        clone.output_columns = list(self.output_columns)
        clone.local_predicates = dict(self.local_predicates)
        clone.group_by = list(self.group_by)
        clone.aggregates = list(self.aggregates)
        clone.derived_columns = dict(self.derived_columns)
        if self.computation_nodes is not None:
            clone.computation_nodes = list(self.computation_nodes)
        clone.query_id = None
        # Each window makes its own optimizer decision (an AUTO template
        # stays AUTO here and is re-resolved against refreshed statistics).
        clone.optimizer_report = None
        return clone

    @property
    def aliases(self) -> List[str]:
        """Aliases of all referenced tables."""
        return [table.alias for table in self.tables]

    def table(self, alias: str) -> TableRef:
        """The table reference with the given alias."""
        for table in self.tables:
            if table.alias == alias:
                return table
        raise PlanError(f"query has no table aliased {alias!r}")

    @property
    def is_join(self) -> bool:
        """Whether this is a two-table join query."""
        return self.join is not None

    @property
    def is_aggregation(self) -> bool:
        """Whether this query computes aggregates."""
        return bool(self.aggregates)

    @property
    def finalized_at_initiator(self) -> bool:
        """Whether the initiator merges partial aggregates into the groups.

        A join with aggregates ships partials from its join sites; a scan
        aggregation with ``distributed_aggregation=False`` one per node.
        """
        return self.is_aggregation and (self.is_join
                                        or not self.distributed_aggregation)

    def rehash_namespace(self) -> str:
        """Temporary namespace NQ used for rehashed fragments of this query."""
        return f"__pier_join_{self.query_id}__"

    def bloom_namespace(self, alias: str) -> str:
        """Namespace collecting Bloom filters built over table ``alias``."""
        return f"__pier_bloom_{self.query_id}_{alias}__"

    def aggregation_namespace(self) -> str:
        """Temporary namespace used for partial aggregate shipping."""
        return f"__pier_agg_{self.query_id}__"

    def output_columns_for(self, alias: str) -> List[str]:
        """Qualified output columns that come from table ``alias``."""
        prefix = alias + "."
        return [column for column in self.output_columns if column.startswith(prefix)]

    def columns_needed_from(self, alias: str) -> List[str]:
        """Unqualified columns of ``alias`` needed after the join.

        This is what the rehash projection keeps: the side's join key, its
        contribution to the output list and any column referenced by the
        residual (post-join) predicate.
        """
        prefix = alias + "."
        needed = set()
        if self.join is not None:
            needed.add(self.join.key_column(alias))
        for column in self.output_columns:
            if column.startswith(prefix):
                needed.add(column.split(".", 1)[1])
        if self.post_join_predicate is not None:
            for column in self.post_join_predicate.columns_referenced():
                if column.startswith(prefix):
                    needed.add(column.split(".", 1)[1])
        for column in self.group_by:
            if column.startswith(prefix):
                needed.add(column.split(".", 1)[1])
        for aggregate in self.aggregates:
            if aggregate.column and aggregate.column.startswith(prefix):
                needed.add(aggregate.column.split(".", 1)[1])
        relation = self.table(alias).relation
        needed.add(relation.resource_id_column)
        return sorted(needed)

    def projected_tuple_bytes(self, alias: str) -> int:
        """Wire size of a rehashed (projected) tuple from table ``alias``."""
        relation = self.table(alias).relation
        schema = relation.schema
        total = 0
        for column in self.columns_needed_from(alias):
            if schema.has_column(column):
                total += schema.column(column).size_bytes
            else:
                total += 8
        return max(16, total)
