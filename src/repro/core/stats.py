"""Relation statistics: the optimizer's view of what lives in the DHT.

The paper postpones query optimisation, but its experiments (Figures 4–5)
show that no single join strategy wins — the right choice depends on
relation sizes and predicate selectivities.  This module provides the raw
material a cost-based optimizer needs:

* :class:`ColumnStats` / :class:`RelationStats` — per-relation cardinality,
  average tuple size and per-column distinct counts / min-max bounds,
  collected at publish time (``PierNetwork.load_relation`` accumulates them
  as tuples enter the DHT).
* A dedicated soft-state DHT namespace (``__pier_stats__``): every
  publisher's load plan (:func:`publisher_batches`) puts its *partial*
  statistics as its own item beside its rows, and any planning node
  ``get``\\ s the partials and merges them into a global view.  Like all
  PIER state, statistics age out unless their publisher renews them.
* :class:`StatsRegistry` — a node-local cache of relation statistics and
  observed join selectivities, with the DHT fetch and the feedback path the
  executor uses to record *observed* cardinalities at query finish, so
  estimates converge toward truth over a query workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sketches import HyperLogLog

#: DHT namespace holding published statistics.
STATS_NAMESPACE = "__pier_stats__"
#: Register count (``2**log2m``) of the per-column distinct-count sketches
#: carried by published statistics: 1024 registers ≈ 3 % standard error,
#: and small domains stay exact via HLL's linear-counting range.
STATS_HLL_LOG2M = 10
#: Lifetime of published statistics entries: they are small and matter
#: more than ordinary data, but go stale as data churns.
STATS_LIFETIME_S = 1800.0
#: Approximate wire size of one published statistics item.
STATS_ITEM_BYTES = 96
#: Blend factor for feedback: how strongly a new observation moves the
#: running estimate (exponential moving average).
OBSERVATION_BLEND = 0.5


def relation_stats_resource_id(name: str) -> str:
    """ResourceID of a relation's statistics in ``__pier_stats__``."""
    return f"rel:{name}"


def join_observation_resource_id(signature: str) -> str:
    """ResourceID of an observed-join-selectivity entry."""
    return f"join:{signature}"


def join_signature(left_namespace: str, left_column: str,
                   right_namespace: str, right_column: str) -> str:
    """Order-independent identity of an equi-join's key pair."""
    sides = sorted([f"{left_namespace}.{left_column}",
                    f"{right_namespace}.{right_column}"])
    return "=".join(sides)


# ---------------------------------------------------------------------- stats


@dataclass
class ColumnStats:
    """Summary of one column's values (equi-join selectivity estimation)."""

    distinct: int = 0
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    #: Distinct-count sketch over the same values, so merging partials with
    #: overlapping domains unions instead of adding (legacy partials without
    #: one fall back to the additive merge).
    hll: Optional[HyperLogLog] = None

    @classmethod
    def from_values(cls, values: List[Any]) -> "ColumnStats":
        """Exact single-pass stats over one publisher's column of values.

        Each *type-exactly* distinct value is hashed once: ``1``, ``True`` and
        ``1.0`` are one distinct value but three keys here (``True`` sketches
        differently from ``1``), so the registers are the per-row loop's.
        """
        try:
            exact = dict.fromkeys(zip(map(type, values), values))
        except TypeError:  # unhashable values carry no distinct information
            exact = {}
            for key in zip(map(type, values), values):
                try:
                    exact[key] = None
                except TypeError:
                    continue
        distinct = [value for _kind, value in exact]
        hll = HyperLogLog(log2m=STATS_HLL_LOG2M)
        hll.add_many(distinct)
        numeric = [value for value in distinct
                   if isinstance(value, (int, float))
                   and not isinstance(value, bool)]
        return cls(distinct=len(set(distinct)),
                   min_value=min(numeric, default=None),
                   max_value=max(numeric, default=None), hll=hll)

    @property
    def width(self) -> Optional[float]:
        """Width of the observed value range (numeric columns only)."""
        if self.min_value is None or self.max_value is None:
            return None
        return float(self.max_value) - float(self.min_value)

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        """Combine two partials (different publishers of one relation).

        When both sides carry an HLL sketch, the union sketch estimates the
        merged distinct count directly — overlapping domains no longer
        double-count.  Legacy partials without a sketch fall back to the
        additive merge, where overlap makes the sum an overestimate and
        integer ranges cap it at the merged domain width.

        Neither side is mutated: a publisher's partial is aliased by the
        registries, by its stored DHT item and by the renewal agent.
        """
        low = min([v for v in (self.min_value, other.min_value) if v is not None],
                  default=None)
        high = max([v for v in (self.max_value, other.max_value) if v is not None],
                   default=None)
        self_hll, other_hll = self.hll, other.hll
        merged_hll: Optional[HyperLogLog] = None
        if (self_hll is not None and other_hll is not None
                and self_hll.log2m == other_hll.log2m
                and self_hll.seed == other_hll.seed):
            merged_hll = self_hll.copy()
            merged_hll.merge(other_hll)
            # The union estimate can never be below the larger side's exact
            # partial count.
            distinct = max(
                int(round(merged_hll.estimate())),
                self.distinct, other.distinct,
            )
        else:
            distinct = self.distinct + other.distinct
        if (low is not None and high is not None
                and float(low).is_integer() and float(high).is_integer()):
            distinct = min(distinct, int(high) - int(low) + 1)
        return ColumnStats(distinct=distinct, min_value=low, max_value=high,
                           hll=merged_hll)


@dataclass
class RelationStats:
    """Statistics for one relation (possibly a publisher's partial view)."""

    name: str
    cardinality: int = 0
    total_bytes: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    #: Virtual time the stats were (last) collected, for staleness decisions.
    collected_at: float = 0.0

    @classmethod
    def from_rows(cls, relation, rows: List[dict],
                  at: float = 0.0) -> "RelationStats":
        """Collect exact statistics over one publisher's tuples."""
        columns = {column: ColumnStats.from_values([row.get(column) for row in rows])
                   for column in relation.schema.column_names}
        return cls(
            name=relation.name,
            cardinality=len(rows),
            total_bytes=len(rows) * (relation.tuple_bytes or 0),
            columns=columns,
            collected_at=at,
        )

    @property
    def avg_tuple_bytes(self) -> float:
        """Average wire size of one tuple (0 when unknown)."""
        if self.cardinality <= 0:
            return 0.0
        return self.total_bytes / self.cardinality

    def column(self, name: str) -> Optional[ColumnStats]:
        """Column stats by exact or unqualified name (``R.num2`` → ``num2``)."""
        stats = self.columns.get(name)
        if stats is None and "." in name:
            stats = self.columns.get(name.split(".", 1)[1])
        return stats

    def distinct(self, name: str, default: Optional[int] = None) -> Optional[int]:
        """Distinct count of a column (``default`` when unknown)."""
        stats = self.column(name)
        if stats is None or stats.distinct <= 0:
            return default
        return stats.distinct

    def merge(self, other: "RelationStats") -> "RelationStats":
        """Combine two partial views of the same relation."""
        columns = dict(self.columns)
        for name, stats in other.columns.items():
            existing = columns.get(name)
            columns[name] = stats if existing is None else existing.merge(stats)
        return RelationStats(
            name=self.name,
            cardinality=self.cardinality + other.cardinality,
            total_bytes=self.total_bytes + other.total_bytes,
            columns=columns,
            collected_at=max(self.collected_at, other.collected_at),
        )

    def scaled(self, cardinality: int) -> "RelationStats":
        """The same distribution re-scaled to an observed cardinality."""
        return replace(self, cardinality=max(0, int(cardinality)))


def publisher_batches(relation, rows: List[dict], lifetime: float,
                      at: float) -> Tuple[RelationStats, List[tuple]]:
    """One publisher's load plan: its statistics partial and what to store.

    The partial goes first and is soft state like the rows.  Each batch is
    ``(namespace, resource_ids, values, lifetime, item_bytes)``.
    """
    partial = RelationStats.from_rows(relation, rows, at=at)
    return partial, [
        (STATS_NAMESPACE, [relation_stats_resource_id(relation.name)], [partial],
         STATS_LIFETIME_S, STATS_ITEM_BYTES),
        (relation.namespace, [relation.resource_id(row) for row in rows], rows,
         lifetime, relation.tuple_bytes),
    ]


@dataclass
class JoinObservation:
    """Observed selectivity of one equi-join signature (feedback soft state).

    ``selectivity`` is defined over the *selected* inputs of the observing
    query — ``result_rows / (selected_left × selected_right)`` — so it folds
    the join-key match rate and the residual predicate into one number the
    optimizer can apply to its own input estimates.
    """

    signature: str
    selectivity: float
    result_rows: int
    observed_at: float = 0.0


# ------------------------------------------------------------------- registry


class StatsRegistry:
    """Node-local statistics cache with DHT fetch and feedback.

    The load plan's partials accumulate with :meth:`merge_partial`: they are
    parked and folded into the local view, in arrival order, by the first
    read, so a registry nobody reads never pays for the fold.  Fetched
    global views *replace* the local entry (:meth:`install`).  Observed join
    selectivities blend in with an exponential moving average so one noisy
    query does not whipsaw the planner and are published for other planners
    (:meth:`publish_join_observation`).
    """

    def __init__(self) -> None:
        self._relations: Dict[str, RelationStats] = {}
        self._joins: Dict[str, JoinObservation] = {}
        #: Per-node observed scan cardinalities, kept apart from
        #: :attr:`_relations`: a node's post-predicate selected-row count is
        #: a *floor* on one partition's size, not the relation's
        #: cardinality, and must never overwrite a real (published or
        #: fetched) statistics entry.
        self._scan_observations: Dict[str, RelationStats] = {}
        #: Stable instanceID per published join observation, so
        #: re-publication (a full put: the value may change) overwrites the
        #: item, no duplicate.
        self._published: Dict[str, int] = {}
        #: Partials not yet folded into :attr:`_relations`, per relation.
        self._parked: Dict[str, List[RelationStats]] = {}

    # ------------------------------------------------------------- local view

    def merge_partial(self, partial: RelationStats) -> None:
        """Add an already-collected partial to the local view (on next read)."""
        self._parked.setdefault(partial.name, []).append(partial)

    def _fold(self) -> Dict[str, RelationStats]:
        """Fold the parked partials in; returns the local view."""
        for name, partials in self._parked.items():
            merged = self._relations.get(name)
            for partial in partials:
                merged = partial if merged is None else merged.merge(partial)
            self._relations[name] = merged
        self._parked.clear()
        return self._relations

    def install(self, stats: RelationStats) -> None:
        """Replace the local entry with a fetched/observed global view."""
        self._parked.pop(stats.name, None)
        self._relations[stats.name] = stats

    def get(self, name: str) -> Optional[RelationStats]:
        """Local statistics for ``name`` (or ``None``)."""
        return self._fold().get(name)

    def relation_names(self) -> List[str]:
        """Names of relations with local statistics."""
        return sorted(self._fold())

    # -------------------------------------------------------------- feedback

    def observe_join(self, signature: str, selectivity: float,
                     result_rows: int, at: float = 0.0) -> JoinObservation:
        """Blend an observed join selectivity into the running estimate."""
        selectivity = max(0.0, float(selectivity))
        previous = self._joins.get(signature)
        if previous is not None:
            selectivity = (
                (1.0 - OBSERVATION_BLEND) * previous.selectivity
                + OBSERVATION_BLEND * selectivity
            )
        observation = JoinObservation(
            signature=signature, selectivity=selectivity,
            result_rows=result_rows, observed_at=at,
        )
        self._joins[signature] = observation
        return observation

    def install_join(self, observation: JoinObservation) -> None:
        """Adopt a fetched observation (keep the fresher of the two)."""
        existing = self._joins.get(observation.signature)
        if existing is None or observation.observed_at >= existing.observed_at:
            self._joins[observation.signature] = observation

    def join_selectivity(self, signature: str) -> Optional[float]:
        """Observed selectivity for a join signature (or ``None``)."""
        observation = self._joins.get(signature)
        return None if observation is None else observation.selectivity

    def observe_scan(self, relation_name: str, selected_rows: int,
                     at: float = 0.0) -> None:
        """Record a node's observed selected-row count for a relation.

        Participants call this at query teardown with what their local scan
        actually produced.  The count is a post-predicate, single-partition
        figure, so it is kept in a side table — never merged into real
        relation statistics — and surfaces only through
        :meth:`best_estimate` as a last-resort floor when no published
        statistics are available.
        """
        existing = self._scan_observations.get(relation_name)
        if existing is None or selected_rows > existing.cardinality:
            self._scan_observations[relation_name] = RelationStats(
                name=relation_name, cardinality=selected_rows,
                collected_at=at,
            )

    def observed_scan(self, relation_name: str) -> Optional[RelationStats]:
        """This node's largest observed scan for a relation (or ``None``)."""
        return self._scan_observations.get(relation_name)

    def best_estimate(self, name: str) -> Optional[RelationStats]:
        """Best available statistics: real entries first, scan floors last."""
        return self._fold().get(name) or self._scan_observations.get(name)

    # ------------------------------------------------------- DHT publication

    def publish_join_observation(self, provider, signature: str,
                                 lifetime: float = STATS_LIFETIME_S) -> bool:
        """Publish one observed join selectivity into ``__pier_stats__``."""
        observation = self._joins.get(signature)
        if observation is None:
            return False
        resource_id = join_observation_resource_id(signature)
        instance_id = provider.put(
            STATS_NAMESPACE, resource_id, self._published.get(resource_id),
            observation, lifetime=lifetime, item_bytes=STATS_ITEM_BYTES,
        )
        self._published[resource_id] = instance_id
        return True

    # ------------------------------------------------------------- DHT fetch

    def fetch_relation(self, provider, name: str,
                       callback: Callable[[Optional[RelationStats]], None]) -> None:
        """Fetch and merge all published partials of one relation.

        Every publisher's partial arrives as its own DHT item; the merged
        global view replaces the local cache entry and is handed to the
        callback (``None`` when nothing is published or everything expired).
        """

        def _on_items(items) -> None:
            merged: Optional[RelationStats] = None
            for item in items:
                stats = item.value
                if not isinstance(stats, RelationStats):
                    continue
                merged = stats if merged is None else merged.merge(stats)
            if merged is not None:
                self.install(merged)
            callback(merged)

        provider.get(STATS_NAMESPACE, relation_stats_resource_id(name), _on_items)

    def fetch_join_observation(self, provider, signature: str,
                               callback: Callable[[Optional[JoinObservation]], None]
                               ) -> None:
        """Fetch the freshest published observation of one join signature."""

        def _on_items(items) -> None:
            freshest: Optional[JoinObservation] = None
            for item in items:
                observation = item.value
                if not isinstance(observation, JoinObservation):
                    continue
                if freshest is None or observation.observed_at > freshest.observed_at:
                    freshest = observation
            if freshest is not None:
                self.install_join(freshest)
            callback(freshest)

        provider.get(STATS_NAMESPACE, join_observation_resource_id(signature),
                     _on_items)
