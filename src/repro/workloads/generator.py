"""Synthetic R ⋈ S workload (paper Section 5.1).

The paper's evaluation query is::

    SELECT R.pkey, S.pkey, R.pad
    FROM R, S
    WHERE R.num1 = S.pkey
      AND R.num2 > constant1
      AND S.num2 > constant2
      AND f(R.num3, S.num3) > constant3

with the following data characteristics, all reproduced here:

* R has 10× the tuples of S; attribute values are uniformly distributed;
* the constants are chosen to give each selection a configurable selectivity
  (50 % by default);
* 90 % of R tuples have exactly one matching S tuple on ``R.num1 = S.pkey``
  (before selections), the remaining 10 % have none;
* ``R.pad`` exists only to make each result tuple 1 KB on the wire.

Tuples are assigned to publishing nodes uniformly at random (seeded), and the
generator can compute the *golden* result set for any predicate constants,
which the recall metric and the correctness tests compare against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.catalog import Catalog
from repro.core.expressions import (
    And,
    Comparison,
    FunctionCall,
    col,
    lit,
    udf,
)
from repro.core.query import JoinClause, JoinStrategy, QuerySpec, TableRef
from repro.core.tuples import Column, RelationDef, Schema
from repro.exceptions import WorkloadError

#: Value domain width of the ``num2`` / ``num3`` attributes.
VALUE_DOMAIN = 100.0


@dataclass
class WorkloadConfig:
    """Parameters of the synthetic join workload.

    ``s_tuples_per_node`` controls the total data volume (R gets
    ``r_to_s_ratio`` times as many tuples); the benchmarks keep it at a
    few tuples per node so that large simulated networks stay tractable.
    """

    num_nodes: int
    s_tuples_per_node: int = 2
    r_to_s_ratio: int = 10
    r_selectivity: float = 0.5
    s_selectivity: float = 0.5
    f_selectivity: float = 0.5
    match_fraction: float = 0.9
    result_tuple_bytes: int = 1024
    #: R tuples carry the ~1 KB ``pad`` attribute that makes result tuples 1 KB,
    #: so a full (or rehash-projected) R tuple is ~1 KB on the wire; S tuples
    #: are small.  These sizes drive the Figure 4/5 traffic shapes.
    r_tuple_bytes: int = 1040
    s_tuple_bytes: int = 40
    #: When positive, S tuples also carry a ``pad`` column of this wire size
    #: (and the benchmark query projects it), making *both* join inputs fat.
    #: This is the regime where the strategy rewrites genuinely trade off:
    #: rewrites that ship only matching tuples win at low selectivity, while
    #: full rehash/fetch plans win once most tuples match — the optimizer
    #: benchmarks use it to exercise strategy flips.
    s_pad_bytes: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise WorkloadError("workload needs at least one node")
        if self.s_tuples_per_node < 0:
            raise WorkloadError("s_tuples_per_node must be non-negative")
        for name in ("r_selectivity", "s_selectivity", "f_selectivity", "match_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1], got {value}")
        if self.s_pad_bytes > 0:
            # Result tuples additionally carry S.pad, so their wire size
            # (what the simulator bills the initiator's inbound link for,
            # and what the cost model's result-stream term reads) grows
            # accordingly.
            self.result_tuple_bytes += self.s_pad_bytes

    @property
    def total_s_tuples(self) -> int:
        """Total S cardinality."""
        return self.num_nodes * self.s_tuples_per_node

    @property
    def total_r_tuples(self) -> int:
        """Total R cardinality (10× S by default)."""
        return self.total_s_tuples * self.r_to_s_ratio


class JoinWorkload:
    """Generated R and S tables plus the benchmark query over them."""

    def __init__(self, config: WorkloadConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self.r_schema = Schema([
            Column("pkey", "int"),
            Column("num1", "int"),
            Column("num2", "float"),
            Column("num3", "float"),
            Column("pad", "str", size_bytes=1000),
        ])
        s_columns = [
            Column("pkey", "int"),
            Column("num2", "float"),
            Column("num3", "float"),
        ]
        if config.s_pad_bytes > 0:
            s_columns.append(Column("pad", "str", size_bytes=config.s_pad_bytes))
        self.s_schema = Schema(s_columns)
        self.r_relation = RelationDef(
            name="R", schema=self.r_schema, primary_key="pkey",
            tuple_bytes=config.r_tuple_bytes,
        )
        self.s_relation = RelationDef(
            name="S", schema=self.s_schema, primary_key="pkey",
            tuple_bytes=config.s_tuple_bytes,
        )
        #: node address -> list of R rows published by that node.
        self.r_by_node: Dict[int, List[dict]] = {a: [] for a in range(config.num_nodes)}
        #: node address -> list of S rows published by that node.
        self.s_by_node: Dict[int, List[dict]] = {a: [] for a in range(config.num_nodes)}
        self._generate()

    # ------------------------------------------------------------ generation

    def _generate(self) -> None:
        config = self.config
        total_s = config.total_s_tuples
        total_r = config.total_r_tuples
        rng = self._rng

        for pkey in range(total_s):
            row = {
                "pkey": pkey,
                "num2": rng.uniform(0.0, VALUE_DOMAIN),
                "num3": rng.uniform(0.0, VALUE_DOMAIN),
            }
            if config.s_pad_bytes > 0:
                row["pad"] = "y" * 8
            node = rng.randrange(config.num_nodes)
            self.s_by_node[node].append(row)

        non_matching_base = total_s  # num1 values in [total_s, 2*total_s) never match
        for pkey in range(total_r):
            if rng.random() < config.match_fraction and total_s > 0:
                num1 = rng.randrange(total_s)
            else:
                num1 = non_matching_base + rng.randrange(max(1, total_s))
            row = {
                "pkey": pkey,
                "num1": num1,
                "num2": rng.uniform(0.0, VALUE_DOMAIN),
                "num3": rng.uniform(0.0, VALUE_DOMAIN),
                "pad": "x" * 8,
            }
            node = rng.randrange(config.num_nodes)
            self.r_by_node[node].append(row)

    # --------------------------------------------------------------- queries

    def predicate_constants(self,
                            s_selectivity: Optional[float] = None) -> Tuple[float, float, float]:
        """Constants (c1, c2, c3) giving the configured selectivities."""
        config = self.config
        s_sel = config.s_selectivity if s_selectivity is None else s_selectivity
        c1 = VALUE_DOMAIN * (1.0 - config.r_selectivity)
        c2 = VALUE_DOMAIN * (1.0 - s_sel)
        c3 = VALUE_DOMAIN * (1.0 - config.f_selectivity)
        return c1, c2, c3

    def catalog(self) -> Catalog:
        """A catalog with R and S registered."""
        catalog = Catalog()
        catalog.register(self.r_relation)
        catalog.register(self.s_relation)
        return catalog

    def make_query(self, strategy: JoinStrategy = JoinStrategy.SYMMETRIC_HASH,
                   s_selectivity: Optional[float] = None,
                   **query_options) -> QuerySpec:
        """The paper's benchmark query as a :class:`QuerySpec`.

        The collection window used by phased strategies (Bloom collectors,
        aggregation owners) defaults to a value that scales with the query
        dissemination time of the configured network size, so Bloom
        collectors do not close before slow nodes' filters arrive.
        """
        c1, c2, c3 = self.predicate_constants(s_selectivity)
        query_options.setdefault(
            "collection_window_s",
            max(4.0, 0.4 * self.config.num_nodes ** 0.5),
        )
        output_columns = ["R.pkey", "S.pkey", "R.pad"]
        if self.config.s_pad_bytes > 0:
            output_columns.append("S.pad")
        return QuerySpec(
            tables=[
                TableRef(self.r_relation, "R"),
                TableRef(self.s_relation, "S"),
            ],
            output_columns=output_columns,
            local_predicates={
                "R": Comparison(">", col("num2"), lit(c1)),
                "S": Comparison(">", col("num2"), lit(c2)),
            },
            join=JoinClause("R", "num1", "S", "pkey"),
            post_join_predicate=Comparison(
                ">", FunctionCall("f", (col("R.num3"), col("S.num3"))), lit(c3)
            ),
            strategy=strategy,
            result_tuple_bytes=self.config.result_tuple_bytes,
            **query_options,
        )

    def sql_text(self, s_selectivity: Optional[float] = None) -> str:
        """The benchmark query as SQL text (for the SQL front-end tests)."""
        c1, c2, c3 = self.predicate_constants(s_selectivity)
        return (
            "SELECT R.pkey, S.pkey, R.pad FROM R, S "
            f"WHERE R.num1 = S.pkey AND R.num2 > {c1} AND S.num2 > {c2} "
            f"AND f(R.num3, S.num3) > {c3}"
        )

    # ----------------------------------------------------------- golden data

    def all_r_rows(self) -> List[Tuple[int, dict]]:
        """All R rows as (publisher, row) pairs."""
        return [(node, row) for node, rows in self.r_by_node.items() for row in rows]

    def all_s_rows(self) -> List[Tuple[int, dict]]:
        """All S rows as (publisher, row) pairs."""
        return [(node, row) for node, rows in self.s_by_node.items() for row in rows]

    def expected_results(self, s_selectivity: Optional[float] = None,
                         live_publishers: Optional[set] = None) -> List[dict]:
        """Golden result rows of the benchmark query.

        ``live_publishers`` restricts both inputs to tuples published by those
        nodes, which is the paper's reachable-snapshot reference set for the
        recall experiment.
        """
        c1, c2, c3 = self.predicate_constants(s_selectivity)
        function = udf("f")
        s_index: Dict[int, List[dict]] = {}
        for publisher, row in self.all_s_rows():
            if live_publishers is not None and publisher not in live_publishers:
                continue
            if row["num2"] > c2:
                s_index.setdefault(row["pkey"], []).append(row)
        results = []
        for publisher, row in self.all_r_rows():
            if live_publishers is not None and publisher not in live_publishers:
                continue
            if row["num2"] <= c1:
                continue
            for s_row in s_index.get(row["num1"], ()):
                if function(row["num3"], s_row["num3"]) > c3:
                    result = {
                        "R.pkey": row["pkey"],
                        "S.pkey": s_row["pkey"],
                        "R.pad": row["pad"],
                    }
                    if self.config.s_pad_bytes > 0:
                        result["S.pad"] = s_row["pad"]
                    results.append(result)
        return results

    def expected_result_count(self, s_selectivity: Optional[float] = None) -> int:
        """Cardinality of the golden result set."""
        return len(self.expected_results(s_selectivity))

    def selected_data_bytes(self, s_selectivity: Optional[float] = None) -> int:
        """Bytes of base data passing the selections (the paper's ``D``)."""
        c1, c2, c3 = self.predicate_constants(s_selectivity)
        r_bytes = sum(
            self.config.r_tuple_bytes
            for _publisher, row in self.all_r_rows() if row["num2"] > c1
        )
        s_bytes = sum(
            self.config.s_tuple_bytes
            for _publisher, row in self.all_s_rows() if row["num2"] > c2
        )
        return r_bytes + s_bytes
