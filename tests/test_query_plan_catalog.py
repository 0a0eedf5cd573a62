"""Unit tests for QuerySpec validation, local plan construction and the catalog."""

import pytest

from repro.core.catalog import Catalog
from repro.core.expressions import Comparison, col, lit
from repro.core.plan import (
    describe_plan,
    finalize_aggregation_rows,
)
from repro.core.query import (
    AggregateSpec,
    JoinClause,
    JoinStrategy,
    QuerySpec,
    TableRef,
)
from repro.core.tuples import Column, RelationDef, Schema
from repro.exceptions import CatalogError, PlanError
from tests.conftest import build_pier
from tests.reference import RowGroupBy, build_local_filter_pipeline


def make_relation(name="R", columns=("pkey", "num1", "num2")):
    return RelationDef(name, Schema([Column(column, "any") for column in columns]))


def simple_join_query(**overrides):
    r = make_relation("R", ("pkey", "num1", "num2", "num3", "pad"))
    s = make_relation("S", ("pkey", "num2", "num3"))
    options = dict(
        tables=[TableRef(r, "R"), TableRef(s, "S")],
        output_columns=["R.pkey", "S.pkey", "R.pad"],
        join=JoinClause("R", "num1", "S", "pkey"),
    )
    options.update(overrides)
    return QuerySpec(**options)


# ----------------------------------------------------------------- QuerySpec


def test_query_ids_are_unique():
    """The executor that submits a spec names it — its address, then its
    own count — unless the spec already carries an id."""
    pier = build_pier(2)
    specs = [simple_join_query() for _ in range(4)]
    specs[3].query_id = 77
    for address, spec in zip((0, 0, 1, 1), specs):
        assert spec.query_id in (None, 77)
        pier.executor(address).submit(spec)
    assert [spec.query_id for spec in specs] == [1, 2, (1 << 32) | 1, 77]
    assert specs[0].clone_for_window().query_id is None


def test_query_requires_tables():
    with pytest.raises(PlanError):
        QuerySpec(tables=[], output_columns=["x"])


def test_query_rejects_duplicate_aliases():
    relation = make_relation()
    with pytest.raises(PlanError):
        QuerySpec(
            tables=[TableRef(relation, "R"), TableRef(relation, "R")],
            output_columns=["R.pkey"],
            join=JoinClause("R", "num1", "R", "pkey"),
        )


def test_multi_table_without_join_rejected():
    r = make_relation("R")
    s = make_relation("S")
    with pytest.raises(PlanError):
        QuerySpec(tables=[TableRef(r, "R"), TableRef(s, "S")], output_columns=["R.pkey"])


def test_join_referencing_unknown_alias_rejected():
    with pytest.raises(PlanError):
        simple_join_query(join=JoinClause("R", "num1", "T", "pkey"))


def test_local_predicate_unknown_alias_rejected():
    with pytest.raises(PlanError):
        simple_join_query(local_predicates={"X": Comparison(">", col("num2"), lit(1))})


def test_having_requires_aggregates():
    relation = make_relation()
    with pytest.raises(PlanError):
        QuerySpec(
            tables=[TableRef(relation, "R")],
            output_columns=["R.pkey"],
            having=Comparison(">", col("cnt"), lit(1)),
        )


def test_query_without_output_rejected():
    relation = make_relation()
    with pytest.raises(PlanError):
        QuerySpec(tables=[TableRef(relation, "R")])


def test_join_clause_helpers():
    join = JoinClause("R", "num1", "S", "pkey")
    assert join.key_column("R") == "num1"
    assert join.key_column("S") == "pkey"
    assert join.other_alias("R") == "S"
    with pytest.raises(PlanError):
        join.key_column("T")


def test_namespace_names_are_query_specific():
    first = simple_join_query(query_id=1)
    second = simple_join_query(query_id=2)
    assert first.rehash_namespace() != second.rehash_namespace()
    assert first.bloom_namespace("R") != first.bloom_namespace("S")
    assert first.aggregation_namespace().startswith("__pier_agg_")


def test_columns_needed_from_includes_join_output_and_residual():
    query = simple_join_query(
        post_join_predicate=Comparison(">", col("R.num3"), col("S.num3")),
    )
    needed_r = query.columns_needed_from("R")
    assert set(needed_r) >= {"num1", "pkey", "pad", "num3"}
    needed_s = query.columns_needed_from("S")
    assert set(needed_s) >= {"pkey", "num3"}


def test_projected_tuple_bytes_reflects_column_sizes():
    query = simple_join_query()
    assert query.projected_tuple_bytes("R") >= 16
    assert query.projected_tuple_bytes("S") >= 16


def test_is_join_and_is_aggregation_flags():
    query = simple_join_query()
    assert query.is_join and not query.is_aggregation
    relation = make_relation()
    aggregation = QuerySpec(
        tables=[TableRef(relation, "R")],
        group_by=["R.num1"],
        aggregates=[AggregateSpec("count", None, "cnt")],
    )
    assert aggregation.is_aggregation and not aggregation.is_join


# ---------------------------------------------------------------------- plan


def test_build_local_filter_pipeline_filters_and_projects():
    rows = [{"a": 1, "b": 10}, {"a": 2, "b": 20}]
    result = build_local_filter_pipeline(
        rows, Comparison(">", col("b"), lit(15)), columns=["a"]
    )
    assert result == [{"a": 2}]


def test_finalize_aggregation_rows_applies_derived_and_having():
    relation = make_relation("T", ("g", "w"))
    query = QuerySpec(
        tables=[TableRef(relation, "T")],
        group_by=["T.g"],
        aggregates=[
            AggregateSpec("count", None, "cnt"),
            AggregateSpec("sum", "T.w", "total"),
        ],
        having=Comparison(">", col("wcnt"), lit(10)),
    )
    from repro.core.expressions import Arithmetic

    query.derived_columns = {"wcnt": Arithmetic("*", col("cnt"), col("total"))}
    final = RowGroupBy(query.group_by, [(a.function, a.column, a.alias, a.param)
                                        for a in query.aggregates])
    for row in ({"T.g": "x", "T.w": 3.0}, {"T.g": "x", "T.w": 4.0},
                {"T.g": "y", "T.w": 1.0}):
        final.process(row)
    rows = finalize_aggregation_rows(query, final)
    assert rows == [{"T.g": "x", "cnt": 2, "total": 7.0, "wcnt": 14.0}]


def test_describe_plan_mentions_tables_and_strategy():
    query = simple_join_query(strategy=JoinStrategy.BLOOM)
    text = "\n".join(describe_plan(query))
    assert "bloom" in text
    assert "R" in text and "S" in text


# ------------------------------------------------------------------- catalog


def test_catalog_register_and_lookup():
    catalog = Catalog()
    relation = make_relation("users", ("id", "name"))
    catalog.register(relation)
    assert catalog.lookup("users") is relation
    assert "users" in catalog
    assert catalog.relations() == ["users"]


def test_catalog_define_convenience():
    catalog = Catalog()
    relation = catalog.define("events", [("id", "int"), ("kind", "str")],
                              primary_key="id")
    assert relation.schema.has_column("kind")
    assert catalog.lookup("events").primary_key == "id"


def test_catalog_rejects_silent_redefinition():
    catalog = Catalog()
    catalog.register(make_relation("T"))
    with pytest.raises(CatalogError):
        catalog.register(make_relation("T"))
    catalog.register(make_relation("T"), replace=True)  # explicit replace allowed


def test_catalog_unknown_lookup_and_drop():
    catalog = Catalog()
    with pytest.raises(CatalogError):
        catalog.lookup("missing")
    with pytest.raises(CatalogError):
        catalog.drop("missing")
    catalog.register(make_relation("T"))
    catalog.drop("T")
    assert "T" not in catalog


def test_catalog_publish_and_fetch_via_dht():
    from tests.conftest import build_pier

    pier = build_pier(8)
    catalog = Catalog()
    catalog.register(make_relation("shared", ("id", "value")))
    published = catalog.publish(pier.provider(0))
    assert published == 1
    pier.run_until_idle()

    remote_catalog = Catalog()
    fetched = []
    remote_catalog.fetch_remote(pier.provider(3), "shared", fetched.append)
    pier.run_until_idle()
    assert fetched and fetched[0].name == "shared"
    assert "shared" in remote_catalog

    missing = []
    remote_catalog.fetch_remote(pier.provider(3), "absent", missing.append)
    pier.run_until_idle()
    assert missing == [None]
