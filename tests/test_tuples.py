"""Unit tests for the relational data model (columns, schemas, relations)."""

import pytest

from repro.core.tuples import (
    Column,
    RelationDef,
    RowLayout,
    Schema,
)
from repro.exceptions import SchemaError
from tests.reference import merge_rows, project_row, qualify


def sample_schema():
    return Schema([
        Column("pkey", "int"),
        Column("num2", "float"),
        Column("name", "str", size_bytes=32),
    ])


# ------------------------------------------------------------------- columns


def test_column_type_validation():
    column = Column("x", "int")
    assert column.accepts(5)
    assert not column.accepts(5.5)
    assert not column.accepts(True)  # bools are not ints here
    assert column.accepts(None)      # NULLs allowed


def test_float_column_accepts_ints():
    assert Column("x", "float").accepts(3)
    assert Column("x", "float").accepts(3.5)


def test_column_rejects_unknown_type():
    with pytest.raises(SchemaError):
        Column("x", "varchar")


def test_column_rejects_empty_name():
    with pytest.raises(SchemaError):
        Column("", "int")


# -------------------------------------------------------------------- schema


def test_schema_column_names_in_order():
    assert sample_schema().column_names == ["pkey", "num2", "name"]


def test_schema_rejects_duplicate_columns():
    with pytest.raises(SchemaError):
        Schema([Column("a", "int"), Column("a", "int")])


def test_schema_validate_accepts_conforming_row():
    sample_schema().validate({"pkey": 1, "num2": 2.0, "name": "x"})


def test_schema_validate_rejects_missing_column():
    with pytest.raises(SchemaError):
        sample_schema().validate({"pkey": 1, "num2": 2.0})


def test_schema_validate_rejects_extra_column():
    with pytest.raises(SchemaError):
        sample_schema().validate({"pkey": 1, "num2": 2.0, "name": "x", "extra": 1})


def test_schema_validate_rejects_wrong_type():
    with pytest.raises(SchemaError):
        sample_schema().validate({"pkey": "not an int", "num2": 2.0, "name": "x"})


def test_schema_project():
    projected = sample_schema().project(["name", "pkey"])
    assert projected.column_names == ["name", "pkey"]


def test_schema_row_bytes_sums_column_sizes():
    assert sample_schema().row_bytes() == 8 + 8 + 32


def test_schema_unknown_column_lookup_raises():
    with pytest.raises(SchemaError):
        sample_schema().column("missing")


# ---------------------------------------------------------------- relations


def test_relation_defaults():
    relation = RelationDef("R", sample_schema())
    assert relation.namespace == "R"
    assert relation.primary_key == "pkey"
    assert relation.resource_id_column == "pkey"
    assert relation.tuple_bytes == sample_schema().row_bytes()


def test_relation_resource_id_extraction():
    relation = RelationDef("R", sample_schema(), resource_id_column="name")
    assert relation.resource_id({"pkey": 1, "num2": 0.0, "name": "abc"}) == "abc"


def test_relation_rejects_unknown_primary_key():
    with pytest.raises(SchemaError):
        RelationDef("R", sample_schema(), primary_key="nope")


def test_relation_rejects_unknown_resource_column():
    with pytest.raises(SchemaError):
        RelationDef("R", sample_schema(), resource_id_column="nope")


# ------------------------------------------------------------------ row utils


def test_qualify_prefixes_columns():
    assert qualify("R", {"a": 1, "b": 2}) == {"R.a": 1, "R.b": 2}


def test_project_row_keeps_listed_columns():
    assert project_row({"a": 1, "b": 2, "c": 3}, ["c", "a"]) == {"c": 3, "a": 1}


def test_project_row_missing_column_raises():
    with pytest.raises(SchemaError):
        project_row({"a": 1}, ["a", "b"])


def test_merge_rows_combines_and_prefers_right_on_conflict():
    merged = merge_rows({"x": 1, "shared": "left"}, {"y": 2, "shared": "right"})
    assert merged == {"x": 1, "y": 2, "shared": "right"}


# ----------------------------------------------------------------- row layout


def test_schema_layout_and_index_of():
    schema = sample_schema()
    layout = schema.layout()
    assert layout.names == tuple(schema.column_names)
    for i, name in enumerate(schema.column_names):
        assert schema.index_of(name) == i
        assert layout.slots[name] == i
    with pytest.raises(SchemaError):
        sample_schema().index_of("nope")


def test_layout_reader_builds_slotted_rows_in_order():
    layout = RowLayout(["a", "b", "c"])
    reader = layout.reader()
    assert reader({"c": 3, "a": 1, "b": 2, "extra": 9}) == (1, 2, 3)
    single = RowLayout(["only"]).reader()
    assert single({"only": 5}) == (5,)


def test_layout_qualify_and_concat_mirror_dict_helpers():
    left = RowLayout(["pkey", "num2"]).qualified("R")
    right = RowLayout(["pkey", "num3"]).qualified("S")
    merged = left.concat(right)
    row = (1, 2.0, 7, 3.0)
    assert dict(zip(merged.names, row)) == merge_rows(
        qualify("R", {"pkey": 1, "num2": 2.0}),
        qualify("S", {"pkey": 7, "num3": 3.0}),
    )


def test_layout_slot_resolution_rules():
    layout = RowLayout(["R.num2", "S.num2", "R.pkey"])
    assert layout.slot("R.num2") == 0
    assert layout.slot("pkey") == 2           # unique suffix match
    assert layout.slot("missing") is None
    with pytest.raises(SchemaError):
        layout.slot("num2")                   # ambiguous suffix
    bare = RowLayout(["num2", "pkey"])
    assert bare.slot("R.num2") == 0           # qualified -> bare fallback


def test_relation_resource_id_positional():
    relation = RelationDef("R", sample_schema(), resource_id_column="name")
    slot = relation.resource_id_slot
    assert slot == sample_schema().index_of("name")
    slotted = tuple(None if i != slot else "abc"
                    for i in range(len(sample_schema())))
    assert relation.resource_id(slotted) == "abc"
