"""Relational data model: columns, schemas, relation definitions, row layouts.

PIER's data "lives in its natural habitat" — wrappers publish tuples into the
DHT as soft state — so the data model here is deliberately lightweight: a
published tuple is a plain ``dict`` mapping column names to values, a
:class:`Schema` declares and validates the expected columns, and a
:class:`RelationDef` ties a schema to the DHT namespace its tuples are
published under, its primary key, and the attribute used as the DHT
resourceID (by default the primary key, exactly as the paper's query
processor does).

Inside the dataflow, dicts are too slow: re-qualifying, merging and
projecting a dict per operator allocates and hashes on every tuple.  The
execution pipeline instead works on *slotted* rows — plain Python tuples
whose positions are described by a :class:`RowLayout` (an ordered name list
with a precomputed name→slot map).  A layout resolves names once, at plan
time:

* :meth:`RowLayout.slot` — a column reference to its slot, with the
  qualified/bare fallbacks of expression resolution;
* :meth:`RowLayout.reader` — published dict → slotted row;
* :meth:`RowLayout.qualified` / :meth:`RowLayout.concat` — qualify and merge
  as pure layout (metadata) operations.

Between operators rows travel in batches: a :class:`Chunk` holds one value
array per layout slot, so a predicate or a projection touches a whole
column per call.  Join tails take their batch as a list of matched
``(left, right)`` slotted pairs and build the merged columns they read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.exceptions import SchemaError

#: Python types accepted for each declared column type.
_TYPE_MAP: Dict[str, Tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bytes": (bytes, bytearray),
    "any": (object,),
}

Row = Dict[str, Any]

#: A slotted row: values only, positions described by a :class:`RowLayout`.
SlottedRow = Tuple[Any, ...]


class RowLayout:
    """Positional layout of slotted rows: ordered names plus a name→slot map.

    Layouts are immutable plan-time objects; every name is resolved to a
    fixed slot exactly once, so the hot path does no name lookups at all.
    """

    __slots__ = ("names", "slots")

    def __init__(self, names: Sequence[str]):
        self.names: Tuple[str, ...] = tuple(names)
        self.slots: Dict[str, int] = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowLayout) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowLayout({list(self.names)!r})"

    # ------------------------------------------------------------ resolution

    def slot(self, name: str,
             ambiguity_error: Type[Exception] = SchemaError) -> Optional[int]:
        """Resolve a column reference to its slot (or ``None`` when absent).

        Mirrors :class:`repro.core.expressions.ColumnRef` resolution: exact
        match first, then a qualified reference may fall back to its bare
        name, and a bare reference may resolve a qualified column when the
        suffix match is unique — raising ``ambiguity_error`` otherwise.
        """
        index = self.slots.get(name)
        if index is not None:
            return index
        if "." in name:
            return self.slots.get(name.split(".", 1)[1])
        suffix = "." + name
        matches = [held for held in self.slots if held.endswith(suffix)]
        if len(matches) > 1:
            raise ambiguity_error(
                f"ambiguous column reference {name!r}: {sorted(matches)}"
            )
        if matches:
            return self.slots[matches[0]]
        return None

    # ------------------------------------------------- compiled row operations

    def reader(self) -> Callable[[Row], SlottedRow]:
        """Compiled dict → slotted-row conversion (one C-level itemgetter)."""
        if len(self.names) == 1:
            name = self.names[0]
            return lambda row: (row[name],)
        return operator.itemgetter(*self.names)

    def qualified(self, alias: str) -> "RowLayout":
        """Layout with every name prefixed ``alias.`` (qualification).

        A pure metadata operation: the slotted row itself is untouched.
        """
        return RowLayout(tuple(f"{alias}.{name}" for name in self.names))

    def concat(self, other: "RowLayout") -> "RowLayout":
        """Layout of ``left_row + right_row`` (the merge of a matched pair).

        On duplicate names the right side wins lookups, as in a dict merge.
        """
        return RowLayout(self.names + other.names)


class Chunk:
    """A columnar batch of slotted rows: one value array per layout slot.

    The pipeline moves data between operators as chunks instead of per-row
    tuples, so a compiled expression touches a whole column in one pass
    rather than invoking a closure per row.  The header is the row
    ``length``; validity is expressed as a transient boolean mask that
    :meth:`compress` folds away, so every chunk in flight is dense — slot
    ``columns[s][i]`` is row ``i``'s value for ``layout.names[s]``, and all
    columns share the same length.

    :meth:`rows` transposes a chunk to slotted tuples; the engine does so in
    one place, where a rehash wave ships each fragment as one row.
    """

    __slots__ = ("layout", "columns", "length")

    def __init__(self, layout: RowLayout, columns: Sequence[List[Any]],
                 length: Optional[int] = None):
        self.layout = layout
        self.columns: List[List[Any]] = list(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Chunk({list(self.layout.names)!r}, rows={self.length})"

    @classmethod
    def empty(cls, layout: RowLayout) -> "Chunk":
        """A zero-row chunk of the given layout."""
        return cls(layout, [[] for _ in layout.names], 0)

    def rows(self) -> List[SlottedRow]:
        """Transpose to slotted rows (the chunk → row boundary)."""
        if not self.length:
            return []
        return list(zip(*self.columns))

    def compress(self, mask: Sequence[Any]) -> "Chunk":
        """Dense chunk keeping only rows whose mask entry is truthy."""
        kept = sum(1 for keep in mask if keep)
        if kept == self.length:
            return self
        if not kept:
            return Chunk.empty(self.layout)
        columns = [
            [value for value, keep in zip(column, mask) if keep]
            for column in self.columns
        ]
        return Chunk(self.layout, columns, kept)


@dataclass(frozen=True)
class Column:
    """One attribute of a relation."""

    name: str
    type: str = "any"
    #: Approximate wire size of a value of this column, in bytes.
    size_bytes: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column names must be non-empty")
        if self.type not in _TYPE_MAP:
            raise SchemaError(
                f"unknown column type {self.type!r}; expected one of {sorted(_TYPE_MAP)}"
            )

    def accepts(self, value: Any) -> bool:
        """Whether ``value`` is a legal value for this column."""
        if value is None:
            return True
        expected = _TYPE_MAP[self.type]
        if self.type == "float":
            return isinstance(value, expected) and not isinstance(value, bool)
        if self.type == "int":
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, expected)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns."""

    columns: Tuple[Column, ...]
    #: Precomputed slotted-row layout (set by ``__init__``; excluded from the
    #: generated ``__eq__``/``__repr__`` — it is derived from ``columns``).
    _layout: RowLayout = field(init=False, repr=False, compare=False)

    def __init__(self, columns: Sequence[Column]):
        object.__setattr__(self, "columns", tuple(columns))
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema: {names}")
        # Precomputed layout (with its name→slot map): every by-name
        # operation is O(1) and plan lowering resolves slots from it exactly
        # once per plan.
        object.__setattr__(self, "_layout", RowLayout(names))

    @property
    def column_names(self) -> List[str]:
        """Names of the columns, in declaration order."""
        return [column.name for column in self.columns]

    def layout(self) -> RowLayout:
        """The slotted-row layout of this schema (declaration order)."""
        return self._layout

    def index_of(self, name: str) -> int:
        """Slot of a column in this schema's layout."""
        try:
            return self._layout.slots[name]
        except KeyError:
            raise SchemaError(f"schema has no column named {name!r}") from None

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        return self.columns[self.index_of(name)]

    def has_column(self, name: str) -> bool:
        """Whether the schema declares a column named ``name``."""
        return name in self._layout.slots

    def validate(self, row: Row) -> None:
        """Raise :class:`SchemaError` unless ``row`` conforms to this schema."""
        if not isinstance(row, dict):
            raise SchemaError(f"rows must be dicts, got {type(row)!r}")
        for column in self.columns:
            if column.name not in row:
                raise SchemaError(f"row is missing column {column.name!r}")
            if not column.accepts(row[column.name]):
                raise SchemaError(
                    f"column {column.name!r} rejects value {row[column.name]!r} "
                    f"(declared type {column.type})"
                )
        extra = set(row) - set(self.column_names)
        if extra:
            raise SchemaError(f"row has undeclared columns {sorted(extra)}")

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema containing only ``names`` (in the given order)."""
        return Schema([self.column(name) for name in names])

    def row_bytes(self) -> int:
        """Approximate wire size of one tuple of this schema."""
        return sum(column.size_bytes for column in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)


@dataclass
class RelationDef:
    """Binding of a relation name to its schema and DHT placement.

    Attributes
    ----------
    name:
        Relation (table) name as used in queries.
    schema:
        Column layout of the relation's tuples.
    namespace:
        DHT namespace base tuples are published under (defaults to the name).
    primary_key:
        Column holding the primary key.
    resource_id_column:
        Column whose value becomes the DHT resourceID (defaults to the
        primary key, matching the paper's default).
    tuple_bytes:
        Wire size used when shipping one full tuple; defaults to the schema's
        estimate.
    """

    name: str
    schema: Schema
    namespace: Optional[str] = None
    primary_key: Optional[str] = None
    resource_id_column: Optional[str] = None
    tuple_bytes: Optional[int] = None
    #: Slot of the resourceID column in the schema layout (set in
    #: ``__post_init__``; derived, so excluded from ``__eq__``/``__repr__``).
    resource_id_slot: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.namespace is None:
            self.namespace = self.name
        if self.primary_key is None:
            self.primary_key = self.schema.column_names[0]
        if not self.schema.has_column(self.primary_key):
            raise SchemaError(
                f"primary key {self.primary_key!r} not in schema of {self.name!r}"
            )
        if self.resource_id_column is None:
            self.resource_id_column = self.primary_key
        if not self.schema.has_column(self.resource_id_column):
            raise SchemaError(
                f"resourceID column {self.resource_id_column!r} not in schema of {self.name!r}"
            )
        if self.tuple_bytes is None:
            self.tuple_bytes = self.schema.row_bytes()
        self.resource_id_slot = self.schema.index_of(self.resource_id_column)

    def resource_id(self, row: Any) -> Any:
        """DHT resourceID of a tuple of this relation (dict or slotted row)."""
        if isinstance(row, dict):
            return row[self.resource_id_column]
        return row[self.resource_id_slot]

    def validate(self, row: Row) -> None:
        """Validate a tuple against this relation's schema."""
        self.schema.validate(row)
