"""Row-at-a-time dict operators: the reference the engine is tested against.

These were the engine's first execution path — one ``dict`` per row pushed
through :class:`~repro.core.operators.base.Operator` boxes — and left
``src/`` when the chunk pipeline became the only way a plan executes.  They
stay here because they are the shortest honest statement of what each
relational step *means*: :func:`tests.reference.evaluate_query` strings them
into a centralised evaluator of a ``QuerySpec`` that the distributed engine's
results are compared with.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.expressions import Expression
from repro.core.operators.base import Operator, Row
from repro.exceptions import SchemaError

# ------------------------------------------------------------- dict helpers


def qualify(alias: str, row: Row) -> Row:
    """Prefix every column of ``row`` with ``alias.`` (for post-join rows)."""
    return {f"{alias}.{name}": value for name, value in row.items()}


def project_row(row: Row, names: Sequence[str]) -> Row:
    """Keep only the listed columns of ``row``."""
    missing = [name for name in names if name not in row]
    if missing:
        raise SchemaError(f"projection references missing columns {missing}")
    return {name: row[name] for name in names}


def merge_rows(left: Row, right: Row) -> Row:
    """Concatenate two (already qualified) rows."""
    merged = dict(left)
    merged.update(right)
    return merged


# ------------------------------------------------------------------ sources


class ListScan(Operator):
    """Source operator over an in-memory collection of rows."""

    def __init__(self, rows: Iterable[Row], name: Optional[str] = None):
        super().__init__(name or "ListScan")
        self._rows = list(rows)

    def run(self) -> None:
        """Push every row downstream, then signal end of input."""
        for row in self._rows:
            self.rows_in += 1
            self.emit(dict(row))
        self.finish()


# --------------------------------------------------- selection / projection


class Selection(Operator):
    """Emit only rows for which the predicate evaluates to true.

    A ``None`` predicate passes everything through, which lets planners build
    uniform pipelines without special-casing "no WHERE clause".
    """

    def __init__(self, predicate: Optional[Expression], name: Optional[str] = None):
        super().__init__(name or "Selection")
        self.predicate = predicate
        self.rows_filtered = 0

    def process(self, row: Row) -> None:
        if self.predicate is None or self.predicate.evaluate(row):
            self.emit(row)
        else:
            self.rows_filtered += 1

    @property
    def selectivity(self) -> float:
        """Observed fraction of input rows that passed the predicate."""
        if self.rows_in == 0:
            return 1.0
        return (self.rows_in - self.rows_filtered) / self.rows_in


class Projection(Operator):
    """Keep only the listed columns of each row."""

    def __init__(self, columns: Sequence[str], name: Optional[str] = None):
        super().__init__(name or f"Projection({list(columns)})")
        self.columns = list(columns)

    def process(self, row: Row) -> None:
        self.emit(project_row(row, self.columns))


class Qualify(Operator):
    """Prefix every column of each row with a table alias (``num2`` → ``R.num2``)."""

    def __init__(self, alias: str, name: Optional[str] = None):
        super().__init__(name or f"Qualify({alias})")
        self.alias = alias

    def process(self, row: Row) -> None:
        self.emit(qualify(self.alias, row))


# --------------------------------------------------------------------- join


class SymmetricHashJoin(Operator):
    """Pipelining symmetric hash equi-join (Wilschut & Apers).

    Two hash tables, one per input, are built and probed simultaneously as
    rows stream in from either side; every matching pair is emitted exactly
    once, when its *later* row arrives.  Rows are fed through :meth:`push_left` / :meth:`push_right` (or through
    :meth:`push` with rows pre-tagged by the ``side`` key).  Join keys are
    extracted with the provided callables; an optional residual predicate is
    applied to the merged row before it is emitted.
    """

    def __init__(
        self,
        left_key: Callable[[Row], Any],
        right_key: Callable[[Row], Any],
        residual: Optional[Expression] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name or "SymmetricHashJoin")
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual
        self._left_table: Dict[Any, List[Row]] = defaultdict(list)
        self._right_table: Dict[Any, List[Row]] = defaultdict(list)

    # ------------------------------------------------------------------ feed

    def push_left(self, row: Row) -> None:
        """Feed one row from the left (build + probe against right)."""
        self.rows_in += 1
        self._ingest_left(row)

    def push_right(self, row: Row) -> None:
        """Feed one row from the right (build + probe against left)."""
        self.rows_in += 1
        self._ingest_right(row)

    def process(self, row: Row) -> None:
        """Handle a pre-tagged row: ``row["side"]`` must be ``"left"``/``"right"``.

        ``Operator.push`` has already counted the row, so this dispatches to
        the uncounted ingest paths; the public ``push_left``/``push_right``
        entrypoints do their own counting because they bypass ``push``.
        """
        side = row.get("side")
        payload = row.get("row", row)
        if side == "left":
            self._ingest_left(payload)
        elif side == "right":
            self._ingest_right(payload)
        else:
            raise ValueError("untagged row pushed into SymmetricHashJoin")

    def _ingest_left(self, row: Row) -> None:
        key = self.left_key(row)
        for match in self._right_table.get(key, ()):
            self._emit_pair(row, match)
        self._left_table[key].append(row)

    def _ingest_right(self, row: Row) -> None:
        key = self.right_key(row)
        for match in self._left_table.get(key, ()):
            self._emit_pair(match, row)
        self._right_table[key].append(row)

    # ----------------------------------------------------------------- emit

    def _emit_pair(self, left: Row, right: Row) -> None:
        merged = merge_rows(left, right)
        if self.residual is None or self.residual.evaluate(merged):
            self.emit(merged)

    # ------------------------------------------------------------ inspection

    @property
    def left_rows_buffered(self) -> int:
        """Rows currently held in the left hash table."""
        return sum(len(rows) for rows in self._left_table.values())

    @property
    def right_rows_buffered(self) -> int:
        """Rows currently held in the right hash table."""
        return sum(len(rows) for rows in self._right_table.values())


# -------------------------------------------------------------------- sinks


class Collector(Operator):
    """Terminal operator that accumulates every row it receives."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name or "Collector")
        self.rows: List[Row] = []

    def process(self, row: Row) -> None:
        self.rows.append(row)
        self.rows_out += 1

    def drain(self) -> List[Row]:
        """Return the collected rows and clear the buffer."""
        rows = self.rows
        self.rows = []
        return rows


class Tee(Operator):
    """Pass rows through while invoking a side-effect callback on each.

    Useful for instrumentation (counting rows crossing a plan edge) without
    disturbing the pipeline.
    """

    def __init__(self, callback: Callable[[Row], None], name: Optional[str] = None):
        super().__init__(name or "Tee")
        self.callback = callback

    def process(self, row: Row) -> None:
        self.callback(row)
        self.emit(row)
