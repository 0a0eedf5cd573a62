"""Row-at-a-time dict operators: the reference the engine is tested against.

These were the engine's first execution path — one ``dict`` per row pushed
through :class:`Operator` boxes — and left ``src/`` when the chunk pipeline
became the only way a plan executes.  They
stay here because they are the shortest honest statement of what each
relational step *means*: :func:`tests.reference.evaluate_query` strings them
into a centralised evaluator of a ``QuerySpec`` that the distributed engine's
results are compared with.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.expressions import Expression
from repro.exceptions import SchemaError
from tests.reference.expressions import evaluate

Row = Dict[str, Any]

# --------------------------------------------------------- push-based boxes
#
# An Operator receives rows through ``push``, does its work, and hands derived
# rows to ``emit``, which pushes them into any attached consumers or, with
# none attached, appends them to the operator's OutputQueue.


class OutputQueue:
    """FIFO buffer between a producer operator and its consumers."""

    def __init__(self) -> None:
        self._rows: deque = deque()
        self.total_enqueued = 0

    def append(self, row: Row) -> None:
        """Add a row to the tail of the queue."""
        self._rows.append(row)
        self.total_enqueued += 1

    def drain(self, limit: Optional[int] = None) -> List[Row]:
        """Remove and return up to ``limit`` rows from the head (all if None)."""
        if limit is None:
            rows = list(self._rows)
            self._rows.clear()
            return rows
        rows = []
        while self._rows and len(rows) < limit:
            rows.append(self._rows.popleft())
        return rows

    def peek_all(self) -> List[Row]:
        """Non-destructive view of the queued rows."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)


class Operator:
    """Base class for push-based operators."""

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__
        self.output = OutputQueue()
        self.consumers: List["Operator"] = []
        self.rows_in = 0
        self.rows_out = 0
        self._finished = False

    # --------------------------------------------------------------- wiring

    def add_consumer(self, consumer: "Operator") -> "Operator":
        """Attach a downstream operator; returns ``consumer`` for chaining."""
        self.consumers.append(consumer)
        return consumer

    # ----------------------------------------------------------------- flow

    def push(self, row: Row) -> None:
        """Feed one input row into the operator.

        ``push`` is the single counting point for ``rows_in``: ``process``
        implementations must not adjust the counter.  Operators with extra
        public entrypoints that bypass ``push`` (e.g. the join's
        ``push_left``/``push_right``) count those inputs themselves and route
        the actual work through uncounted internal methods.
        """
        self.rows_in += 1
        self.process(row)

    def push_many(self, rows: Iterable[Row]) -> None:
        """Feed several rows."""
        for row in rows:
            self.push(row)

    def process(self, row: Row) -> None:
        """Transform one input row; default is the identity."""
        self.emit(row)

    def emit(self, row: Row) -> None:
        """Produce one output row: queue it and push it into consumers."""
        self.rows_out += 1
        if self.consumers:
            for consumer in self.consumers:
                consumer.push(row)
        else:
            self.output.append(row)

    def finish(self) -> None:
        """Signal end of input; propagates downstream exactly once."""
        if self._finished:
            return
        self._finished = True
        self.on_finish()
        for consumer in self.consumers:
            consumer.finish()

    def on_finish(self) -> None:
        """Hook for operators that emit on end-of-input (e.g. aggregation)."""

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}(in={self.rows_in}, out={self.rows_out})"


def chain(*operators: Operator) -> Operator:
    """Wire operators left-to-right; returns the first (entry) operator."""
    if not operators:
        raise ValueError("chain() needs at least one operator")
    for upstream, downstream in zip(operators, operators[1:]):
        upstream.add_consumer(downstream)
    return operators[0]


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
        if self.predicate is None or evaluate(self.predicate, row):
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
        if self.residual is None or evaluate(self.residual, merged):
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
