"""Grouping and aggregation.

PIER implements "DHT-based hash grouping and aggregation ... analogous to
what is done in parallel databases": each node computes *partial* aggregate
states over its local data, ships each group's partial to the node
responsible for that group's key, and the group owner merges partials into
the final value.  The classes here provide the algebra that makes that work:

* :class:`AggregateState` instances support ``add`` (accumulate one row),
  ``merge`` (combine two partials) and ``result`` (finalise), which is the
  standard decomposition into partial/intermediate/final aggregation;
* :class:`GroupByAggregate` is the node-local hash group-by: scan chains and
  join sites accumulate chunks into it (:meth:`~GroupByAggregate.accumulate_many`),
  combiners, group owners and the initiator merge shipped partials
  (:meth:`~GroupByAggregate.merge_partial`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError, SketchError
from repro.sketches import (
    DEFAULT_LOG2M,
    HyperLogLog,
    KLLSketch,
    TopKSketch,
    sketch_from_bytes,
    sketch_to_bytes,
)


class AggregateState:
    """Base class for decomposable aggregate states."""

    name = "aggregate"

    @classmethod
    def create(cls, param: Any = None) -> "AggregateState":
        """Instantiate a fresh state; ``param`` configures parameterised
        aggregates (``APPROX_TOP_K``'s ``k``...) and is ignored otherwise."""
        return cls()

    def add(self, value: Any) -> None:
        """Accumulate a single input value."""
        raise NotImplementedError

    def add_many(self, values: Sequence[Any]) -> None:
        """Accumulate a whole column of input values.

        Semantically identical to calling :meth:`add` per value; states with
        a cheaper bulk form (count, sum, min, max, the sketches) override this.
        """
        for value in values:
            self.add(value)

    def merge(self, other: "AggregateState") -> None:
        """Fold another partial state of the same kind into this one."""
        raise NotImplementedError

    def result(self) -> Any:
        """Finalise the aggregate."""
        raise NotImplementedError

    def to_payload(self) -> Tuple:
        """Serialise the partial state for shipping across the network."""
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: Tuple) -> "AggregateState":
        """Rebuild a partial state from :meth:`to_payload` output."""
        raise NotImplementedError

    def payload_bytes(self) -> int:
        """Approximate wire size of :meth:`to_payload` output.

        Constant for the classic scalar states; sketch states report their
        serialised size (by size, up to the dense form) and the exact-distinct
        state its growing value set, so shipped partials are billed honestly.
        """
        return 16


class CountState(AggregateState):
    """``count(*)`` / ``count(column)``."""

    name = "count"

    def __init__(self, count: int = 0):
        self.count = count

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        self.count += sum(1 for value in values if value is not None)

    def merge(self, other: "CountState") -> None:
        self.count += other.count

    def result(self) -> int:
        return self.count

    def to_payload(self) -> Tuple:
        return ("count", self.count)

    @classmethod
    def from_payload(cls, payload: Tuple) -> "CountState":
        return cls(payload[1])


class SumState(AggregateState):
    """``sum(column)``."""

    name = "sum"

    def __init__(self, total: float = 0.0, seen: int = 0):
        self.total = total
        self.seen = seen

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.seen += 1

    def add_many(self, values: Sequence[Any]) -> None:
        present = [value for value in values if value is not None]
        self.total += sum(present)
        self.seen += len(present)

    def merge(self, other: "SumState") -> None:
        self.total += other.total
        self.seen += other.seen

    def result(self):
        return self.total if self.seen else None

    def to_payload(self) -> Tuple:
        return ("sum", self.total, self.seen)

    @classmethod
    def from_payload(cls, payload: Tuple) -> "SumState":
        return cls(payload[1], payload[2])


class AvgState(AggregateState):
    """``avg(column)`` — kept as (sum, count) so partials merge correctly."""

    name = "avg"

    def __init__(self, total: float = 0.0, count: int = 0):
        self.total = total
        self.count = count

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        present = [value for value in values if value is not None]
        self.total += sum(present)
        self.count += len(present)

    def merge(self, other: "AvgState") -> None:
        self.total += other.total
        self.count += other.count

    def result(self):
        return self.total / self.count if self.count else None

    def to_payload(self) -> Tuple:
        return ("avg", self.total, self.count)

    @classmethod
    def from_payload(cls, payload: Tuple) -> "AvgState":
        return cls(payload[1], payload[2])


class MinState(AggregateState):
    """``min(column)``."""

    name = "min"

    def __init__(self, current: Any = None):
        self.current = current

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.current is None or value < self.current:
            self.current = value

    def add_many(self, values: Sequence[Any]) -> None:
        present = [value for value in values if value is not None]
        if present:
            low = min(present)
            if self.current is None or low < self.current:
                self.current = low

    def merge(self, other: "MinState") -> None:
        self.add(other.current)

    def result(self):
        return self.current

    def to_payload(self) -> Tuple:
        return ("min", self.current)

    @classmethod
    def from_payload(cls, payload: Tuple) -> "MinState":
        return cls(payload[1])


class MaxState(AggregateState):
    """``max(column)``."""

    name = "max"

    def __init__(self, current: Any = None):
        self.current = current

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.current is None or value > self.current:
            self.current = value

    def add_many(self, values: Sequence[Any]) -> None:
        present = [value for value in values if value is not None]
        if present:
            high = max(present)
            if self.current is None or high > self.current:
                self.current = high

    def merge(self, other: "MaxState") -> None:
        self.add(other.current)

    def result(self):
        return self.current

    def to_payload(self) -> Tuple:
        return ("max", self.current)

    @classmethod
    def from_payload(cls, payload: Tuple) -> "MaxState":
        return cls(payload[1])


class CountDistinctState(AggregateState):
    """Exact ``COUNT(DISTINCT column)`` — the partial is the value set itself.

    The whole point of the sketch states below: this partial *grows with the
    input cardinality*, so every distinct value is shipped up the
    aggregation tree.  Kept as the exact baseline the benchmarks and the
    "when to prefer exact" guidance compare against.
    """

    name = "count_distinct"

    def __init__(self, values=None):
        self.values = set(values or ())

    def add(self, value: Any) -> None:
        if value is None:
            return
        try:
            self.values.add(value)
        except TypeError:
            pass  # unhashable values carry no distinct information

    def merge(self, other: "CountDistinctState") -> None:
        self.values |= other.values

    def result(self) -> int:
        return len(self.values)

    def to_payload(self) -> Tuple:
        return ("count_distinct", tuple(self.values))

    @classmethod
    def from_payload(cls, payload: Tuple) -> "CountDistinctState":
        return cls(payload[1])

    def payload_bytes(self) -> int:
        return 16 + sum(_value_wire_bytes(value) for value in self.values)


class ApproxCountDistinctState(AggregateState):
    """``APPROX COUNT(DISTINCT column)`` over a HyperLogLog partial.

    ``param`` is the HLL ``log2m`` accuracy/size knob (default 12: ~1.6 %
    standard error, 3 bytes per distinct value up to 4 KiB per partial).
    """

    name = "approx_count_distinct"

    def __init__(self, sketch: Optional[HyperLogLog] = None):
        self.sketch = sketch if sketch is not None else HyperLogLog()

    @classmethod
    def create(cls, param: Any = None) -> "ApproxCountDistinctState":
        log2m = DEFAULT_LOG2M if param is None else int(param)
        return cls(HyperLogLog(log2m=log2m))

    def add(self, value: Any) -> None:
        if value is not None:
            self.sketch.add(value)

    def add_many(self, values: Sequence[Any]) -> None:
        # Registers are a max: each distinct value once, hashed in one batch.
        self.sketch.add_many([value for _type, value in _distinct_counts(values)])

    def merge(self, other: "ApproxCountDistinctState") -> None:
        self.sketch.merge(other.sketch)

    def result(self) -> int:
        return int(round(self.sketch.estimate()))

    def to_payload(self) -> Tuple:
        return ("approx_count_distinct", sketch_to_bytes(self.sketch))

    @classmethod
    def from_payload(cls, payload: Tuple) -> "ApproxCountDistinctState":
        return cls(sketch_from_bytes(payload[1]))

    def payload_bytes(self) -> int:
        return 24 + self.sketch.payload_bound()


class ApproxTopKState(AggregateState):
    """``APPROX_TOP_K(column, k)``: heavy hitters via count-min + heap.

    The result value is a tuple of ``(value, estimated_count)`` pairs,
    heaviest first.
    """

    name = "approx_top_k"

    def __init__(self, sketch: Optional[TopKSketch] = None):
        self.sketch = sketch if sketch is not None else TopKSketch()

    @classmethod
    def create(cls, param: Any = None) -> "ApproxTopKState":
        k = 10 if param is None else param
        if float(k) != int(float(k)) or int(float(k)) <= 0:
            raise QueryError(f"approx_top_k needs a positive integer k, got {k!r}")
        return cls(TopKSketch(k=int(float(k))))

    def add(self, value: Any) -> None:
        if value is not None:
            self.sketch.add(value)

    def add_many(self, values: Sequence[Any]) -> None:
        # Same grid as the row loop; same candidates while they fit the
        # capacity, scored at their one add (every merge re-scores them).
        for (_type, value), count in _distinct_counts(values).items():
            self.sketch.add(value, count)

    def merge(self, other: "ApproxTopKState") -> None:
        self.sketch.merge(other.sketch)

    def result(self) -> Tuple:
        return tuple(self.sketch.estimate())

    def to_payload(self) -> Tuple:
        return ("approx_top_k", sketch_to_bytes(self.sketch))

    @classmethod
    def from_payload(cls, payload: Tuple) -> "ApproxTopKState":
        return cls(sketch_from_bytes(payload[1]))

    def payload_bytes(self) -> int:
        return 24 + self.sketch.payload_bound()


class ApproxPercentileState(AggregateState):
    """``APPROX_PERCENTILE(column, p)`` over a KLL quantile partial.

    Non-numeric inputs are skipped (like ``sum`` over them would fail, the
    sketch simply carries no information about them); ``None`` is skipped
    like every other aggregate.
    """

    name = "approx_percentile"

    def __init__(self, sketch: Optional[KLLSketch] = None, p: float = 0.5):
        self.sketch = sketch if sketch is not None else KLLSketch()
        self.p = p

    @classmethod
    def create(cls, param: Any = None) -> "ApproxPercentileState":
        p = 0.5 if param is None else float(param)
        if not 0.0 <= p <= 1.0:
            raise QueryError(f"approx_percentile needs p in [0, 1], got {p!r}")
        return cls(p=p)

    def add(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.sketch.add(value)

    def add_many(self, values: Sequence[Any]) -> None:
        self.sketch.add_many([
            value for value in values
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ])

    def merge(self, other: "ApproxPercentileState") -> None:
        self.sketch.merge(other.sketch)

    def result(self) -> Optional[float]:
        return self.sketch.quantile(self.p)

    def to_payload(self) -> Tuple:
        return ("approx_percentile", sketch_to_bytes(self.sketch), self.p)

    @classmethod
    def from_payload(cls, payload: Tuple) -> "ApproxPercentileState":
        return cls(sketch_from_bytes(payload[1]), payload[2])

    def payload_bytes(self) -> int:
        return 24 + self.sketch.payload_bound()


#: Registry of supported aggregate functions.
AGGREGATE_FUNCTIONS = {
    "count": CountState,
    "sum": SumState,
    "avg": AvgState,
    "min": MinState,
    "max": MaxState,
    "count_distinct": CountDistinctState,
    "approx_count_distinct": ApproxCountDistinctState,
    "approx_top_k": ApproxTopKState,
    "approx_percentile": ApproxPercentileState,
}

#: Aggregates taking a second (literal) SQL argument, and what it means.
PARAMETERIZED_AGGREGATES = {
    "approx_top_k": "k",
    "approx_percentile": "p",
}


def _distinct_counts(values: Sequence[Any]) -> Dict[Tuple[type, Any], int]:
    """Multiplicity of each distinct non-null value, in first-occurrence order.

    Distinct means *type-exactly*: ``1``, ``True`` and ``1.0`` are one dict
    key but sketch differently (``True`` hashes as ``b"t"``, ``1`` as
    ``b"i1"``), so the key carries the type.  Fed each distinct value once
    (HLL) or once with its multiplicity (count-min), a sketch ends in the
    registers / counter grid of the per-row loop at one keyed hash per
    distinct value instead of one per row.
    """
    try:
        return Counter((type(value), value) for value in values
                       if value is not None)
    except TypeError as error:  # unhashable: what ``sketch.add`` would say
        raise SketchError(f"value cannot be sketched: {error}") from None


def _value_wire_bytes(value: Any) -> int:
    """Rough wire size of one raw value inside an exact-distinct partial."""
    if isinstance(value, str):
        return 6 + len(value)
    if isinstance(value, (bytes, bytearray)):
        return 6 + len(value)
    return 9  # ints, floats, bools, None: one msgpack scalar


def make_aggregate(function: str, param: Any = None) -> AggregateState:
    """Instantiate a fresh aggregate state by function name."""
    try:
        cls = AGGREGATE_FUNCTIONS[function.lower()]
    except KeyError:
        raise QueryError(
            f"unsupported aggregate function {function!r}; "
            f"expected one of {sorted(AGGREGATE_FUNCTIONS)}"
        ) from None
    try:
        return cls.create(param)
    except SketchError as error:
        raise QueryError(str(error)) from error


def state_from_payload(payload: Tuple) -> AggregateState:
    """Rebuild any aggregate state from its wire payload."""
    kind = payload[0]
    try:
        return AGGREGATE_FUNCTIONS[kind].from_payload(payload)
    except KeyError:
        raise QueryError(f"unknown aggregate payload kind {kind!r}") from None


class GroupByAggregate:
    """Hash group-by with decomposable aggregates.

    Parameters
    ----------
    group_by:
        Columns to group on (empty list → a single global group).
    aggregates:
        List of ``(function, column, alias)`` triples or ``(function,
        column, alias, param)`` quadruples; ``column`` is ``None`` for
        ``count(*)`` and ``param`` configures parameterised aggregates
        (``approx_top_k``'s ``k``, ``approx_percentile``'s ``p``).
    """

    def __init__(self, group_by: Sequence[str], aggregates: Sequence[Tuple]):
        self.group_by = list(group_by)
        self.aggregates = [self._normalize(spec) for spec in aggregates]
        self._groups: Dict[Tuple, List[AggregateState]] = {}

    @staticmethod
    def _normalize(spec: Tuple) -> Tuple[str, Optional[str], str, Any]:
        """Accept 3-tuples (legacy) or 4-tuples (with a parameter)."""
        param = spec[3] if len(spec) > 3 else None
        return (spec[0], spec[1], spec[2], param)

    def _states_for(self, key: Tuple) -> List[AggregateState]:
        if key not in self._groups:
            self._groups[key] = [
                make_aggregate(function, param)
                for function, _column, _alias, param in self.aggregates
            ]
        return self._groups[key]

    def accumulate_many(self, group_key: Tuple,
                        columns: Sequence[Sequence[Any]], count: int) -> None:
        """Chunk entry: one call per group per chunk.

        ``columns`` is aligned with :attr:`aggregates`; each entry holds the
        ``count`` input values of that aggregate for this group's rows
        (``count(*)`` slots receive constant 1s) — exactly what a row at a
        time fold (``tests/reference``) extracts by name.
        """
        states = self._states_for(group_key)
        for state, values in zip(states, columns):
            state.add_many(values)

    def merge_partial(self, group_key: Tuple, payloads: Sequence[Tuple]) -> None:
        """Fold partial states received from another node into a group."""
        states = self._states_for(tuple(group_key))
        for state, payload in zip(states, payloads):
            state.merge(state_from_payload(payload))

    def partial_payloads(self) -> Dict[Tuple, List[Tuple]]:
        """Partial states per group, serialised for shipping."""
        return {
            key: [state.to_payload() for state in states]
            for key, states in self._groups.items()
        }

    def partial_sizes(self) -> Dict[Tuple, int]:
        """Honest wire size per group's shipped partial record.

        ``32`` covers the envelope (group key, level marker, resourceID);
        each state contributes its own payload size — constant for the
        classic and sketch states, growing with cardinality for the exact
        distinct state.  The benchmarks' bytes-to-root accounting and the
        simulator's bandwidth model both consume this.
        """
        return {
            key: 32 + sum(state.payload_bytes() for state in states)
            for key, states in self._groups.items()
        }

    def result_rows(self) -> List[Dict[str, Any]]:
        """Finalised output rows (group columns + aggregate aliases)."""
        rows = []
        for key, states in self._groups.items():
            row = dict(zip(self.group_by, key))
            for state, (_function, _column, alias, _param) in zip(states, self.aggregates):
                row[alias] = state.result()
            rows.append(row)
        return rows

    @property
    def group_count(self) -> int:
        """Number of distinct groups currently held."""
        return len(self._groups)
