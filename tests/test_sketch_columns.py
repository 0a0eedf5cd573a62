"""Column-wise sketch accumulation is the per-row loop, byte for byte.

``ApproxCountDistinctState``, ``ApproxTopKState`` and ``ApproxPercentileState``
take a chunk's column in one ``add_many``: HLL sees each distinct value once,
count-min each distinct value once with its multiplicity, KLL fills level 0 up
to the point where a single ``add`` would compact.  The shipped partial —
``to_payload()`` — must equal the one the base class's per-row loop builds.

Distinct means *type-exactly* distinct: ``1``, ``True`` and ``1.0`` are one
dict key but ``True`` hashes as ``b"t"`` and ``1`` as ``b"i1"``; a dedupe on
bare equality feeds the sketch ``1`` where the per-row loop fed it both.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operators.aggregate import (
    AggregateState,
    ApproxCountDistinctState,
    ApproxPercentileState,
    ApproxTopKState,
)
from repro.exceptions import SketchError
from repro.sketches import KLLSketch
from repro.sketches.base import encode_value

#: Equal-but-different values on purpose, next to plain repeats.
TRICKY = [None, 1, True, 1.0, 0, False, -0.0, 0.0, 2, 2.5, "1", "a", "b", "", b"a"]
VALUES = st.one_of(
    st.sampled_from(TRICKY), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="ab1", max_size=2))
#: Repeats, few distinct values (the candidate capacity is 32), or none equal.
COLUMNS = st.one_of(
    st.lists(VALUES, max_size=30),
    st.lists(st.sampled_from(TRICKY), max_size=60),
    st.lists(st.integers(), unique=True, max_size=30))

STATES = {
    "hll": lambda: ApproxCountDistinctState.create(6),
    "topk": lambda: ApproxTopKState.create(3),
    "kll": lambda: ApproxPercentileState.create(0.5),
}


def per_row(make, column):
    state = make()
    AggregateState.add_many(state, column)  # the base loop: add() per value
    return state


def column_wise(make, column):
    state = make()
    state.add_many(column)
    return state


def merged(make, partials):
    state = make()
    for partial in partials:
        state.merge(type(state).from_payload(partial.to_payload()))
    return state


def mixes_a_bool_with_its_number(column):
    return any(isinstance(value, bool) and any(
        value == other and not isinstance(other, bool) for other in column
        if other is not None) for value in column)


@pytest.mark.parametrize("kind", ["hll", "kll"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(first=COLUMNS, second=COLUMNS)
def test_add_many_ships_the_payload_of_the_per_row_loop(kind, first, second):
    make = STATES[kind]
    looped = [per_row(make, first), per_row(make, second)]
    bulk = [column_wise(make, first), column_wise(make, second)]
    for one, other in zip(looped, bulk):
        assert one.to_payload() == other.to_payload()
    assert merged(make, looped).to_payload() == merged(make, bulk).to_payload()
    # A second chunk of the same group lands on the same partial.
    again = column_wise(make, first)
    again.add_many(second)
    assert again.to_payload() == per_row(make, first + second).to_payload()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(first=COLUMNS, second=COLUMNS)
def test_top_k_add_many_ships_the_payload_of_the_per_row_loop(first, second):
    """The count-min grid always; the candidate set — same values, same
    order, type-exactly — always; its estimates whenever no ``True`` sits
    beside a ``1`` (the candidate dict keys the two as one value and keeps
    the estimate of whichever it saw last: of the row loop's last occurrence,
    of the column's last first-occurrence) and after any merge, which
    re-scores every candidate against the (identical) grid."""
    make = STATES["topk"]
    looped = [per_row(make, first), per_row(make, second)]
    bulk = [column_wise(make, first), column_wise(make, second)]
    for column, one, other in zip((first, second), looped, bulk):
        assert one.sketch.rows == other.sketch.rows
        assert ([encode_value(value) for value in one.sketch.candidates]
                == [encode_value(value) for value in other.sketch.candidates])
        if not mixes_a_bool_with_its_number(column):
            assert one.to_payload() == other.to_payload()
    assert merged(make, looped).to_payload() == merged(make, bulk).to_payload()


def test_the_dedupe_is_type_exact():
    """``[1, True]`` is two values to every sketch and one dict key."""
    for kind, make in STATES.items():
        for column in ([1, True], [True, 1.0, 1], [0, False, -0.0], [False, 0.0]):
            if kind == "topk":
                assert (per_row(make, column).sketch.rows
                        == column_wise(make, column).sketch.rows)
            else:
                assert (per_row(make, column).to_payload()
                        == column_wise(make, column).to_payload())
    hll = column_wise(STATES["hll"], [1, True, 1.0])
    assert hll.to_payload() != column_wise(STATES["hll"], [1, 1.0]).to_payload()
    assert hll.result() == 2  # 1 and 1.0 are one number, True is a boolean


# ----------------------------------------------------------------- KLL bulk add

K = 8  # capacities 8, 6, 4, 3, 2, 2 ... : a few hundred values make many levels


def capacity(sketch):
    return sketch._capacity(0, len(sketch.levels))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stream=st.lists(st.floats(-1e6, 1e6) | st.integers(-50, 50), max_size=400),
       lengths=st.lists(st.sampled_from([0, 1, 2, K - 1, K, K + 1, 3 * K, 100]),
                        max_size=12))
def test_kll_bulk_add_equals_the_value_loop_for_every_split(stream, lengths):
    looped, bulk = KLLSketch(k=K), KLLSketch(k=K)
    for value in stream:
        looped.add(value)
    start = 0
    for length in lengths + [len(stream)]:
        bulk.add_many(stream[start:start + length])
        start += length
    assert bulk.to_payload() == looped.to_payload()
    assert bulk.total_weight() == len(stream)


@pytest.mark.parametrize("prefix", [0, 1, K, K + 1, 40, 333])
@pytest.mark.parametrize("length", [0, 1, K, K + 1, 40, 333])
def test_kll_bulk_add_at_the_compaction_boundaries(prefix, length):
    """A bulk add of ``length`` values onto a sketch that already holds
    ``prefix``: empty, exactly full, one over, and many levels deep."""
    values = [float((i * 7919) % 1000) for i in range(prefix + length)]
    looped, bulk = KLLSketch(k=K), KLLSketch(k=K)
    for value in values:
        looped.add(value)
    bulk.add_many(values[:prefix])
    assert len(bulk.levels[0]) <= capacity(bulk)
    bulk.add_many(iter(values[prefix:]))  # any iterable
    assert bulk.to_payload() == looped.to_payload()


def test_kll_bulk_add_onto_a_decoded_sketch_outside_its_capacities():
    """``from_payload`` accepts levels ``add`` would never leave behind; the
    first value of a bulk add compacts them exactly as a single add would."""
    overfull = KLLSketch(k=K, levels=[[1.0, 2.0, 3.0], [float(i) for i in range(20)]])
    looped = KLLSketch.from_payload(overfull.to_payload())
    bulk = KLLSketch.from_payload(overfull.to_payload())
    values = [float(i % 13) for i in range(50)]
    for value in values:
        looped.add(value)
    bulk.add_many(values)
    assert bulk.to_payload() == looped.to_payload()


def test_kll_bulk_add_rejects_a_non_numeric_value_before_absorbing_any():
    sketch = KLLSketch(k=K)
    for bad in ("x", True, None):
        with pytest.raises(SketchError):
            sketch.add_many([1.0, 2.0, bad])
    assert sketch.total_weight() == 0
