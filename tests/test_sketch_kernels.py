"""The batch kernels of the load's statistics against their per-value forms.

``hash64_many`` must equal ``hash64`` value for value, ``HyperLogLog.add_many``
must leave the registers, the representation and the payload bytes of one
``add`` per value (and the registers of the always-dense reference), and ``ColumnStats.from_values`` must equal the per-value
loop of ``tests/reference/load.py``, over values of every type a column can
hold: big and negative ints, booleans, integer-valued floats, ``-0.0``, NaN,
infinities, non-ASCII strings, bytes and ``None``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators.aggregate import ApproxCountDistinctState
from repro.core.stats import ColumnStats
from repro.exceptions import SketchError
from repro.sketches import HyperLogLog, hash64
from repro.sketches.base import hash64_many
from repro.sketches.hll import SPARSE_SHIFT
from tests.reference.hll_dense import DenseHyperLogLog
from tests.reference.load import column_stats

EDGES = [0, 1, -1, 2 ** 63, -(2 ** 64) - 1, 10 ** 40, True, False, 1.0, -1.0,
         0.0, -0.0, 2.0 ** 70, 1.5, float("nan"), float("inf"),
         float("-inf"), "", "é", "日本", "\U0001F600", b"", b"\xff", None]

scalars = st.one_of(
    st.integers(), st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e6, max_value=1e6).map(float.__round__).map(float),
    st.text(), st.binary(), st.none(), st.sampled_from(EDGES))


def same_float(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


@settings(max_examples=200, deadline=None)
@given(values=st.lists(scalars, max_size=40),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_hash64_many_is_hash64_per_value(values, seed):
    values += EDGES + [bytearray(b"ab")]
    assert hash64_many(values, seed) == [hash64(value, seed) for value in values]


def test_hash64_many_refuses_what_hash64_refuses():
    for value in ((1, 2), object()):
        with pytest.raises(SketchError):
            hash64(value)
        with pytest.raises(SketchError):
            hash64_many([1, value])
    assert hash64_many([]) == []


@settings(max_examples=200, deadline=None)
@given(values=st.lists(scalars, max_size=120),
       prefill=st.lists(st.integers(), max_size=40),
       log2m=st.integers(min_value=4, max_value=10))
def test_add_many_is_add_per_value(values, prefill, log2m):
    batch, looped = HyperLogLog(log2m), HyperLogLog(log2m)
    reference = DenseHyperLogLog(log2m)
    for value in prefill:  # start sparse, near the promotion, or dense
        batch.add(value)
        looped.add(value)
        reference.add(value)
    batch.add_many(values)
    for value in values:
        looped.add(value)
        reference.add(value)
    assert batch.registers == reference.registers
    # Dense exactly when more than m >> SPARSE_SHIFT registers are set.
    set_registers = len(reference.registers) - reference.registers.count(0)
    assert bool(batch._dense) == (set_registers > (1 << log2m) >> SPARSE_SHIFT)
    assert batch == looped
    assert bool(batch._dense) == bool(looped._dense)
    assert batch.to_payload() == looped.to_payload()


def test_add_many_promotes_at_most_once(monkeypatch):
    promotions = []
    promote = HyperLogLog._promote
    monkeypatch.setattr(HyperLogLog, "_promote",
                        lambda sketch: promotions.append(promote(sketch)))
    for count in (7, 8, 9, 64, 500):  # 8 of 64 registers set stays sparse
        batch, looped = HyperLogLog(6), HyperLogLog(6)
        for value in range(count):
            looped.add(value)
        del promotions[:]
        batch.add_many(range(count))
        assert len(promotions) == bool(looped._dense) <= 1
        assert batch == looped and batch.to_payload() == looped.to_payload()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(scalars, max_size=60))
def test_approx_count_distinct_add_many_is_add_per_value(values):
    batch, looped = ApproxCountDistinctState(), ApproxCountDistinctState()
    batch.add_many(values)
    for value in values:
        looped.add(value)
    assert batch.sketch.to_payload() == looped.sketch.to_payload()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(scalars, st.lists(st.integers(), max_size=2)),
                       max_size=60))
def test_column_stats_match_the_per_value_loop(values):
    got = ColumnStats.from_values(values)
    want = column_stats(values)
    assert got.distinct == want.distinct
    assert same_float(got.min_value, want.min_value)
    assert same_float(got.max_value, want.max_value)
    assert got.hll.to_payload() == want.hll.to_payload()
