"""The sized HyperLogLog is the always-dense one, bit for bit.

``repro.sketches.HyperLogLog`` holds a sparse ``index -> rank`` map until
more than ``m / 8`` registers are set, then the dense file, and ships the
smaller of a sparse and the dense wire form.  None of that may be visible:
against ``tests/reference/hll_dense.py`` (the register loops it replaced)
generated streams cut into random merge trees must give the same registers
after every step, the same estimate, and — new with the sized form — the same
*bytes* for every tree shape and add order of one multiset.  The statistics
fold on top (``ColumnStats.from_values`` / ``merge``) must keep the parent's
registers and ``distinct`` while hashing each type-exact value once and
mutating no partial it was handed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import STATS_HLL_LOG2M, ColumnStats, RelationStats
from repro.net.wire import pack, unpack
from repro.sketches import HyperLogLog, sketch_from_bytes, sketch_to_bytes
from repro.sketches.hll import SPARSE_SHIFT
from tests.reference.hll_dense import DenseHyperLogLog
from tests.test_stats import make_relation, rows_for

IDENTITY = settings(max_examples=150, deadline=None, derandomize=True)

#: Equal-but-different values next to plain ones (``hash64`` unifies ``1`` and
#: ``1.0`` but not ``True``), ``None``, repeats and long all-distinct runs.
TRICKY = [None, 1, True, 1.0, 0, False, 0.0, -0.0, 2, 2.5, "1", "a", "", b"a"]
VALUES = st.one_of(st.sampled_from(TRICKY), st.integers(-5, 5),
                   st.integers(), st.text(max_size=6))
STREAMS = st.one_of(
    st.lists(VALUES, max_size=80),
    st.lists(st.sampled_from(TRICKY), max_size=40),
    st.lists(st.integers(), unique=True, min_size=100, max_size=700))
LOG2M = st.sampled_from([4, 10, 12])


def is_dense(sketch: HyperLogLog) -> bool:
    return bool(sketch._dense)


def limit(log2m: int) -> int:
    return (1 << log2m) >> SPARSE_SHIFT


def canonical_payload(reference: DenseHyperLogLog) -> bytes:
    """The bytes a register file must ship as, from the file alone."""
    m, width = 1 << reference.log2m, 2 if reference.log2m <= 16 else 4
    entries = [(i, rank) for i, rank in enumerate(reference.registers) if rank]
    if width + (width + 1) * len(entries) >= m:
        return reference.to_payload()
    out = bytearray([reference.log2m | 0x80]) + reference.seed.to_bytes(8, "big")
    out += len(entries).to_bytes(width, "big")
    for index, rank in entries:
        out += index.to_bytes(width, "big") + bytes([rank])
    return bytes(out)


def assert_same(sketch: HyperLogLog, reference: DenseHyperLogLog) -> None:
    assert sketch.registers == reference.registers
    set_registers = len(reference.registers) - reference.registers.count(0)
    assert is_dense(sketch) == (set_registers > limit(sketch.log2m))
    got, want = sketch.estimate(), reference.estimate()
    assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert round(got) == round(want)
    payload = sketch.to_payload()
    assert payload == canonical_payload(reference)
    assert sketch.payload_bound() == len(payload)


def build_pair(log2m, values):
    sketch, reference = HyperLogLog(log2m), DenseHyperLogLog(log2m)
    for value in values:
        sketch.add(value)
        reference.add(value)
    return sketch, reference


def merge_tree(data, pairs):
    """Fold ``(sketch, reference)`` leaves pairwise in a drawn order."""
    pairs = list(pairs)
    while len(pairs) > 1:
        into = pairs.pop(data.draw(st.integers(0, len(pairs) - 1)))
        other = pairs.pop(data.draw(st.integers(0, len(pairs) - 1)))
        sketch, reference = into[0].copy(), into[1].copy()
        sketch.merge(other[0])
        reference.merge(other[1])
        assert_same(sketch, reference)
        assert_same(other[0], other[1])  # the merged-in side is untouched
        pairs.append((sketch, reference))
    return pairs[0]


def cut(data, values):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=5)))
    return [values[a:b] for a, b in zip([0] + cuts, cuts + [len(values)])]


# ------------------------------------------------------------ the identity


@IDENTITY
@given(stream=st.lists(VALUES, max_size=60), log2m=LOG2M)
def test_registers_estimate_and_bytes_after_every_add(stream, log2m):
    sketch, reference = HyperLogLog(log2m), DenseHyperLogLog(log2m)
    assert_same(sketch, reference)
    for value in stream:
        sketch.add(value)
        reference.add(value)
        assert_same(sketch, reference)


@IDENTITY
@given(data=st.data(), stream=STREAMS, log2m=LOG2M)
def test_any_merge_tree_is_the_dense_reference(data, stream, log2m):
    leaves = [build_pair(log2m, chunk) for chunk in cut(data, stream)]
    for sketch, reference in leaves:
        assert_same(sketch, reference)
    root, reference = merge_tree(data, leaves)
    whole, whole_reference = build_pair(log2m, stream)
    assert root == whole and reference.registers == whole_reference.registers


@IDENTITY
@given(data=st.data(), stream=STREAMS, log2m=LOG2M)
def test_bytes_depend_on_the_multiset_only(data, stream, log2m):
    """Any add order, any cut, any tree shape: one payload."""
    want = build_pair(log2m, stream)[0].to_payload()
    shuffled = data.draw(st.permutations(stream))
    assert build_pair(log2m, shuffled)[0].to_payload() == want
    leaves = [build_pair(log2m, chunk) for chunk in cut(data, shuffled)]
    assert merge_tree(data, leaves)[0].to_payload() == want
    assert build_pair(log2m, list(stream) + list(shuffled))[0].to_payload() == want


@IDENTITY
@given(stream=STREAMS, log2m=LOG2M)
def test_round_trips_through_the_codec_and_the_wire(stream, log2m):
    sketch, reference = build_pair(log2m, stream)
    blob = sketch_to_bytes(sketch)
    for restored in (sketch_from_bytes(blob), unpack(pack(sketch)),
                     HyperLogLog(log2m, sketch.seed, sketch.registers)):
        assert restored == sketch
        assert sketch_to_bytes(restored) == blob
        assert_same(restored, reference)


# ------------------------------------------------- pairings and the boundary


def with_set_registers(log2m, indices, rank=1):
    """A sketch (and reference) with exactly these registers at ``rank``."""
    shift = 64 - log2m
    sketch, reference = HyperLogLog(log2m), DenseHyperLogLog(log2m)
    for index in indices:
        hashed = (index << shift) | (1 << (shift - rank))
        sketch.add_hash(hashed)
        reference.add_hash(hashed)
    return sketch, reference


@pytest.mark.parametrize("log2m", [4, 10, 12])
def test_promotion_boundary(log2m):
    edge = limit(log2m)
    for count in (edge - 1, edge, edge + 1):
        sketch, reference = with_set_registers(log2m, range(count))
        assert is_dense(sketch) == (count > edge)
        assert_same(sketch, reference)
    # One-way: a merge or an add that sets nothing new keeps the form, and
    # the dense form never goes back.
    sketch, reference = with_set_registers(log2m, range(edge))
    sketch.merge(sketch.copy())
    assert not is_dense(sketch)
    sketch.add_hash(edge << (64 - log2m) | 1)
    reference.add_hash(edge << (64 - log2m) | 1)
    assert is_dense(sketch)
    assert_same(sketch, reference)


@pytest.mark.parametrize("log2m", [4, 10, 12])
@pytest.mark.parametrize("mine_dense", [False, True])
@pytest.mark.parametrize("theirs_dense", [False, True])
def test_the_four_merge_pairings(log2m, mine_dense, theirs_dense):
    m, edge = 1 << log2m, limit(log2m)
    mine = with_set_registers(
        log2m, range(0, m, 2) if mine_dense else range(edge), rank=2)
    theirs = with_set_registers(
        log2m, range(m // 4, m) if theirs_dense else range(edge - 1, 2 * edge - 1),
        rank=3 if theirs_dense else 1)
    assert (is_dense(mine[0]), is_dense(theirs[0])) == (mine_dense, theirs_dense)
    before = theirs[0].to_payload()
    mine[0].merge(theirs[0])
    mine[1].merge(theirs[1])
    assert_same(*mine)
    assert theirs[0].to_payload() == before
    assert is_dense(mine[0]) == (mine_dense or theirs_dense or edge > 1)


def test_dense_into_dense_keeps_the_larger_rank_in_every_lane():
    """The lane arithmetic at its edges: rank 0 and the top rank, both ways."""
    log2m = 4
    top = 64 - log2m + 1
    ranks_a = [0, top, 1, top, 0, 5, 5, 6] * 2
    ranks_b = [top, 0, top, 1, 0, 5, 6, 5] * 2
    a = HyperLogLog(log2m, registers=bytearray(ranks_a))
    b = HyperLogLog(log2m, registers=bytearray(ranks_b))
    assert is_dense(a) and is_dense(b)
    a.merge(b)
    assert a.registers == bytearray(map(max, ranks_a, ranks_b))


# ------------------------------------------------------------------ aliasing


def test_copy_shares_nothing():
    for count in (5, 400):  # a sparse and a dense log2m=10 sketch
        original, _ = build_pair(STATS_HLL_LOG2M, range(count))
        stored = sketch_to_bytes(original)
        clone = original.copy()
        assert clone == original
        for value in range(1000, 1400):
            clone.add(value)
        clone.merge(build_pair(STATS_HLL_LOG2M, range(2000, 2300))[0])
        assert sketch_to_bytes(original) == stored
        assert clone != original


# ------------------------------------------------------ the statistics fold


def reference_column(values):
    """The parent's ``from_values``: every hashable value, row by row."""
    reference, seen = DenseHyperLogLog(STATS_HLL_LOG2M), set()
    for value in values:
        try:
            seen.add(value)
        except TypeError:
            continue
        reference.add(value)
    return reference, len(seen)


def reference_merged_distinct(left, right, merged: ColumnStats) -> int:
    """The parent's ``ColumnStats.merge`` arithmetic over the dense loops."""
    (left_hll, left_distinct), (right_hll, right_distinct) = left, right
    union = left_hll.copy()
    union.merge(right_hll)
    distinct = max(int(round(union.estimate())), left_distinct, right_distinct)
    low, high = merged.min_value, merged.max_value
    if (low is not None and high is not None
            and float(low).is_integer() and float(high).is_integer()):
        distinct = min(distinct, int(high) - int(low) + 1)
    return distinct


COLUMNS = st.one_of(
    st.lists(VALUES, max_size=40),
    st.lists(st.sampled_from(TRICKY + [["unhashable"]]), max_size=30),
    st.lists(st.integers(0, 2000), max_size=300))


@IDENTITY
@given(left=COLUMNS, right=COLUMNS)
def test_column_stats_fold_is_the_parents(left, right):
    partials = [ColumnStats.from_values(values) for values in (left, right)]
    references = [reference_column(values) for values in (left, right)]
    for partial, (reference, distinct) in zip(partials, references):
        assert partial.distinct == distinct
        assert partial.hll.registers == reference.registers
    stored = [sketch_to_bytes(partial.hll) for partial in partials]
    merged = partials[0].merge(partials[1])
    assert merged.distinct == reference_merged_distinct(*references, merged)
    # Copy-on-write: both partials are aliased by stored items.
    assert [sketch_to_bytes(partial.hll) for partial in partials] == stored
    assert merged.hll is not partials[0].hll


def test_stats_corpora_keep_the_parents_distinct():
    """The value sets of ``tests/test_stats.py``, folded both ways."""
    corpora = [
        ([3, 1, 4, 1, 5, 9, 2, 6], ["a", "b", "a", ["unhashable"]]),
        ([0, 1, 2, 3], [2, 3, 4, 5]),
        ([f"v{i}" for i in range(50)], [f"v{i}" for i in range(25, 75)]),
        ([f"v{i}" for i in range(20)], [1, True, 1.0, None]),
        (list(range(600)), list(range(300, 1200))),  # dense on both sides
    ]
    for left, right in corpora:
        for first, second in ((left, right), (right, left)):
            merged = ColumnStats.from_values(first).merge(
                ColumnStats.from_values(second))
            assert merged.distinct == reference_merged_distinct(
                reference_column(first), reference_column(second), merged)
    relation = make_relation()
    halves = (rows_for(range(5)), rows_for(range(5, 12)))
    merged = RelationStats.from_rows(relation, halves[0]).merge(
        RelationStats.from_rows(relation, halves[1]))
    for column in ("id", "value", "label"):
        sides = [reference_column([row[column] for row in rows])
                 for rows in halves]
        assert merged.columns[column].distinct == reference_merged_distinct(
            *sides, merged.columns[column])
