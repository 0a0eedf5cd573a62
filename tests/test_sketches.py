"""Property and unit tests for the mergeable-sketch subsystem.

The distributed guarantees the aggregation tree relies on are algebraic:
merge must be commutative, associative and (for the register/counter
sketches) idempotent, and merging partials of a split stream must equal
sketching the union stream.  Hypothesis drives those laws over random
streams and split points; deterministic tests pin the accuracy contracts
(HLL ≤2 % relative error at ``log2m=12`` over 10^5 distincts, KLL rank
error within its ``O(1/k)`` bound) and the codec guards.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SketchError
from repro.sketches import (
    DEFAULT_SEED,
    MAX_SKETCH_BYTES,
    HyperLogLog,
    KLLSketch,
    TopKSketch,
    decode_value,
    encode_value,
    hash64,
    sketch_from_bytes,
    sketch_to_bytes,
)

# Scalar values every sketch input may take (hashable, codec-encodable).
scalar_values = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
)

numeric_values = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


def split_stream(values, cut_points):
    """Split one stream at sorted cut indices into consecutive chunks."""
    cuts = sorted(set(min(c, len(values)) for c in cut_points))
    chunks, start = [], 0
    for cut in cuts:
        chunks.append(values[start:cut])
        start = cut
    chunks.append(values[start:])
    return chunks


# -------------------------------------------------------------- shared hash


def test_hash64_is_seeded_and_stable():
    assert hash64("x") == hash64("x")
    assert hash64("x", seed=1) != hash64("x", seed=2)
    # Numerics hash by value (matching result-row canonicalisation)...
    assert hash64(1) == hash64(1.0)
    # ...but booleans stay distinct from integers.
    assert hash64(True) != hash64(1)


@pytest.mark.parametrize("arguments, digest", [
    (("x",), 0xC1AA0BBCEBCEA89D),
    ((1,), 0x7F722DA411EC0016),
    ((1.0,), 0x7F722DA411EC0016),
    ((True,), 0x05A3524F0720C084),
    ((None,), 0x0B57F34B1C2D82CE),
    ((2.5,), 0x43FD47B19F79F080),
    ((-7,), 0x90C879A61F6AA732),
    ((2**70,), 0x1A3DB6F346F9F87B),
    ((b"\x00\xff",), 0xF49041599A10CEA5),
    (("é",), 0x2DC96306B825DC17),
    (("x", 1), 0xE0FBA94C63CDAC1A),
    ((1, 0x9E3779B97F4A7C15), 0x2B0E327D37E32561),
])
def test_hash64_values_are_pinned(arguments, digest):
    """Every register index and count-min column of a deployment follows from
    these: keyed blake2b-64 over the type-tagged encoding, whether the key is
    set per call or once per seed and the state copied."""
    assert hash64(*arguments) == digest
    assert hash64(*arguments) == digest  # the cached keyed state is unspent


@given(st.lists(scalar_values, max_size=20))
def test_value_codec_roundtrip(values):
    for value in values:
        assert decode_value(encode_value(value)) == value


# ------------------------------------------------------------- HyperLogLog


@given(
    values=st.lists(scalar_values, max_size=300),
    cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_hll_merge_equals_union_stream(values, cuts):
    """Register-wise max makes the merged sketch *bit-identical* to one
    sketch over the concatenated stream, regardless of split points."""
    union = HyperLogLog(log2m=6)
    for value in values:
        union.add(value)
    merged = HyperLogLog(log2m=6)
    for chunk in split_stream(values, cuts):
        partial = HyperLogLog(log2m=6)
        for value in chunk:
            partial.add(value)
        merged.merge(partial)
    assert merged == union


@given(st.lists(st.lists(scalar_values, max_size=60), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_hll_merge_commutative_associative_idempotent(chunks):
    partials = []
    for chunk in chunks:
        sketch = HyperLogLog(log2m=5)
        for value in chunk:
            sketch.add(value)
        partials.append(sketch)

    forward = HyperLogLog(log2m=5)
    for partial in partials:
        forward.merge(partial)
    backward = HyperLogLog(log2m=5)
    for partial in reversed(partials):
        backward.merge(partial)
    assert forward == backward  # commutative (any order)

    # Idempotent: re-merging an already-absorbed partial changes nothing.
    again = forward.copy()
    again.merge(partials[0])
    assert again == forward


def test_hll_small_sets_near_exact():
    """Linear counting keeps tiny cardinalities within a couple of counts."""
    sketch = HyperLogLog(log2m=10)
    for i in range(50):
        sketch.add(f"v{i}")
    assert abs(sketch.estimate() - 50) <= 2
    tiny = HyperLogLog(log2m=10)
    for i in range(6):
        tiny.add(i)
    assert int(round(tiny.estimate())) == 6


def test_hll_two_percent_error_at_1e5():
    """The acceptance bound: ≤2 % relative error at log2m=12 over 10^5."""
    sketch = HyperLogLog(log2m=12)
    n = 100_000
    for i in range(n):
        sketch.add(i)
    error = abs(sketch.estimate() - n) / n
    assert error <= 0.02, f"relative error {error:.4f} exceeds 2%"


def test_hll_payload_is_fixed_size():
    """By size: proportional to the set registers, fixed from the point where
    the sparse form stops being smaller (3 bytes an entry against 4096)."""
    sketch = HyperLogLog(log2m=12)
    dense_size = 1 + 9 + 4096
    sizes = []
    for i in range(10_000):
        sketch.add(i)
        if i % 100 == 99:
            sizes.append(len(sketch_to_bytes(sketch)))
            assert sizes[-1] == sketch.payload_bound() + 1
    assert sizes == sorted(sizes) and sizes[0] < 400  # non-decreasing
    assert max(sizes) == dense_size  # never above the dense form ...
    flat_from = sizes.index(dense_size)
    assert set(sizes[flat_from:]) == {dense_size}  # ... and flat once there
    assert sum(1 for rank in sketch.registers if rank) >= (4096 - 2) // 3


def test_hll_incompatible_merge_rejected():
    with pytest.raises(SketchError):
        HyperLogLog(log2m=4).merge(HyperLogLog(log2m=5))
    with pytest.raises(SketchError):
        HyperLogLog(seed=1).merge(HyperLogLog(seed=2))
    with pytest.raises(SketchError):
        HyperLogLog().merge(KLLSketch())  # type: ignore[arg-type]


# ------------------------------------------------------------------- top-k


@given(
    values=st.lists(st.integers(min_value=0, max_value=30), max_size=200),
    cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_topk_counter_grid_merge_equals_union_stream(values, cuts):
    """Entry-wise addition: the merged counter grid is exactly the grid of
    the concatenated stream (point estimates therefore identical)."""
    union = TopKSketch(k=5, width=32, depth=2)
    for value in values:
        union.add(value)
    merged = TopKSketch(k=5, width=32, depth=2)
    for chunk in split_stream(values, cuts):
        partial = TopKSketch(k=5, width=32, depth=2)
        for value in chunk:
            partial.add(value)
        merged.merge(partial)
    assert merged.rows == union.rows
    assert all(merged.point(v) == union.point(v) for v in set(values))


def test_topk_finds_heavy_hitters_across_partials():
    """A value light in every partial but globally heavy must surface."""
    partials = []
    for node in range(8):
        sketch = TopKSketch(k=3, width=256, depth=4)
        sketch.add("heavy", 5)  # 40 total, but only 5 per node
        sketch.add(f"local-{node}", 30)  # locally dominant noise
        partials.append(sketch)
    merged = TopKSketch(k=3, width=256, depth=4)
    for partial in partials:
        merged.merge(partial)
    top = merged.estimate()
    assert top[0] == ("heavy", 40)


def test_topk_skewed_distribution_exact():
    sketch = TopKSketch(k=4, width=512, depth=4)
    truth = {"a": 500, "b": 300, "c": 200, "d": 100, "e": 5, "f": 3}
    for value, count in truth.items():
        sketch.add(value, count)
    assert sketch.estimate() == [("a", 500), ("b", 300), ("c", 200), ("d", 100)]


def test_topk_candidate_set_is_bounded():
    sketch = TopKSketch(k=2, width=64, depth=2)
    for i in range(5000):
        sketch.add(i)
    assert len(sketch.candidates) <= sketch.capacity
    payload = sketch_to_bytes(sketch)
    sketch2 = TopKSketch(k=2, width=64, depth=2)
    for i in range(50):
        sketch2.add(i)
    # Payload size is bounded by configuration, not stream length.
    assert len(payload) <= len(sketch_to_bytes(sketch2)) + sketch.capacity * 32


# --------------------------------------------------------------------- KLL


@given(
    values=st.lists(numeric_values, min_size=1, max_size=400),
    cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_kll_merged_quantiles_within_rank_bound(values, cuts):
    """KLL merges are only *approximately* order-insensitive: every merge
    shape must satisfy the rank-error bound against the true sorted data."""
    merged = KLLSketch(k=64)
    for chunk in split_stream(values, cuts):
        partial = KLLSketch(k=64)
        for value in chunk:
            partial.add(value)
        merged.merge(partial)
    assert merged.total_weight() == len(values)
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    epsilon = 3.0 / 64  # generous c/k bound for the derandomised coin
    for p in (0.1, 0.5, 0.9):
        estimate = merged.quantile(p)
        true_rank = sum(1 for v in ordered if v <= estimate) / n
        low_rank = sum(1 for v in ordered if v < estimate) / n
        assert low_rank - epsilon <= p <= true_rank + epsilon


def test_kll_rank_error_bound_at_1e5():
    sketch = KLLSketch(k=200)
    n = 100_000
    for i in range(n):
        sketch.add(i)
    for p in (0.01, 0.25, 0.5, 0.75, 0.99):
        estimate = sketch.quantile(p)
        observed_rank = (estimate + 1) / n
        assert abs(observed_rank - p) <= 1.5 / 200 + 1e-9, (
            f"rank error at p={p}: got {observed_rank}"
        )


def test_kll_payload_is_bounded():
    small = KLLSketch(k=200)
    for i in range(100):
        small.add(i)
    big = KLLSketch(k=200)
    for i in range(200_000):
        big.add(i)
    # ~3k values plus a logarithmic tail, far below linear growth.
    assert len(sketch_to_bytes(big)) < 8 * (3 * 200 + 64 * 8)


def test_kll_rejects_non_numeric():
    sketch = KLLSketch()
    with pytest.raises(SketchError):
        sketch.add("text")
    with pytest.raises(SketchError):
        sketch.add(True)


# ----------------------------------------------------------------- codecs


@pytest.mark.parametrize("build", [
    lambda: HyperLogLog(log2m=7),
    lambda: TopKSketch(k=4, width=128, depth=3),
    lambda: KLLSketch(k=32),
])
def test_sketch_bytes_roundtrip(build):
    sketch = build()
    for i in range(500):
        sketch.add(i % 97)
    restored = sketch_from_bytes(sketch_to_bytes(sketch))
    assert restored == sketch


def test_sketch_codec_guards():
    with pytest.raises(SketchError):
        sketch_from_bytes(b"")
    with pytest.raises(SketchError):
        sketch_from_bytes(bytes([250]) + b"junk")  # unknown tag
    with pytest.raises(SketchError):
        sketch_from_bytes(bytes([1]))  # truncated HLL header
    with pytest.raises(SketchError):
        sketch_from_bytes(b"\x01" + b"\x00" * (MAX_SKETCH_BYTES + 1))
    # Trailing garbage after a valid payload is refused, not ignored.
    blob = sketch_to_bytes(HyperLogLog(log2m=4))
    with pytest.raises(SketchError):
        sketch_from_bytes(blob + b"\x00")


def test_shared_seed_means_identical_estimates():
    """Two 'nodes' sketching the same multiset agree bit-for-bit — the
    property the simulator-vs-real-TCP gate depends on."""
    node_a = HyperLogLog()
    node_b = HyperLogLog()
    for i in range(1000):
        node_a.add(i)
    for i in reversed(range(1000)):
        node_b.add(i)
    assert node_a == node_b
    assert node_a.seed == node_b.seed == DEFAULT_SEED
