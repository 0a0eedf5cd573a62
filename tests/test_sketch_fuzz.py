"""Hostile input to the sketch decoders (``sketch_from_bytes``).

Recorded payloads of every form — sparse and dense HyperLogLog, sparse and
dense count-min grid, the top-k candidate list, KLL — are cut at every prefix
and corrupted at every byte; forged counts, indices, ranks and dimensions
follow.  A decoder either returns a sketch or raises :class:`SketchError`,
nothing else; it validates before it allocates, so a few forged bytes never
buy more memory than ``MAX_SKETCH_BYTES``; and the two sized forms are
*canonical*: whatever is accepted re-encodes to the bytes it came from, so an
unsorted, duplicated, zero-valued or wrongly-sized sparse payload is refused,
not normalised.
"""

from __future__ import annotations

import struct
import tracemalloc

import pytest

from repro.exceptions import SketchError
from repro.net.wire import WireError, pack, unpack
from repro.sketches import (
    MAX_SKETCH_BYTES,
    HyperLogLog,
    KLLSketch,
    TopKSketch,
    encode_value,
    sketch_from_bytes,
    sketch_to_bytes,
)

HLL_TAG, TOPK_TAG = b"\x01", b"\x02"
SEED = struct.pack(">Q", 7)


def filled(sketch, values):
    for value in values:
        sketch.add(value)
    return sketch


RECORDED = {
    "hll-sparse": filled(HyperLogLog(log2m=10), ["a", 1, None, 2.5, True]),
    "hll-dense": filled(HyperLogLog(log2m=5), range(200)),
    "countmin-sparse": filled(TopKSketch(k=2, width=16, depth=2), [1, "x", 1]),
    "countmin-dense": filled(TopKSketch(k=2, width=4, depth=2), range(40)),
    "topk-candidates": filled(TopKSketch(k=3, width=8, depth=1),
                              [None, True, -7, 2.5, "é", b"\x00\xff", "é"]),
    "kll": filled(KLLSketch(k=8), [float(i) for i in range(50)]),
}


def test_the_recorded_payloads_cover_every_form():
    blobs = {name: sketch_to_bytes(sketch) for name, sketch in RECORDED.items()}
    assert blobs["hll-sparse"][1] & 0x80 and not blobs["hll-dense"][1] & 0x80
    depth_field = slice(7, 9)  # tag, u32 k, u16 width, then u16 depth
    assert blobs["countmin-sparse"][depth_field] == b"\x80\x02"
    assert blobs["countmin-dense"][depth_field] == b"\x00\x02"
    assert len(RECORDED["topk-candidates"].candidates) == 6
    assert len(RECORDED["kll"].levels) > 1
    for name, sketch in RECORDED.items():
        assert sketch_from_bytes(blobs[name]) == sketch


def grid_bytes(blob: bytes, sketch: TopKSketch) -> bytes:
    """A top-k blob without its candidate list (which is not canonical: a
    duplicate candidate decodes to one)."""
    tail = 2 + sum(10 + len(encode_value(v)) for v in sketch.candidates)
    return blob[:len(blob) - tail]


def decode_or_refuse(blob: bytes):
    """Decode; anything but a sketch or a ``SketchError`` fails the test."""
    try:
        sketch = sketch_from_bytes(blob)
    except SketchError:
        return None
    again = sketch_to_bytes(sketch)
    if isinstance(sketch, HyperLogLog):
        assert again == blob, "accepted a non-canonical HyperLogLog payload"
    elif isinstance(sketch, TopKSketch):
        assert grid_bytes(again, sketch) == blob[:len(grid_bytes(again, sketch))]
    return sketch


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_every_prefix_is_refused(name):
    blob = sketch_to_bytes(RECORDED[name])
    for length in range(len(blob)):
        with pytest.raises(SketchError):
            sketch_from_bytes(blob[:length])
    with pytest.raises(SketchError):
        sketch_from_bytes(blob + b"\x00")


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_every_single_byte_corruption_decodes_or_raises_sketch_error(name):
    blob = sketch_to_bytes(RECORDED[name])
    survivors = 0
    for position in range(len(blob)):
        for flip in (0x01, 0x80, 0xFF):
            corrupted = bytearray(blob)
            corrupted[position] ^= flip
            survivors += decode_or_refuse(bytes(corrupted)) is not None
        for value in (0x00, 0xFF):
            corrupted = bytearray(blob)
            corrupted[position] = value
            decode_or_refuse(bytes(corrupted))
    assert survivors  # e.g. a flipped seed bit is still a sketch


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_the_wire_ext_raises_wire_error_only(name):
    frame = pack(RECORDED[name])
    assert unpack(frame) == RECORDED[name]
    for position in range(3, len(frame)):  # past the ext header
        corrupted = bytearray(frame)
        corrupted[position] ^= 0xFF
        try:
            unpack(bytes(corrupted))
        except WireError:
            pass


# ------------------------------------------------------------- forged: HLL


def hll_sparse(log2m, entries, count=None, width=2, flag=0x80):
    count = len(entries) if count is None else count
    body = b"".join(index.to_bytes(width, "big") + bytes([rank])
                    for index, rank in entries)
    return (HLL_TAG + bytes([log2m | flag]) + SEED
            + count.to_bytes(width, "big") + body)


def test_a_well_formed_sparse_hll_payload_decodes():
    sketch = sketch_from_bytes(hll_sparse(10, [(3, 1), (9, 55), (1023, 2)]))
    assert sketch.log2m == 10 and sketch.seed == 7
    assert {i: r for i, r in enumerate(sketch.registers) if r} == {
        3: 1, 9: 55, 1023: 2}
    wide = sketch_from_bytes(hll_sparse(17, [(70_000, 1)], width=4))
    assert wide.registers[70_000] == 1


@pytest.mark.parametrize("blob", [
    hll_sparse(10, [(9, 1), (3, 1)]),                  # unsorted
    hll_sparse(10, [(3, 1), (3, 2)]),                  # duplicate index
    hll_sparse(10, [(3, 0)]),                          # rank 0
    hll_sparse(10, [(3, 56)]),                         # rank above 64-10+1
    hll_sparse(10, [(1024, 1)]),                       # index == m
    hll_sparse(10, [(3, 1)], count=2),                 # count beyond the entries
    hll_sparse(10, [(3, 1), (4, 1)], count=1),         # trailing entry
    hll_sparse(10, [], count=0xFFFF),                  # forged count
    hll_sparse(10, [(i, 1) for i in range(341)]),      # 2 + 3n >= m: dense-sized
    hll_sparse(4, [(i, 1) for i in range(5)]),         # the same at m = 16
    hll_sparse(17, [(3, 1)], width=2),                 # 16-bit entries above 2**16
    hll_sparse(10, [(3, 1)], width=4),                 # 32-bit entries below it
    hll_sparse(10, [(3, 1)], flag=0xC0),               # unknown flag bits
    hll_sparse(10, [(3, 1)], flag=0xA0),
    hll_sparse(3, []), hll_sparse(19, [], width=4),    # log2m out of range
    HLL_TAG + bytes([10]) + SEED + bytes(1024),        # dense and empty
    HLL_TAG + bytes([4]) + SEED + bytes([1] * 4 + [0] * 12),   # dense, 4 set
    HLL_TAG + bytes([4]) + SEED + bytes([62] + [1] * 15),      # dense rank 62
    HLL_TAG + bytes([10]) + SEED + bytes([1] * 1023),  # one register short
    HLL_TAG + bytes([0x90]) + SEED,                    # sparse, no count
], ids=lambda blob: blob[:14].hex())
def test_forged_hll_payloads_are_refused_not_normalised(blob):
    with pytest.raises(SketchError):
        sketch_from_bytes(blob)


def test_the_dense_hll_form_is_accepted_exactly_from_its_threshold():
    def dense(set_registers):
        return (HLL_TAG + bytes([4]) + SEED
                + bytes([1] * set_registers + [0] * (16 - set_registers)))
    # m = 16: the sparse form (2 + 3n) is smaller up to n = 4.
    with pytest.raises(SketchError):
        sketch_from_bytes(dense(4))
    assert sketch_to_bytes(sketch_from_bytes(dense(5))) == dense(5)
    four = sketch_from_bytes(hll_sparse(4, [(i, 1) for i in range(4)]))
    assert sketch_to_bytes(four) == hll_sparse(4, [(i, 1) for i in range(4)])
    assert four._dense  # in memory it is past m / 8 = 2 set registers


# ------------------------------------------------------- forged: count-min


def countmin(width, depth, cells=None, grid=None, count=None, k=1,
             candidates=b"\x00\x00"):
    if grid is not None:
        body = struct.pack(f">{len(grid)}Q", *grid)
    else:
        count = len(cells) if count is None else count
        body = struct.pack(">I", count) + b"".join(
            struct.pack(">IQ", cell, value) for cell, value in cells)
        depth |= 0x8000
    return (TOPK_TAG + struct.pack(">IHH", k, width, depth) + SEED + body
            + candidates)


def test_a_well_formed_sparse_grid_decodes():
    sketch = sketch_from_bytes(countmin(16, 2, [(0, 5), (17, 2), (31, 1)]))
    assert sketch.rows[0][0] == 5 and sketch.rows[1][1] == 2
    assert sketch.rows[1][15] == 1 and sum(map(sum, sketch.rows)) == 8


@pytest.mark.parametrize("blob", [
    countmin(16, 2, [(17, 2), (0, 5)]),                # unsorted
    countmin(16, 2, [(5, 1), (5, 1)]),                 # duplicate cell
    countmin(16, 2, [(5, 0)]),                         # zero counter listed
    countmin(16, 2, [(32, 1)]),                        # cell == width * depth
    countmin(16, 2, [(5, 1)], count=2),                # count beyond the cells
    countmin(16, 2, [], count=0xFFFFFFFF),             # forged count
    countmin(16, 2, [(i, 1) for i in range(21)]),      # 4 + 12n >= 256: dense-sized
    countmin(16, 2, grid=[0] * 32),                    # dense and empty
    countmin(16, 2, grid=[1] * 20 + [0] * 12),         # dense, sparse is smaller
    countmin(16, 2, grid=[1] * 31),                    # one counter short
    countmin(16, 17, []), countmin(0, 2, []),          # dimensions out of range
    countmin(16, 2, [], k=0),
    countmin(0xFFFF, 16, []),                          # a grid too big to ship
    countmin(0xFFFF, 16, [(1_000_000, 1)]),
    countmin(16, 2, [], candidates=b"\x00\x01"),       # candidate count, no entry
    countmin(16, 2, [], candidates=b"\x00\x01" + struct.pack(">HQ", 2, 1) + b"i"),
    countmin(16, 2, [], candidates=b"\x00\x01" + struct.pack(">HQ", 2, 1) + b"ix"),
    countmin(16, 2, [], candidates=b"\x00\x01" + struct.pack(">HQ", 2, 1) + b"f1"),
    countmin(16, 2, [], candidates=b"\x00\x01" + struct.pack(">HQ", 2, 1) + b"s\xff"),
    countmin(16, 2, [], candidates=b"\x00\x01" + struct.pack(">HQ", 1, 1) + b"?"),
    countmin(16, 2, [], candidates=b"\x00\x01" + struct.pack(">HQ", 0, 1)),
], ids=lambda blob: blob[:22].hex())
def test_forged_countmin_payloads_are_refused_not_normalised(blob):
    with pytest.raises(SketchError):
        sketch_from_bytes(blob)


def test_the_dense_grid_form_is_accepted_exactly_from_its_threshold():
    # 32 cells = 256 bytes dense; sparse is 4 + 12n: smaller up to n = 20.
    assert 4 + 12 * 20 < 256 <= 4 + 12 * 21
    with pytest.raises(SketchError):
        sketch_from_bytes(countmin(16, 2, grid=[1] * 20 + [0] * 12))
    dense = countmin(16, 2, grid=[1] * 21 + [0] * 11)
    assert sketch_to_bytes(sketch_from_bytes(dense)) == dense
    sparse = countmin(16, 2, [(i, 1) for i in range(20)])
    assert sketch_to_bytes(sketch_from_bytes(sparse)) == sparse


# -------------------------------------------------------------- allocation


def kll(levels, k=8):
    body = b"".join(struct.pack(">I", count) + values for count, values in levels)
    return b"\x03" + struct.pack(">IQBB", k, 7, 0, len(levels)) + body


@pytest.mark.parametrize("blob", [
    hll_sparse(18, [], count=0xFFFFFFFF, width=4),
    hll_sparse(18, [(5, 1)], count=50_000, width=4),
    HLL_TAG + bytes([18]) + SEED + bytes(100),
    countmin(0xFFFF, 16, []),
    countmin(0xFFFF, 2, [], count=10_000),
    countmin(0xFFFF, 2, [(131_069, 1)]),               # the largest legal grid
    countmin(0xFFFF, 16, grid=[1] * 64),
    kll([(0xFFFFFFFF, b"")]),
    kll([(1 << 28, bytes(64))] * 3),
    kll([(0, b"")] * 200),
    b"\x02" + bytes(MAX_SKETCH_BYTES),
], ids=lambda blob: blob[:18].hex())
def test_forged_sizes_never_allocate_past_the_sketch_ceiling(blob):
    """Whatever a short payload declares, decoding it (to a refusal or to a
    legitimately large empty grid) stays under ``MAX_SKETCH_BYTES`` of
    allocation beyond the payload itself plus small change."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            sketch_from_bytes(blob)
        except SketchError:
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= MAX_SKETCH_BYTES + len(blob) + 65_536, peak
