"""Count-min sketch + candidate heap: heavy hitters (``APPROX_TOP_K(x, k)``).

A ``depth × width`` grid of counters, each row indexed by an independently
seeded :func:`repro.sketches.hash64`; a value's frequency estimate is the
minimum of its ``depth`` counters (over-estimates only, never under).  The
counter grid merges by entry-wise addition, so the merged grid is exactly
the grid of the concatenated stream — like the HLL registers, it is
independent of merge order.

Count-min alone answers point queries; to *enumerate* the heavy hitters each
sketch also carries a bounded candidate set (the classic "heap" companion):
every added value is remembered with its current estimate, and when the set
overflows its fixed capacity (``max(32, 4k)``) the smallest candidates are
evicted.  ``merge`` unions the candidate sets and re-scores every candidate
against the merged grid, so a value that is locally light but globally heavy
survives as long as *some* partial kept it.  Ties break on the canonical
value encoding, keeping results deterministic across nodes and backends.

The grid ships by size, like the HLL registers: all ``depth × width``
``u64`` counters, or — high bit of the ``depth`` field set — a count and the
non-zero cells as strictly increasing ``(u32 row * width + column, u64
count)`` entries, whichever is smaller (ties go to the dense form); a decoder
accepts only that choice.  The in-memory grid is always dense.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import SketchError
from repro.sketches.base import (
    DEFAULT_SEED,
    MAX_SKETCH_BYTES,
    SketchBase,
    decode_value,
    encode_value,
    hash64,
    register_sketch,
)

DEFAULT_K = 10
DEFAULT_WIDTH = 512
DEFAULT_DEPTH = 4
MAX_WIDTH = 1 << 16
MAX_DEPTH = 16
#: Row-seed spacing (a 64-bit odd constant, splitmix64's increment).
_ROW_SEED_STEP = 0x9E3779B97F4A7C15
#: High bit of the payload's ``depth`` field (``depth`` <= 16): sparse grid.
_SPARSE_FLAG = 0x8000
_HEADER = struct.Struct(">IHHQ")
_CELL_COUNT = struct.Struct(">I")
_CELL = struct.Struct(">IQ")


def _sparse_grid_is_smaller(nonzero: int, cells: int) -> bool:
    return _CELL_COUNT.size + _CELL.size * nonzero < 8 * cells


@register_sketch
class TopKSketch(SketchBase):
    """Mergeable heavy-hitter sketch: count-min grid + bounded candidates."""

    WIRE_TAG = 2

    __slots__ = ("k", "width", "depth", "seed", "rows", "candidates")

    def __init__(self, k: int = DEFAULT_K, width: int = DEFAULT_WIDTH,
                 depth: int = DEFAULT_DEPTH, seed: int = DEFAULT_SEED,
                 rows: Optional[List[List[int]]] = None,
                 candidates: Optional[Dict[Any, int]] = None):
        k, width, depth = int(k), int(width), int(depth)
        if k <= 0:
            raise SketchError(f"top-k needs k >= 1, got {k}")
        if not 1 <= width <= MAX_WIDTH or not 1 <= depth <= MAX_DEPTH:
            raise SketchError(
                f"count-min dimensions out of range: width={width}, depth={depth}"
            )
        self.k = k
        self.width = width
        self.depth = depth
        self.seed = int(seed)
        if rows is None:
            rows = [[0] * width for _ in range(depth)]
        self.rows = rows
        self.candidates = dict(candidates or {})

    @property
    def capacity(self) -> int:
        """Fixed bound on the candidate set (independent of stream length)."""
        return max(32, 4 * self.k)

    # ------------------------------------------------------------------ algebra

    def _row_seed(self, row: int) -> int:
        return (self.seed + (row + 1) * _ROW_SEED_STEP) & 0xFFFFFFFFFFFFFFFF

    def add(self, value: Any, count: int = 1) -> None:
        if count <= 0:
            return
        estimate: Optional[int] = None
        for row in range(self.depth):
            index = hash64(value, self._row_seed(row)) % self.width
            counters = self.rows[row]
            counters[index] += count
            if estimate is None or counters[index] < estimate:
                estimate = counters[index]
        assert estimate is not None  # depth >= 1 always sets it
        self.candidates[value] = estimate
        self._trim()

    def point(self, value: Any) -> int:
        """Frequency estimate of one value (an upper bound on the truth)."""
        estimate: Optional[int] = None
        for row in range(self.depth):
            index = hash64(value, self._row_seed(row)) % self.width
            count = self.rows[row][index]
            if estimate is None or count < estimate:
                estimate = count
        return estimate or 0

    def merge(self, other: SketchBase) -> None:
        self._require_compatible(other, "k", "width", "depth", "seed")
        assert isinstance(other, TopKSketch)  # guaranteed by the check above
        for mine, theirs in zip(self.rows, other.rows):
            for index, count in enumerate(theirs):
                if count:
                    mine[index] += count
        # Union the candidate sets and re-score against the merged grid.
        union = set(self.candidates) | set(other.candidates)
        self.candidates = {value: self.point(value) for value in union}
        self._trim()

    def _trim(self) -> None:
        capacity = self.capacity
        if len(self.candidates) <= capacity:
            return
        ordered = sorted(
            self.candidates.items(),
            key=lambda item: (-item[1], encode_value(item[0])),
        )
        self.candidates = dict(ordered[:capacity])

    def estimate(self) -> List[Tuple[Any, int]]:
        """The ``k`` heaviest candidates as ``(value, count)`` pairs."""
        ordered = sorted(
            self.candidates.items(),
            key=lambda item: (-item[1], encode_value(item[0])),
        )
        return [(value, count) for value, count in ordered[:self.k]]

    # -------------------------------------------------------------------- codec

    def to_payload(self) -> bytes:
        width, cells = self.width, self.width * self.depth
        flat = list(chain.from_iterable(self.rows))
        nonzero = cells - flat.count(0)
        if _sparse_grid_is_smaller(nonzero, cells):
            parts = [
                _HEADER.pack(self.k, width, self.depth | _SPARSE_FLAG, self.seed),
                _CELL_COUNT.pack(nonzero),
                *(_CELL.pack(cell, count) for cell, count in enumerate(flat)
                  if count),
            ]
        else:
            parts = [_HEADER.pack(self.k, width, self.depth, self.seed),
                     struct.pack(f">{cells}Q", *flat)]
        parts.append(struct.pack(">H", len(self.candidates)))
        for value, count in self.candidates.items():
            encoded = encode_value(value)
            parts.append(struct.pack(">HQ", len(encoded), count))
            parts.append(encoded)
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload: bytes) -> "TopKSketch":
        try:
            k, width, depth, seed = _HEADER.unpack_from(payload)
        except struct.error:
            raise SketchError("truncated TopKSketch payload") from None
        sparse, depth = depth & _SPARSE_FLAG, depth & ~_SPARSE_FLAG
        cells = width * depth
        # A grid whose dense form could not be shipped is refused before it
        # is allocated, however few cells the payload says are set.
        if (not 1 <= width <= MAX_WIDTH or not 1 <= depth <= MAX_DEPTH or k <= 0
                or 8 * cells > MAX_SKETCH_BYTES):
            raise SketchError(
                f"TopKSketch payload declares invalid dimensions "
                f"k={k}, width={width}, depth={depth}"
            )
        offset = _HEADER.size
        rows: List[List[int]] = []
        try:
            if sparse:
                (nonzero,) = _CELL_COUNT.unpack_from(payload, offset)
                offset += _CELL_COUNT.size
                end = offset + _CELL.size * nonzero
                if not _sparse_grid_is_smaller(nonzero, cells) or end > len(payload):
                    raise SketchError(
                        f"TopKSketch payload declares {nonzero} sparse cells: "
                        f"cut short, or not smaller than the dense grid")
                rows, previous = [[0] * width for _ in range(depth)], -1
                for cell, count in _CELL.iter_unpack(payload[offset:end]):
                    if not previous < cell < cells or not count:
                        raise SketchError(
                            f"sparse TopKSketch cell ({cell}, {count}) is out "
                            f"of order, out of range or zero")
                    rows[cell // width][cell % width] = count
                    previous = cell
                offset = end
            else:
                for _ in range(depth):
                    rows.append(list(struct.unpack_from(f">{width}Q", payload, offset)))
                    offset += 8 * width
                nonzero = cells - sum(counters.count(0) for counters in rows)
                if _sparse_grid_is_smaller(nonzero, cells):
                    raise SketchError("dense TopKSketch grid where the sparse "
                                      "form is smaller")
            (count,) = struct.unpack_from(">H", payload, offset)
            offset += 2
            candidates: Dict[Any, int] = {}
            for _ in range(count):
                length, estimate = struct.unpack_from(">HQ", payload, offset)
                offset += 10
                encoded = payload[offset:offset + length]
                if len(encoded) != length:
                    raise SketchError("truncated TopKSketch candidate")
                offset += length
                candidates[decode_value(encoded)] = estimate
        except struct.error:
            raise SketchError("truncated TopKSketch payload") from None
        if offset != len(payload):
            raise SketchError("trailing bytes in TopKSketch payload")
        return cls(k, width, depth, seed, rows, candidates)

    # ------------------------------------------------------------------- dunder

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopKSketch):
            return NotImplemented
        return (self.k == other.k and self.width == other.width
                and self.depth == other.depth and self.seed == other.seed
                and self.rows == other.rows
                and self.candidates == other.candidates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TopKSketch(k={self.k}, width={self.width}, "
                f"depth={self.depth}, candidates={len(self.candidates)})")
