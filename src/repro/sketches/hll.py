"""HyperLogLog: bounded-size distinct counting (``APPROX COUNT(DISTINCT x)``).

The classic Flajolet et al. estimator: ``m = 2**log2m`` one-byte registers,
each holding the maximum leading-zero rank observed among the hashed values
routed to it.  Union is a register-wise ``max``, which is exactly
commutative, associative and idempotent — merging N nodes' sketches yields
*bit-identical* registers to a single sketch over the concatenated stream,
so the estimate is independent of tree shape, merge order and transport.

Standard error is ``1.04 / sqrt(m)`` — about 1.6 % at the default
``log2m = 12``, comfortably inside the 2 % target the acceptance gate checks
at 10^5 distinct values.  Small cardinalities use linear counting over the
number of untouched registers, which is near-exact when the register file
is mostly empty.

Cost follows the *set* registers, not ``m``.  A sketch is a sparse
``index -> rank`` map until more than ``m / 8`` registers are set, then —
one way, invisibly — the dense ``m``-byte file; merges touch the other
side's set registers only and the estimate reads a rank histogram.  The
payload is bounded by the dense size (``9 + m`` bytes: 4 KiB at the default),
proportional to the set registers below it, and *canonical*, a pure function
of the register contents: ``log2m, seed`` and the ``m`` registers, or — high
bit of the ``log2m`` byte set — a count and strictly increasing ``(index,
rank)`` entries, whichever is smaller.  A decoder accepts only that choice,
so equal sketches are equal bytes whatever their history or tree shape.
"""

from __future__ import annotations

import math
import struct
from itertools import starmap
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import SketchError
from repro.sketches.base import (
    DEFAULT_SEED,
    SketchBase,
    hash64,
    hash64_many,
    register_sketch,
)

#: Default register-count exponent: 4096 registers, ~1.6 % standard error.
DEFAULT_LOG2M = 12
MIN_LOG2M = 4
MAX_LOG2M = 18
#: A sketch stays a sparse map while at most ``m >> SPARSE_SHIFT`` registers
#: are set (roughly where the map outweighs the ``m``-byte file).
SPARSE_SHIFT = 3
#: High bit of the payload's ``log2m`` byte (``log2m`` needs five): sparse form.
_SPARSE_FLAG = 0x80
_HEADER = struct.Struct(">BQ")
#: Count and ``(index, rank)`` layouts of the sparse form: 16-bit count and
#: index up to ``log2m = 16``, 32-bit above.
_NARROW = struct.Struct(">H"), struct.Struct(">HB")
_WIDE = struct.Struct(">I"), struct.Struct(">IB")


def _alpha(m: int) -> float:
    if m >= 128:
        return 0.7213 / (1.0 + 1.079 / m)
    if m >= 64:
        return 0.709
    if m >= 32:
        return 0.697
    return 0.673


def _set_entries(registers: bytearray) -> List[Tuple[int, int]]:
    """``(index, rank)`` of a dense file's set registers, by index."""
    return [(index, rank) for index, rank in enumerate(registers) if rank]


def _lanewise_max(mine: bytearray, theirs: bytearray) -> bytes:
    """Byte-wise ``max`` of two register files in big-integer arithmetic.

    Ranks are below 128, so ``(x | 0x80) - y`` never borrows across a byte
    lane and leaves the lane's high bit set exactly where ``x >= y``
    (``bytearray(map(max, ...))`` is 25x slower; so is a Python loop, 12x).
    """
    size = len(mine)
    high = int.from_bytes(b"\x80" * size, "big")
    x, y = int.from_bytes(mine, "big"), int.from_bytes(theirs, "big")
    keep = ((((x | high) - y) & high) >> 7) * 0xFF  # 0xFF lanes where x >= y
    return ((x & keep) | (y & ~keep)).to_bytes(size, "big")


@register_sketch
class HyperLogLog(SketchBase):
    """Mergeable distinct-count sketch: a sparse map, then a register file."""

    WIRE_TAG = 1

    __slots__ = ("log2m", "seed", "_sparse", "_dense")

    def __init__(self, log2m: int = DEFAULT_LOG2M, seed: int = DEFAULT_SEED,
                 registers: Optional[bytearray] = None):
        log2m = int(log2m)
        if not MIN_LOG2M <= log2m <= MAX_LOG2M:
            raise SketchError(
                f"log2m must be in {MIN_LOG2M}..{MAX_LOG2M}, got {log2m}"
            )
        self.log2m = log2m
        self.seed = int(seed)
        #: ``index -> rank`` of the set registers until promotion, then empty;
        #: the whole file from promotion on, empty before.  Dense exactly when
        #: more than ``m >> SPARSE_SHIFT`` registers are set; both containers
        #: are only ever mutated in place.
        self._sparse: Dict[int, int] = {}
        self._dense = bytearray()
        if registers is None:
            return
        m = 1 << log2m
        if (len(registers) != m
                or registers.translate(None, bytes(range(64 - log2m + 2)))):
            raise SketchError(
                f"register file of {len(registers)} bytes does not match "
                f"log2m={log2m}, or holds a rank above {64 - log2m + 1}"
            )
        if m - registers.count(0) > m >> SPARSE_SHIFT:
            self._dense.extend(registers)
        else:
            self._sparse.update(_set_entries(registers))

    @property
    def registers(self) -> bytearray:
        """The materialised ``m``-byte register file (a fresh copy)."""
        registers = bytearray(self._dense or 1 << self.log2m)
        for index, rank in self._sparse.items():
            registers[index] = rank
        return registers

    # ------------------------------------------------------------------ algebra

    def add(self, value: Any) -> None:
        self.add_hash(hash64(value, self.seed))

    def add_hash(self, hashed: int) -> None:
        """Absorb a pre-computed :func:`repro.sketches.hash64` value."""
        self.add_hashes((hashed,))

    def add_many(self, values: Iterable[Any]) -> None:
        """Absorb many values, hashed by one :func:`hash64_many`."""
        self.add_hashes(hash64_many(values, self.seed))

    def add_hashes(self, hashes: Iterable[int]) -> None:
        """Absorb pre-computed hashes: ranks inline, at most one promotion
        (registers are a max, so the end state is one :meth:`add_hash` each)."""
        shift = 64 - self.log2m
        mask = (1 << shift) - 1
        dense, sparse = self._dense, self._sparse
        for hashed in hashes:
            index = hashed >> shift
            rank = shift - (hashed & mask).bit_length() + 1
            if dense:
                if dense[index] < rank:
                    dense[index] = rank
            elif sparse.get(index, 0) < rank:
                sparse[index] = rank
        if len(sparse) > (1 << self.log2m) >> SPARSE_SHIFT:
            self._promote()

    def _promote(self) -> None:
        self._dense.extend(self.registers)
        self._sparse.clear()

    def _absorb(self, entries: Dict[int, int]) -> None:
        """Register-wise max with a sparse map: its set registers only."""
        dense, sparse = self._dense, self._sparse
        if dense:
            for index, rank in entries.items():
                if dense[index] < rank:
                    dense[index] = rank
            return
        for index, rank in entries.items():
            if sparse.get(index, 0) < rank:
                sparse[index] = rank
        if len(sparse) > (1 << self.log2m) >> SPARSE_SHIFT:
            self._promote()

    def merge(self, other: SketchBase) -> None:
        self._require_compatible(other, "log2m", "seed")
        assert isinstance(other, HyperLogLog)  # guaranteed by the check above
        if not other._dense:
            self._absorb(other._sparse)
        elif self._dense:
            self._dense[:] = _lanewise_max(self._dense, other._dense)
        else:  # adopt their file, then fold this sketch's few registers in
            self._dense.extend(other._dense)
            self._absorb(self._sparse)
            self._sparse.clear()

    def estimate(self) -> float:
        m = 1 << self.log2m
        top = 64 - self.log2m + 1  # the largest rank a register can hold
        # The harmonic sum of 2**-rank, scaled by 2**top and taken in integers
        # over a rank histogram: exact for either representation, any order.
        dense = self._dense
        zeros = dense.count(0) if dense else m - len(self._sparse)
        scaled, rank = zeros << top, 0
        left = m - zeros if dense else 0  # set registers yet to be counted
        while left:
            rank += 1
            count = dense.count(rank)
            scaled += count << (top - rank)
            left -= count
        for rank in self._sparse.values():
            scaled += 1 << (top - rank)
        raw = _alpha(m) * m * m / (scaled / (1 << top))
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # linear counting (small range)
        return raw

    def copy(self) -> "HyperLogLog":
        clone = HyperLogLog(self.log2m, self.seed)
        clone._sparse.update(self._sparse)
        clone._dense.extend(self._dense)
        return clone

    # -------------------------------------------------------------------- codec

    def payload_bound(self) -> int:
        """The payload's size without building it: O(1) while sparse, one
        ``bytearray.count`` once dense."""
        count, entry = _WIDE if self.log2m > 16 else _NARROW
        dense = self._dense
        set_count = len(dense) - dense.count(0) if dense else len(self._sparse)
        return _HEADER.size + min(1 << self.log2m,
                                  count.size + entry.size * set_count)

    def to_payload(self) -> bytes:
        if self.payload_bound() == _HEADER.size + (1 << self.log2m):
            return _HEADER.pack(self.log2m, self.seed) + bytes(self._dense)
        count, entry = _WIDE if self.log2m > 16 else _NARROW
        entries = _set_entries(self._dense) or sorted(self._sparse.items())
        return b"".join([
            _HEADER.pack(self.log2m | _SPARSE_FLAG, self.seed),
            count.pack(len(entries)), *starmap(entry.pack, entries),
        ])

    @classmethod
    def from_payload(cls, payload: bytes) -> "HyperLogLog":
        if len(payload) < _HEADER.size:
            raise SketchError("truncated HyperLogLog payload")
        head, seed = _HEADER.unpack_from(payload)
        log2m = head & ~_SPARSE_FLAG  # out of range: the constructor refuses
        m, body = 1 << log2m, payload[_HEADER.size:]
        count, entry = _WIDE if log2m > 16 else _NARROW
        if not head & _SPARSE_FLAG:
            if len(body) != m or count.size + entry.size * (m - body.count(0)) < m:
                raise SketchError(
                    f"dense HyperLogLog payload of {len(body)} registers does "
                    f"not match log2m={log2m}, or is smaller in the sparse form"
                )
            return cls(log2m, seed, bytearray(body))
        sketch = cls(log2m, seed)
        set_count = count.unpack_from(body)[0] if len(body) >= count.size else m
        size = count.size + entry.size * set_count
        if size >= m or len(body) != size:
            raise SketchError(
                f"sparse HyperLogLog payload of {set_count} entries is cut "
                f"short, over-long or not smaller than the dense form"
            )
        previous, top = -1, 64 - log2m + 1
        for index, rank in entry.iter_unpack(body[count.size:]):
            if not previous < index < m or not 1 <= rank <= top:
                raise SketchError(f"sparse HyperLogLog entry ({index}, {rank}) "
                                  f"out of order or out of range")
            sketch._sparse[index] = rank
            previous = index
        if set_count > m >> SPARSE_SHIFT:
            sketch._promote()
        return sketch

    # ------------------------------------------------------------------- dunder

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperLogLog):
            return NotImplemented
        # Equal contents are held in the same representation (see __init__).
        return (self.log2m == other.log2m and self.seed == other.seed
                and self._sparse == other._sparse
                and self._dense == other._dense)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HyperLogLog(log2m={self.log2m}, "
                f"estimate~{self.estimate():.0f})")
