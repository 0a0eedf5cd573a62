"""KLL quantile sketch: bounded-size percentiles (``APPROX_PERCENTILE(x, p)``).

The KLL compactor hierarchy (Karnin/Lang/Liberty): level ``h`` holds a
buffer of values each representing ``2**h`` originals.  When a level
overflows its capacity — ``k`` at the top, shrinking by 2/3 per level below
it — the buffer is sorted and every second element is promoted to the level
above, halving the stored mass while keeping ranks approximately intact.
Total storage is bounded by ~``3k`` values plus a logarithmic tail, so the
serialised partial is effectively constant in the stream length.

Classic KLL flips a fair coin to pick the odd- or even-indexed survivors of
each compaction.  A distributed deployment wants *deterministic* estimates
(the simulator-vs-real-TCP gate diffs result rows byte-for-byte), so this
implementation derandomises the coin: it alternates per compaction, which
preserves the rank-error cancellation the random coin provides on average
while making a sketch a pure function of its operation sequence.  Unlike
HLL/count-min, KLL merges are only *approximately* order-insensitive — every
order satisfies the same rank-error bound, but estimates may differ by a few
ranks between merge shapes; tests assert the bound, not bit-equality.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Iterable, List, Optional, Tuple

from repro.exceptions import SketchError
from repro.sketches.base import DEFAULT_SEED, SketchBase, register_sketch

#: Default top-level capacity: rank error ~1.5/k ≈ 0.8 % of the total mass.
DEFAULT_KLL_K = 200
MIN_KLL_K = 8
MAX_KLL_K = 1 << 14
_MAX_LEVELS = 64


@register_sketch
class KLLSketch(SketchBase):
    """Mergeable quantile sketch over numeric values."""

    WIRE_TAG = 3

    __slots__ = ("k", "seed", "levels", "coin")

    def __init__(self, k: int = DEFAULT_KLL_K, seed: int = DEFAULT_SEED,
                 levels: Optional[List[List[float]]] = None, coin: int = 0):
        k = int(k)
        if not MIN_KLL_K <= k <= MAX_KLL_K:
            raise SketchError(f"KLL k must be in {MIN_KLL_K}..{MAX_KLL_K}, got {k}")
        self.k = k
        self.seed = int(seed)
        self.levels: List[List[float]] = levels if levels is not None else [[]]
        self.coin = int(coin) & 1

    # ------------------------------------------------------------------ algebra

    @staticmethod
    def _numeric(value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SketchError(
                f"KLL sketches summarise numeric values, got {type(value).__name__}"
            )
        return float(value)

    def add(self, value: Any) -> None:
        self.levels[0].append(self._numeric(value))
        self._compress()

    def add_many(self, values: Iterable[Any]) -> None:
        """Absorb a column of values; the state equals adding them one by one.

        After the first value (whose ``_compress`` brings even a decoded
        sketch within its capacities) level 0 takes what fits — up to its
        capacity + 1, where a single ``add`` would compact — and the
        hierarchy is compressed there: compactions and the coin fall on the
        same values as in the per-value loop, without re-checking every level
        after every value.  A non-numeric value raises before any is absorbed.
        """
        numbers = [self._numeric(value) for value in values]
        start, room = 0, 1
        while start < len(numbers):
            self.levels[0].extend(numbers[start:start + room])
            start += room
            self._compress()
            room = self._capacity(0, len(self.levels)) + 1 - len(self.levels[0])

    def merge(self, other: SketchBase) -> None:
        self._require_compatible(other, "k", "seed")
        assert isinstance(other, KLLSketch)  # guaranteed by the check above
        while len(self.levels) < len(other.levels):
            self.levels.append([])
        for level, buffer in enumerate(other.levels):
            self.levels[level].extend(buffer)
        self.coin ^= other.coin
        self._compress()

    def _capacity(self, level: int, num_levels: int) -> int:
        return max(2, int(math.ceil(self.k * (2.0 / 3.0) ** (num_levels - 1 - level))))

    def _compress(self) -> None:
        while True:
            num_levels = len(self.levels)
            for level in range(num_levels):
                if len(self.levels[level]) > self._capacity(level, num_levels):
                    self._compact(level)
                    break
            else:
                return

    def _compact(self, level: int) -> None:
        buffer = sorted(self.levels[level])
        even_length = (len(buffer) // 2) * 2
        survivors = buffer[self.coin:even_length:2]
        self.coin ^= 1
        self.levels[level] = buffer[even_length:]  # odd leftover stays put
        if level + 1 == len(self.levels):
            self.levels.append([])
        self.levels[level + 1].extend(survivors)

    # ---------------------------------------------------------------- estimates

    def total_weight(self) -> int:
        """Number of values the sketch summarises."""
        return sum(len(buffer) << level for level, buffer in enumerate(self.levels))

    def _weighted(self) -> List[Tuple[float, int]]:
        items = [
            (value, 1 << level)
            for level, buffer in enumerate(self.levels)
            for value in buffer
        ]
        items.sort(key=lambda item: item[0])
        return items

    def quantile(self, p: float) -> Optional[float]:
        """Estimated value at rank ``p`` (0 → min, 0.5 → median, 1 → max)."""
        if not 0.0 <= p <= 1.0:
            raise SketchError(f"percentile must be in [0, 1], got {p}")
        items = self._weighted()
        if not items:
            return None
        total = sum(weight for _value, weight in items)
        target = p * total
        cumulative = 0
        for value, weight in items:
            cumulative += weight
            if cumulative >= target:
                return value
        return items[-1][0]

    def rank(self, value: float) -> float:
        """Estimated fraction of the stream that is ``<= value``."""
        items = self._weighted()
        total = sum(weight for _value, weight in items)
        if not total:
            return 0.0
        below = sum(weight for item, weight in items if item <= value)
        return below / total

    def estimate(self, p: float = 0.5) -> Optional[float]:
        return self.quantile(p)

    # -------------------------------------------------------------------- codec

    def to_payload(self) -> bytes:
        parts = [struct.pack(">IQBB", self.k, self.seed, self.coin,
                             len(self.levels))]
        for buffer in self.levels:
            parts.append(struct.pack(">I", len(buffer)))
            parts.append(struct.pack(f">{len(buffer)}d", *buffer))
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload: bytes) -> "KLLSketch":
        try:
            k, seed, coin, num_levels = struct.unpack_from(">IQBB", payload)
        except struct.error:
            raise SketchError("truncated KLLSketch payload") from None
        if not MIN_KLL_K <= k <= MAX_KLL_K or num_levels > _MAX_LEVELS:
            raise SketchError(
                f"KLLSketch payload declares invalid k={k}, levels={num_levels}"
            )
        offset = 14
        levels: List[List[float]] = []
        try:
            for _ in range(num_levels):
                (count,) = struct.unpack_from(">I", payload, offset)
                offset += 4
                if count * 8 > len(payload) - offset:
                    raise SketchError("KLLSketch payload declares oversized level")
                levels.append(list(struct.unpack_from(f">{count}d", payload, offset)))
                offset += 8 * count
        except struct.error:
            raise SketchError("truncated KLLSketch payload") from None
        if offset != len(payload):
            raise SketchError("trailing bytes in KLLSketch payload")
        if not levels:
            levels = [[]]
        return cls(k, seed, levels, coin)

    # ------------------------------------------------------------------- dunder

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KLLSketch):
            return NotImplemented
        return (self.k == other.k and self.seed == other.seed
                and self.coin == other.coin and self.levels == other.levels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KLLSketch(k={self.k}, n={self.total_weight()}, "
                f"levels={len(self.levels)})")
