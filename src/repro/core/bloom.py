"""Bloom filters for the Bloom-join rewrite (paper Section 4.2).

Each node summarises the join-key values of its local table fragment in a
Bloom filter, ships the filter to a per-table collector node, the collectors
OR the filters together, and the OR-ed filter is multicast to the nodes
storing the *opposite* table, which then rehash only tuples that match.

The implementation is a standard bit-array Bloom filter with ``k`` salted
SHA-1 hash functions.  Filters are sized in bits; ``size_bytes`` is what the
simulator charges when a filter crosses the network.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Iterable


class BloomFilter:
    """Fixed-size Bloom filter with union support.

    Parameters
    ----------
    num_bits:
        Width of the bit array.
    num_hashes:
        Number of hash functions (``k``).
    """

    def __init__(self, num_bits: int = 8192, num_hashes: int = 4):
        if num_bits <= 0:
            raise ValueError("Bloom filter needs a positive number of bits")
        if num_hashes <= 0:
            raise ValueError("Bloom filter needs at least one hash function")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        self._bits = 0

    # ----------------------------------------------------------------- sizing

    @classmethod
    def for_capacity(cls, expected_items: int,
                     false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``expected_items`` at a target false-positive rate."""
        expected_items = max(1, expected_items)
        if not 0 < false_positive_rate < 1:
            raise ValueError("false positive rate must be in (0, 1)")
        num_bits = math.ceil(
            -expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)
        )
        num_hashes = max(1, round(num_bits / expected_items * math.log(2)))
        return cls(num_bits=num_bits, num_hashes=num_hashes)

    @property
    def size_bytes(self) -> int:
        """Wire size of the filter."""
        return (self.num_bits + 7) // 8

    # ------------------------------------------------------------------- ops

    def _positions(self, value: Any) -> Iterable[int]:
        encoded = repr(value).encode("utf-8", errors="replace")
        for salt in range(self.num_hashes):
            digest = hashlib.sha1(bytes([salt]) + encoded).digest()
            yield int.from_bytes(digest[:8], "big") % self.num_bits

    def add(self, value: Any) -> None:
        """Insert a value."""
        for position in self._positions(value):
            self._bits |= 1 << position

    def update(self, values: Iterable[Any]) -> None:
        """Insert many values."""
        for value in values:
            self.add(value)

    def __contains__(self, value: Any) -> bool:
        return all(self._bits >> position & 1 for position in self._positions(value))

    def contains(self, value: Any) -> bool:
        """Membership test (may return false positives, never false negatives)."""
        return value in self

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Return a new filter that is the OR of this filter and ``other``."""
        self._check_compatible(other)
        merged = BloomFilter(self.num_bits, self.num_hashes)
        merged._bits = self._bits | other._bits
        return merged

    def union_in_place(self, other: "BloomFilter") -> None:
        """OR ``other`` into this filter (what the collector nodes do)."""
        self._check_compatible(other)
        self._bits |= other._bits

    def _check_compatible(self, other: "BloomFilter") -> None:
        if (self.num_bits, self.num_hashes) != (other.num_bits, other.num_hashes):
            raise ValueError(
                "cannot combine Bloom filters with different parameters: "
                f"({self.num_bits},{self.num_hashes}) vs ({other.num_bits},{other.num_hashes})"
            )

    # -------------------------------------------------------------- analysis

    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        return bin(self._bits).count("1") / self.num_bits

    def estimated_false_positive_rate(self) -> float:
        """Estimated probability that a non-member tests positive."""
        return self.fill_ratio() ** self.num_hashes

    def is_empty(self) -> bool:
        """Whether no value has been added."""
        return self._bits == 0

    def copy(self) -> "BloomFilter":
        """Independent copy of this filter."""
        duplicate = BloomFilter(self.num_bits, self.num_hashes)
        duplicate._bits = self._bits
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(bits={self.num_bits}, hashes={self.num_hashes}, "
            f"fill={self.fill_ratio():.3f})"
        )
