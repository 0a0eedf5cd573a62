"""The always-dense HyperLogLog: the reference the sized one is tested against.

Until sketches went representation-by-size this was ``repro.sketches.hll``:
an ``m``-byte register file from the first value on, ``merge`` and
``estimate`` as Python loops over all ``2**log2m`` registers (the harmonic
sum in floats, register order) and a payload that is always the whole file.
It left ``src/`` because those loops cost the same for a 22-value publisher
partial as for a full sketch; it stays here because it is the shortest
statement of what the registers, the estimate and the dense bytes must be.
Not registered with the sketch codec (tag 1 belongs to the engine's class).
"""

from __future__ import annotations

import math
import struct
from typing import Any, Optional

from repro.sketches.base import DEFAULT_SEED, hash64
from repro.sketches.hll import DEFAULT_LOG2M, _alpha


class DenseHyperLogLog:
    """One byte per register, every operation over the whole file."""

    def __init__(self, log2m: int = DEFAULT_LOG2M, seed: int = DEFAULT_SEED,
                 registers: Optional[bytearray] = None):
        self.log2m = log2m
        self.seed = seed
        self.registers = (bytearray(1 << log2m) if registers is None
                          else bytearray(registers))

    def add(self, value: Any) -> None:
        self.add_hash(hash64(value, self.seed))

    def add_hash(self, hashed: int) -> None:
        shift = 64 - self.log2m
        index = hashed >> shift
        tail = hashed & ((1 << shift) - 1)
        rank = shift - tail.bit_length() + 1
        if self.registers[index] < rank:
            self.registers[index] = rank

    def merge(self, other: "DenseHyperLogLog") -> None:
        mine = self.registers
        for index, rank in enumerate(other.registers):
            if mine[index] < rank:
                mine[index] = rank

    def estimate(self) -> float:
        m = 1 << self.log2m
        total = 0.0
        zeros = 0
        for rank in self.registers:
            total += 2.0 ** -rank
            if rank == 0:
                zeros += 1
        raw = _alpha(m) * m * m / total
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # linear counting (small range)
        return raw

    def copy(self) -> "DenseHyperLogLog":
        return DenseHyperLogLog(self.log2m, self.seed, bytearray(self.registers))

    def to_payload(self) -> bytes:
        """The dense wire form (every payload, before sizes)."""
        return struct.pack(">BQ", self.log2m, self.seed) + bytes(self.registers)
