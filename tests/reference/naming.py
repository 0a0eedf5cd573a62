"""Key derivation written the plain way: what ``repro.dht.naming`` must keep
returning.

``repro.dht.naming`` hashes a cached per-namespace prefix state and only
the resource id per call, and reads CAN coordinates with shifts and masks;
these functions compute the same values from first principles (one SHA-1
over the whole f-string; the key's 16 big-endian bytes spelled out as a bit
string and sliced), to hold it to bit-identical output.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Tuple


def hash_key(namespace: str, resource_id) -> int:
    data = f"{namespace}\x00{resource_id!r}".encode("utf-8", errors="replace")
    return int.from_bytes(hashlib.sha1(data).digest()[:16], "big")


def key_to_unit_coordinates(key: int, dimensions: int) -> Tuple[float, ...]:
    """Coordinate *i* is the *i*-th of ``dimensions`` equal slices of the
    key's 128 bits, first bit first, read as a binary fraction of at most 53
    bits (a double's mantissa, so the value is exact)."""
    if not 0 < dimensions <= 128:
        raise ValueError("dimensions must be in 1..128")
    bits = "".join(f"{byte:08b}" for byte in key.to_bytes(16, "big"))
    width = len(bits) // dimensions
    coords = []
    for dim in range(dimensions):
        field = bits[dim * width:(dim + 1) * width][:53]
        value = Fraction(int(field, 2), 2 ** len(field))
        assert float(value) == value  # exact, hence below 1.0
        coords.append(float(value))
    return tuple(coords)
