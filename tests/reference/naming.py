"""Key derivation as one SHA-1 over the whole f-string: what ``repro.dht.naming``
must keep returning.

``repro.dht.naming`` hashes a cached per-namespace (per-dimension) prefix
state and only the resource id (key) per call; these are the functions it
replaced, kept to hold it to bit-identical output.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.dht.naming import KEY_BITS, KEY_SPACE


def _digest(data: bytes) -> int:
    return int.from_bytes(hashlib.sha1(data).digest()[: KEY_BITS // 8], "big")


def hash_key(namespace: str, resource_id) -> int:
    data = f"{namespace}\x00{resource_id!r}".encode("utf-8", errors="replace")
    return _digest(data)


def key_to_unit_coordinates(key: int, dimensions: int) -> Tuple[float, ...]:
    if dimensions <= 0:
        raise ValueError("dimensions must be positive")
    coords = []
    for dim in range(dimensions):
        salted = _digest(f"dim{dim}\x00{key:x}".encode("ascii"))
        coords.append(salted / KEY_SPACE)
    return tuple(coords)
