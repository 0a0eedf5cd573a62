"""Key derivation for the DHT naming scheme.

Every DHT object is named by a ``(namespace, resourceID, instanceID)``
triple (paper Section 3.2.3).  The namespace and resourceID together
determine the DHT *key* — and hence the responsible node — via a hash
function; the instanceID only disambiguates items that share a key.

Keys live in a flat ``KEY_BITS``-bit integer space.  Each routing layer maps
that integer into its own identifier space: Chord takes it modulo the ring
size, CAN reads its point from the key's own bits.  A key is 128 uniform
bits of SHA-1, so CAN's ``d`` coordinates are ``d`` disjoint, equal bit
fields of it, most significant first (the paper's "d separate hash
functions, one for each CAN dimension", each one a field of one SHA-1
value).  Each field keeps its top :data:`COORDINATE_BITS` bits, so the
coordinate is an exact double in ``[0, 1)``.  The point costs a few shifts,
so every hop derives it from the key again instead of carrying it.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Iterable, List, Tuple

#: Width of the flat key space shared by all routing layers.
KEY_BITS = 128
#: Size of the key space (exclusive upper bound of keys).
KEY_SPACE = 1 << KEY_BITS
#: Bits a CAN coordinate keeps of its key field: a double's mantissa, so the
#: coordinate is exact and never rounds up to 1.0.
COORDINATE_BITS = 53


def _digest(data: bytes) -> int:
    """Stable hash of ``data`` truncated to the key space."""
    return int.from_bytes(hashlib.sha1(data).digest()[: KEY_BITS // 8], "big")


# Keys hash on from a copy of their fixed prefix's cached SHA-1 state.
@functools.lru_cache
def _namespace_prefix(namespace: str) -> Any:
    return hashlib.sha1(f"{namespace}\x00".encode("utf-8", errors="replace"))


def hash_key(namespace: str, resource_id) -> int:
    """Map a ``(namespace, resourceID)`` pair to a DHT key.

    ``resource_id`` may be any value with a stable ``repr``; the query
    processor uses primary-key values and join-key values here.  The key is
    the SHA-1 of ``f"{namespace}\\x00{resource_id!r}"``.
    """
    return hash_keys(namespace, (resource_id,))[0]


def hash_keys(namespace: str, resource_ids: Iterable) -> List[int]:
    """:func:`hash_key` of each resourceID of one namespace, in order."""
    copy = _namespace_prefix(namespace).copy
    keys = []
    for resource_id in resource_ids:
        state = copy()
        state.update(repr(resource_id).encode("utf-8", "replace"))
        keys.append(int.from_bytes(state.digest()[: KEY_BITS // 8], "big"))
    return keys


def hash_namespace(namespace: str) -> int:
    """Key for namespace-level rendezvous points (e.g. Bloom collectors)."""
    return _digest(f"ns\x00{namespace}".encode("utf-8"))


def key_to_unit_coordinates(key: int, dimensions: int) -> Tuple[float, ...]:
    """Spread a flat key over ``dimensions`` coordinates in ``[0, 1)``.

    Used by CAN: coordinate *i* is the *i*-th of ``dimensions`` equal bit
    fields of the key, most significant first, cut to its top
    :data:`COORDINATE_BITS` bits and scaled into ``[0, 1)``.  Bits below the
    last whole field (``KEY_BITS % dimensions`` of them) are not used.
    """
    if dimensions == 2:  # the loop's floats for the paper's d, 3x as fast
        return ((key >> 75) * 2.0 ** -53,
                ((key >> 11) & 0x1FFFFFFFFFFFFF) * 2.0 ** -53)
    if not 0 < dimensions <= KEY_BITS:
        raise ValueError(f"dimensions must be in 1..{KEY_BITS}")
    width = KEY_BITS // dimensions
    kept = min(width, COORDINATE_BITS)
    mask, scale = (1 << kept) - 1, 2.0 ** -kept
    shift = KEY_BITS - kept  # to the kept bits of the first field
    coords = []
    for _ in range(dimensions):
        coords.append(((key >> shift) & mask) * scale)
        shift -= width
    return tuple(coords)


def node_identifier(address: int) -> int:
    """Deterministic DHT identifier for a node address (used by Chord)."""
    return _digest(f"node\x00{address}".encode("ascii"))
