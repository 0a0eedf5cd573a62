"""Key derivation for the DHT naming scheme.

Every DHT object is named by a ``(namespace, resourceID, instanceID)``
triple (paper Section 3.2.3).  The namespace and resourceID together
determine the DHT *key* — and hence the responsible node — via a hash
function; the instanceID only disambiguates items that share a key.

Keys live in a flat ``KEY_BITS``-bit integer space.  Each routing layer maps
that integer into its own identifier space: Chord takes it modulo the ring
size, CAN re-hashes it with per-dimension salts to obtain coordinates (the
paper's "d separate hash functions, one for each CAN dimension").
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Iterable, List, Tuple

#: Width of the flat key space shared by all routing layers.
KEY_BITS = 128
#: Size of the key space (exclusive upper bound of keys).
KEY_SPACE = 1 << KEY_BITS


def _digest(data: bytes) -> int:
    """Stable hash of ``data`` truncated to the key space."""
    return int.from_bytes(hashlib.sha1(data).digest()[: KEY_BITS // 8], "big")


# Keys hash on from a copy of their fixed prefix's cached SHA-1 state.
@functools.lru_cache
def _namespace_prefix(namespace: str) -> Any:
    return hashlib.sha1(f"{namespace}\x00".encode("utf-8", errors="replace"))


@functools.lru_cache
def _dimension_prefixes(dimensions: int) -> Tuple[Any, ...]:
    return tuple(hashlib.sha1(f"dim{dim}\x00".encode("ascii"))
                 for dim in range(dimensions))


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

    Used by CAN: each dimension gets an independent salted hash of the key,
    mirroring the paper's per-dimension hash functions.
    """
    if dimensions <= 0:
        raise ValueError("dimensions must be positive")
    data = f"{key:x}".encode("ascii")
    coords = []
    for prefix in _dimension_prefixes(dimensions):  # SHA-1 of f"dim{d}\x00{data}"
        state = prefix.copy()
        state.update(data)
        coords.append(int.from_bytes(state.digest()[: KEY_BITS // 8], "big") / KEY_SPACE)
    return tuple(coords)


def node_identifier(address: int) -> int:
    """Deterministic DHT identifier for a node address (used by Chord)."""
    return _digest(f"node\x00{address}".encode("ascii"))
