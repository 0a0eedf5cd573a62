"""Shared machinery of the mergeable-sketch subsystem.

Every sketch in :mod:`repro.sketches` is a *mergeable summary*: a bounded
partial state that supports ``add`` (absorb one value), ``merge`` (union
another partial of the same configuration), ``estimate`` (finalise) and a
compact binary serialisation (``to_payload`` / ``from_payload``).  Because
merge is order-insensitive, sketch partials flow through PIER's hierarchical
aggregation tree exactly like the exact aggregate states do — each combiner
merges what it received and forwards one partial within the *same bound*:
the dense size of its configuration, and for the register and counter
sketches proportional to the set registers / non-zero cells below it.  Those
bytes are canonical — the smaller of the dense and the sparse form, a pure
function of the contents, and the only choice a decoder accepts.

Two properties matter for a distributed deployment and are centralised here:

* **A seeded 64-bit hash shared across nodes.**  Python's builtin ``hash``
  is salted per process, so two nodes would disagree on every register
  index.  :func:`hash64` is a keyed blake2b over a canonical type-tagged
  encoding of the value, making estimates identical across the simulator
  and the real-TCP backend (and across processes) for the same input
  multiset.  Numeric values hash by *value* (``1`` and ``1.0`` collide on
  purpose, matching the engine's result-row canonicalisation); booleans are
  distinct from integers.
* **A bounded, reversible value encoding** used both by the hash and by
  sketches that must carry raw values (the top-k candidate heap).

Sketches cross the real-TCP wire as a dedicated msgpack ext type; the
:func:`sketch_to_bytes` / :func:`sketch_from_bytes` pair is the single
tag-dispatched codec both the wire layer and the aggregate payloads use.
Decoders validate declared dimensions *before* allocating, so a corrupt or
hostile payload cannot make a reader materialise gigabytes.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Any, Callable, Dict, Iterable, List, Type

from repro.exceptions import SketchError

#: Deployment-wide default hash seed.  Every node of one deployment must use
#: the same seed or register indexes (and therefore estimates) diverge.
DEFAULT_SEED = 0x5EED_C0DE

#: Hard ceiling on one serialised sketch.  Far above any legitimate
#: configuration (an HLL at the maximum ``log2m`` of 18 is 256 KiB); a
#: decoder must never allocate more than this from a length field.
MAX_SKETCH_BYTES = 1 << 20


#: :func:`_hash_input` of the exact types most values have, without the chain
#: of checks :func:`hash64` (the reference) runs; an integer-valued ``float``
#: hashes as the ``int`` it equals.
_EXACT_HASH_INPUTS: Dict[type, Callable[[Any], bytes]] = {
    int: lambda value: b"i%d" % value,
    float: lambda value: (b"i%d" % value if value.is_integer()
                          else b"f" + struct.pack(">d", value)),
    str: lambda value: b"s" + value.encode("utf-8"),
}


def _hash_input(value: Any) -> bytes:
    """Canonical bytes of ``value`` for hashing (numerics unified by value)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return encode_value(value)


@functools.lru_cache(maxsize=64)
def _keyed_hasher(seed: int) -> Any:
    """The blake2b state keyed with ``seed``: keyed once, copied per value."""
    return hashlib.blake2b(
        digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))


def hash64(value: Any, seed: int = DEFAULT_SEED) -> int:
    """Seeded 64-bit hash, identical on every node and backend."""
    hasher = _keyed_hasher(seed).copy()
    hasher.update(_hash_input(value))
    return int.from_bytes(hasher.digest(), "big")


def hash64_many(values: Iterable[Any], seed: int = DEFAULT_SEED) -> List[int]:
    """:func:`hash64` of each value, from one bound keyed state: exact ``int``,
    ``float`` and ``str`` through ``_EXACT_HASH_INPUTS``, the rest (``bool``,
    too) through :func:`_hash_input`."""
    copy = _keyed_hasher(seed).copy
    exact = _EXACT_HASH_INPUTS.get
    hashes: List[int] = []
    for value in values:
        hasher = copy()
        hasher.update(exact(type(value), _hash_input)(value))
        hashes.append(int.from_bytes(hasher.digest(), "big"))
    return hashes


# ------------------------------------------------------ value (de)serialising


def encode_value(value: Any) -> bytes:
    """Reversible type-tagged encoding of one scalar value.

    ``_EXACT_HASH_INPUTS`` repeats the ``int`` / ``float`` / ``str`` branches
    for the hash: change them together.
    """
    if value is None:
        return b"n"
    if value is True:
        return b"t"
    if value is False:
        return b"u"
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f" + struct.pack(">d", value)
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, (bytes, bytearray)):
        return b"b" + bytes(value)
    raise SketchError(f"value of type {type(value).__name__} cannot be sketched")


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`."""
    if not data:
        raise SketchError("empty value encoding")
    tag, body = data[:1], data[1:]
    if tag == b"n":
        return None
    if tag == b"t":
        return True
    if tag == b"u":
        return False
    try:
        if tag == b"i":
            return int(body.decode("ascii"))
        if tag == b"f":
            return struct.unpack(">d", body)[0]
        if tag == b"s":
            return body.decode("utf-8")
    except (ValueError, struct.error) as exc:
        raise SketchError(f"malformed value encoding {data!r}: {exc}") from None
    if tag == b"b":
        return bytes(body)
    raise SketchError(f"unknown value-encoding tag {tag!r}")


# ----------------------------------------------------------------- base class


class SketchBase:
    """Common protocol of every mergeable sketch.

    Subclasses implement ``add`` / ``merge`` / ``estimate`` and the binary
    codec, and declare a unique :attr:`WIRE_TAG` so one tag-dispatched codec
    serves both aggregate payloads and the wire ext type.
    """

    #: One-byte type tag inside the serialised form (unique per subclass).
    WIRE_TAG = 0

    def add(self, value: Any) -> None:
        """Absorb one input value."""
        raise NotImplementedError

    def merge(self, other: "SketchBase") -> None:
        """Union another sketch of the same configuration into this one."""
        raise NotImplementedError

    def estimate(self) -> Any:
        """Finalise the summary into an estimate."""
        raise NotImplementedError

    def to_payload(self) -> bytes:
        """Compact binary form (without the type tag)."""
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: bytes) -> "SketchBase":
        """Rebuild from :meth:`to_payload` output."""
        raise NotImplementedError

    def payload_bound(self) -> int:
        """Current serialised size in bytes (the bounded-size witness)."""
        return len(self.to_payload())

    def _require_compatible(self, other: "SketchBase", *fields: str) -> None:
        if type(other) is not type(self):
            raise SketchError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        for name in fields:
            if getattr(self, name) != getattr(other, name):
                raise SketchError(
                    f"cannot merge {type(self).__name__} sketches with different "
                    f"{name} ({getattr(self, name)!r} != {getattr(other, name)!r})"
                )


#: WIRE_TAG -> sketch class, filled in by :func:`register_sketch`.
SKETCH_TYPES: Dict[int, Type[SketchBase]] = {}


def register_sketch(cls: Type[SketchBase]) -> Type[SketchBase]:
    """Class decorator adding a sketch type to the codec registry."""
    tag = cls.WIRE_TAG
    if not 1 <= tag <= 255:
        raise SketchError(f"{cls.__name__}.WIRE_TAG must be in 1..255")
    existing = SKETCH_TYPES.get(tag)
    if existing is not None and existing is not cls:
        raise SketchError(f"wire tag {tag} already taken by {existing.__name__}")
    SKETCH_TYPES[tag] = cls
    return cls


def sketch_to_bytes(sketch: SketchBase) -> bytes:
    """Serialise any registered sketch: 1 tag byte + its payload."""
    cls = type(sketch)
    if SKETCH_TYPES.get(cls.WIRE_TAG) is not cls:
        raise SketchError(f"unregistered sketch type {cls.__name__}")
    data = bytes([cls.WIRE_TAG]) + sketch.to_payload()
    if len(data) > MAX_SKETCH_BYTES:
        raise SketchError(
            f"serialised {cls.__name__} of {len(data)} bytes exceeds "
            f"{MAX_SKETCH_BYTES}"
        )
    return data


def sketch_from_bytes(data: bytes) -> SketchBase:
    """Rebuild a sketch from :func:`sketch_to_bytes` output."""
    if not data:
        raise SketchError("empty sketch payload")
    if len(data) > MAX_SKETCH_BYTES:
        raise SketchError(
            f"sketch payload of {len(data)} bytes exceeds {MAX_SKETCH_BYTES}"
        )
    cls = SKETCH_TYPES.get(data[0])
    if cls is None:
        raise SketchError(f"unknown sketch wire tag {data[0]}")
    return cls.from_payload(data[1:])
