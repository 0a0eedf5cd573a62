"""msgpack wire format for the real transport.

Every frame the asyncio transport ships — node-to-node messages, bootstrap
membership, client gateway RPCs — is one msgpack-encoded value behind a
4-byte big-endian length prefix.  The encoder/decoder here is a
self-contained, spec-compliant msgpack implementation (the container image
carries no ``msgpack`` wheel, and the format is small enough that carrying
our own keeps the real backend dependency-free); when the C ``msgpack``
package *is* importable the unit tests cross-validate against it.

Application extension types (msgpack ``ext``)
---------------------------------------------
The PIER object model crosses the wire as-is — :class:`QuerySpec`
multicasts, :class:`DHTItem` replies, statistics partials, Bloom filters —
so the codec adds ext types on top of the standard scalars/arrays/maps:

====  ==========  =====================================================
code  type        payload
====  ==========  =====================================================
1     tuple       packed array (slotted rows, multicast ids, zone bounds)
2     set         packed array
3     frozenset   packed array
4     bigint      big-endian two's-complement bytes (128-bit DHT keys)
5     enum        packed ``[module, qualname, value]``
6     object      packed ``[module, qualname, state-map]``
7     sketch      tagged :mod:`repro.sketches` codec bytes
====  ==========  =====================================================

Objects are captured reflectively (``__dict__`` plus ``__slots__``) and
rebuilt with ``cls.__new__`` + ``object.__setattr__`` (which also restores
frozen dataclasses).  Per-class hooks drop transient state — e.g. a
:class:`repro.core.query.QuerySpec`'s opgraph cache, which every
receiver recompiles locally.

This is **not** pickle: decoding imports classes only from ``repro.*``
modules, never calls ``__reduce__``-style callables, and restores plain
attribute state.  The real transport still assumes a trusted cluster (any
peer can name any ``repro`` class); it is a wire format for one
administrative domain, exactly like the paper's deployments.
"""

from __future__ import annotations

import importlib
import struct
from enum import Enum
from typing import Any, Callable, Dict, List, Type

from repro.exceptions import NetworkError, SketchError
from repro.net.message import Message
from repro.sketches import SketchBase, sketch_from_bytes, sketch_to_bytes

#: Frames larger than this are rejected outright (oversized-frame guard):
#: nothing legitimate in this system approaches it, and a corrupt length
#: prefix must not make a reader try to buffer gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_EXT_TUPLE = 1
_EXT_SET = 2
_EXT_FROZENSET = 3
_EXT_BIGINT = 4
_EXT_ENUM = 5
_EXT_OBJECT = 6
_EXT_SKETCH = 7

#: Only classes from these package roots may be instantiated by the decoder.
_TRUSTED_ROOTS = ("repro.",)

#: Per-class state filters: class -> callable(state_dict) -> state_dict.
_STATE_FILTERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {}


def _drop_keys(*keys: str) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    def _filter(state: Dict[str, Any]) -> Dict[str, Any]:
        for key in keys:
            state.pop(key, None)
        return state

    return _filter


# The cached operator graph is plan-local (kernels and closures); every
# receiver of a QuerySpec rebuilds it from the spec itself.
_STATE_FILTERS["repro.core.query:QuerySpec"] = _drop_keys("_opgraph_cache")


class WireError(NetworkError):
    """Raised for malformed, oversized or untrusted wire data."""


# ---------------------------------------------------------------- packing


class _Packer:
    __slots__ = ("_chunks",)

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def bytes(self) -> bytes:
        return b"".join(self._chunks)

    def pack(self, value: Any) -> None:
        chunks = self._chunks
        if value is None:
            chunks.append(b"\xc0")
        elif value is True:
            chunks.append(b"\xc3")
        elif value is False:
            chunks.append(b"\xc2")
        elif type(value) is int:
            self._pack_int(value)
        elif type(value) is float:
            chunks.append(struct.pack(">Bd", 0xCB, value))
        elif type(value) is str:
            self._pack_str(value)
        elif type(value) is bytes or type(value) is bytearray:
            self._pack_bin(bytes(value))
        elif type(value) is list:
            self._pack_array_header(len(value))
            for item in value:
                self.pack(item)
        elif type(value) is dict:
            self._pack_map_header(len(value))
            for key, item in value.items():
                self.pack(key)
                self.pack(item)
        elif type(value) is tuple:
            self._pack_ext(_EXT_TUPLE, pack(list(value)))
        elif type(value) is set:
            self._pack_ext(_EXT_SET, pack(sorted(value, key=repr)))
        elif type(value) is frozenset:
            self._pack_ext(_EXT_FROZENSET, pack(sorted(value, key=repr)))
        elif isinstance(value, SketchBase):
            try:
                self._pack_ext(_EXT_SKETCH, sketch_to_bytes(value))
            except SketchError as exc:
                raise WireError(f"unserialisable sketch: {exc}") from exc
        elif isinstance(value, Enum):
            self._pack_ext(_EXT_ENUM, pack([
                type(value).__module__, type(value).__qualname__, value.value,
            ]))
        elif isinstance(value, float):  # float subclasses
            chunks.append(struct.pack(">Bd", 0xCB, float(value)))
        elif isinstance(value, int):  # bool handled above; int subclasses
            self._pack_int(int(value))
        elif isinstance(value, str):
            self._pack_str(str(value))
        else:
            self._pack_object(value)

    def _pack_int(self, value: int) -> None:
        chunks = self._chunks
        if 0 <= value <= 0x7F:
            chunks.append(struct.pack("B", value))
        elif -32 <= value < 0:
            chunks.append(struct.pack("b", value))
        elif 0 < value <= 0xFF:
            chunks.append(struct.pack(">BB", 0xCC, value))
        elif 0 < value <= 0xFFFF:
            chunks.append(struct.pack(">BH", 0xCD, value))
        elif 0 < value <= 0xFFFFFFFF:
            chunks.append(struct.pack(">BI", 0xCE, value))
        elif 0 < value <= 0xFFFFFFFFFFFFFFFF:
            chunks.append(struct.pack(">BQ", 0xCF, value))
        elif -0x80 <= value < 0:
            chunks.append(struct.pack(">Bb", 0xD0, value))
        elif -0x8000 <= value < 0:
            chunks.append(struct.pack(">Bh", 0xD1, value))
        elif -0x80000000 <= value < 0:
            chunks.append(struct.pack(">Bi", 0xD2, value))
        elif -0x8000000000000000 <= value < 0:
            chunks.append(struct.pack(">Bq", 0xD3, value))
        else:
            # Outside the 64-bit range the spec covers: 128-bit DHT keys,
            # Chord identifiers.  Shipped as a signed big-endian ext.
            width = (value.bit_length() + 8) // 8  # +8 keeps the sign bit
            payload = value.to_bytes(width, "big", signed=True)
            self._pack_ext(_EXT_BIGINT, payload)

    def _pack_str(self, value: str) -> None:
        data = value.encode("utf-8")
        length = len(data)
        chunks = self._chunks
        if length <= 0x1F:
            chunks.append(struct.pack("B", 0xA0 | length))
        elif length <= 0xFF:
            chunks.append(struct.pack(">BB", 0xD9, length))
        elif length <= 0xFFFF:
            chunks.append(struct.pack(">BH", 0xDA, length))
        else:
            chunks.append(struct.pack(">BI", 0xDB, length))
        chunks.append(data)

    def _pack_bin(self, data: bytes) -> None:
        length = len(data)
        chunks = self._chunks
        if length <= 0xFF:
            chunks.append(struct.pack(">BB", 0xC4, length))
        elif length <= 0xFFFF:
            chunks.append(struct.pack(">BH", 0xC5, length))
        else:
            chunks.append(struct.pack(">BI", 0xC6, length))
        chunks.append(data)

    def _pack_array_header(self, length: int) -> None:
        chunks = self._chunks
        if length <= 0x0F:
            chunks.append(struct.pack("B", 0x90 | length))
        elif length <= 0xFFFF:
            chunks.append(struct.pack(">BH", 0xDC, length))
        else:
            chunks.append(struct.pack(">BI", 0xDD, length))

    def _pack_map_header(self, length: int) -> None:
        chunks = self._chunks
        if length <= 0x0F:
            chunks.append(struct.pack("B", 0x80 | length))
        elif length <= 0xFFFF:
            chunks.append(struct.pack(">BH", 0xDE, length))
        else:
            chunks.append(struct.pack(">BI", 0xDF, length))

    def _pack_ext(self, code: int, payload: bytes) -> None:
        length = len(payload)
        chunks = self._chunks
        if length == 1:
            chunks.append(struct.pack(">Bb", 0xD4, code))
        elif length == 2:
            chunks.append(struct.pack(">Bb", 0xD5, code))
        elif length == 4:
            chunks.append(struct.pack(">Bb", 0xD6, code))
        elif length == 8:
            chunks.append(struct.pack(">Bb", 0xD7, code))
        elif length == 16:
            chunks.append(struct.pack(">Bb", 0xD8, code))
        elif length <= 0xFF:
            chunks.append(struct.pack(">BBb", 0xC7, length, code))
        elif length <= 0xFFFF:
            chunks.append(struct.pack(">BHb", 0xC8, length, code))
        else:
            chunks.append(struct.pack(">BIb", 0xC9, length, code))
        chunks.append(payload)

    def _pack_object(self, value: Any) -> None:
        cls = type(value)
        state: Dict[str, Any] = {}
        for klass in cls.__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot in ("__dict__", "__weakref__") or slot in state:
                    continue
                try:
                    state[slot] = getattr(value, slot)
                except AttributeError:
                    pass  # unset slot: simply absent from the wire state
        if hasattr(value, "__dict__"):
            state.update(value.__dict__)
        tag = f"{cls.__module__}:{cls.__qualname__}"
        if not tag.startswith(_TRUSTED_ROOTS):
            raise WireError(f"refusing to serialise non-repro object {tag}")
        fltr = _STATE_FILTERS.get(tag)
        if fltr is not None:
            state = fltr(state)
        self._pack_ext(_EXT_OBJECT, pack([
            cls.__module__, cls.__qualname__, state,
        ]))


def pack(value: Any) -> bytes:
    """Encode ``value`` into msgpack bytes."""
    packer = _Packer()
    packer.pack(value)
    return packer.bytes()


# -------------------------------------------------------------- unpacking


def _resolve_class(module: str, qualname: str) -> Type[Any]:
    if not any(module.startswith(root) or module == root.rstrip(".")
               for root in _TRUSTED_ROOTS):
        raise WireError(f"refusing to load class from untrusted module {module!r}")
    try:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise WireError(f"unknown wire class {module}:{qualname}") from exc
    if not isinstance(obj, type):
        raise WireError(f"{module}:{qualname} is not a class")
    return obj


class _Unpacker:
    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise WireError("truncated msgpack data")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def unpack(self) -> Any:
        first = self._take(1)[0]
        if first <= 0x7F:
            return first
        if first >= 0xE0:
            return first - 0x100
        if 0x80 <= first <= 0x8F:
            return self._unpack_map(first & 0x0F)
        if 0x90 <= first <= 0x9F:
            return self._unpack_array(first & 0x0F)
        if 0xA0 <= first <= 0xBF:
            return self._take(first & 0x1F).decode("utf-8")
        handler = _UNPACK_DISPATCH.get(first)
        if handler is None:
            raise WireError(f"unsupported msgpack type byte 0x{first:02x}")
        return handler(self)

    def _unpack_array(self, length: int) -> List[Any]:
        return [self.unpack() for _ in range(length)]

    def _unpack_map(self, length: int) -> Dict[Any, Any]:
        result: Dict[Any, Any] = {}
        for _ in range(length):
            key = self.unpack()
            result[key] = self.unpack()
        return result

    def _unpack_ext(self, code: int, payload: bytes) -> Any:
        if code == _EXT_TUPLE:
            return tuple(unpack(payload))
        if code == _EXT_SET:
            return set(unpack(payload))
        if code == _EXT_FROZENSET:
            return frozenset(unpack(payload))
        if code == _EXT_BIGINT:
            return int.from_bytes(payload, "big", signed=True)
        if code == _EXT_ENUM:
            module, qualname, value = unpack(payload)
            return _resolve_class(module, qualname)(value)
        if code == _EXT_OBJECT:
            module, qualname, state = unpack(payload)
            cls = _resolve_class(module, qualname)
            instance = cls.__new__(cls)
            for name, value in state.items():
                object.__setattr__(instance, name, value)
            return instance
        if code == _EXT_SKETCH:
            try:
                return sketch_from_bytes(payload)
            except SketchError as exc:
                raise WireError(f"malformed sketch payload: {exc}") from exc
        raise WireError(f"unknown wire ext type {code}")


def _make_scalar(fmt: str, size: int) -> Callable[[_Unpacker], Any]:
    def _handler(self: _Unpacker) -> Any:
        return struct.unpack(fmt, self._take(size))[0]

    return _handler


def _make_str(fmt: str, size: int) -> Callable[[_Unpacker], str]:
    def _handler(self: _Unpacker) -> str:
        length = struct.unpack(fmt, self._take(size))[0]
        return self._take(length).decode("utf-8")

    return _handler


def _make_bin(fmt: str, size: int) -> Callable[[_Unpacker], bytes]:
    def _handler(self: _Unpacker) -> bytes:
        length = struct.unpack(fmt, self._take(size))[0]
        return bytes(self._take(length))

    return _handler


def _make_seq(fmt: str, size: int, is_map: bool) -> Callable[[_Unpacker], Any]:
    def _handler(self: _Unpacker) -> Any:
        length = struct.unpack(fmt, self._take(size))[0]
        return self._unpack_map(length) if is_map else self._unpack_array(length)

    return _handler


def _make_fixext(size: int) -> Callable[[_Unpacker], Any]:
    def _handler(self: _Unpacker) -> Any:
        code = struct.unpack("b", self._take(1))[0]
        return self._unpack_ext(code, self._take(size))

    return _handler


def _make_ext(fmt: str, size: int) -> Callable[[_Unpacker], Any]:
    def _handler(self: _Unpacker) -> Any:
        length = struct.unpack(fmt, self._take(size))[0]
        code = struct.unpack("b", self._take(1))[0]
        return self._unpack_ext(code, self._take(length))

    return _handler


_UNPACK_DISPATCH: Dict[int, Callable[[_Unpacker], Any]] = {
    0xC0: lambda self: None,
    0xC2: lambda self: False,
    0xC3: lambda self: True,
    0xC4: _make_bin(">B", 1),
    0xC5: _make_bin(">H", 2),
    0xC6: _make_bin(">I", 4),
    0xC7: _make_ext(">B", 1),
    0xC8: _make_ext(">H", 2),
    0xC9: _make_ext(">I", 4),
    0xCA: _make_scalar(">f", 4),
    0xCB: _make_scalar(">d", 8),
    0xCC: _make_scalar(">B", 1),
    0xCD: _make_scalar(">H", 2),
    0xCE: _make_scalar(">I", 4),
    0xCF: _make_scalar(">Q", 8),
    0xD0: _make_scalar("b", 1),
    0xD1: _make_scalar(">h", 2),
    0xD2: _make_scalar(">i", 4),
    0xD3: _make_scalar(">q", 8),
    0xD4: _make_fixext(1),
    0xD5: _make_fixext(2),
    0xD6: _make_fixext(4),
    0xD7: _make_fixext(8),
    0xD8: _make_fixext(16),
    0xD9: _make_str(">B", 1),
    0xDA: _make_str(">H", 2),
    0xDB: _make_str(">I", 4),
    0xDC: _make_seq(">H", 2, False),
    0xDD: _make_seq(">I", 4, False),
    0xDE: _make_seq(">H", 2, True),
    0xDF: _make_seq(">I", 4, True),
}


def unpack(data: bytes) -> Any:
    """Decode one msgpack value from ``data`` (which must be exactly one)."""
    unpacker = _Unpacker(data)
    value = unpacker.unpack()
    if unpacker._pos != len(data):
        raise WireError(
            f"trailing bytes after msgpack value ({len(data) - unpacker._pos})"
        )
    return value


# ---------------------------------------------------------------- framing


def encode_frame(value: Any, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame: 4-byte big-endian length prefix + msgpack body."""
    body = pack(value)
    if len(body) > max_frame_bytes:
        raise WireError(f"frame of {len(body)} bytes exceeds {max_frame_bytes}")
    return struct.pack(">I", len(body)) + body


class FrameDecoder:
    """Incremental frame splitter for a TCP byte stream.

    Feed it whatever ``recv`` produced; it yields complete decoded values
    and buffers partial frames across calls.  A length prefix above the
    frame limit raises — the connection is poisoned and must be dropped.
    """

    __slots__ = ("_buffer", "_max")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    def feed(self, data: bytes) -> List[Any]:
        """Absorb ``data``; return every frame completed by it, in order."""
        self._buffer.extend(data)
        frames: List[Any] = []
        while True:
            if len(self._buffer) < 4:
                return frames
            (length,) = struct.unpack_from(">I", self._buffer)
            if length > self._max:
                raise WireError(
                    f"incoming frame of {length} bytes exceeds {self._max}"
                )
            if len(self._buffer) < 4 + length:
                return frames
            body = bytes(self._buffer[4:4 + length])
            del self._buffer[:4 + length]
            frames.append(unpack(body))


# ------------------------------------------------------- message envelopes


def message_to_wire(message: Message) -> Dict[str, Any]:
    """The node-to-node frame body for a :class:`Message`."""
    return {
        "t": "msg",
        "src": message.src,
        "dst": message.dst,
        "protocol": message.protocol,
        "payload": message.payload,
        "payload_bytes": message.payload_bytes,
        "hops": message.hops,
    }


def message_from_wire(body: Dict[str, Any]) -> Message:
    """Rebuild the :class:`Message` a peer framed with :func:`message_to_wire`."""
    return Message(
        src=body["src"],
        dst=body["dst"],
        protocol=body["protocol"],
        payload=body.get("payload"),
        payload_bytes=body.get("payload_bytes", 0),
        hops=body.get("hops", 0),
    )


__all__ = [
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "WireError",
    "encode_frame",
    "message_from_wire",
    "message_to_wire",
    "pack",
    "unpack",
]
