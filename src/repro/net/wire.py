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
1     tuple       the elements, packed as a list
2     set         the elements sorted by ``repr``, packed as a list
3     frozenset   same as set
4     bigint      big-endian two's-complement bytes (128-bit DHT keys)
5     enum        packed ``[module, qualname, value]``
6     object      packed ``[module, qualname, state-map]``
7     sketch      tagged :mod:`repro.sketches` codec bytes
8     column      ``u32`` element count, then one typed column
====  ==========  =====================================================

A list of at least :data:`COLUMN_MIN_ITEMS` elements whose *exact* types
agree ships as one **typed column** (ext 8) — a kind byte, then: **1–4** ints
as big-endian signed 8/16/32/64-bit, the narrowest that holds ``min`` and
``max``; **5** ints as unsigned 128-bit (DHT keys); **6** floats as IEEE
doubles; **7** strings as a column of character counts, a ``u32`` byte length
and one UTF-8 blob; **8** same-arity tuples as the arity and one column per
position; **9** dicts with the same ``str`` keys in the same order as the key
list and one column per key; **0** anything as msgpack values back to back.
Tuple and dict columns are typed recursively, and whatever fits no typed
kind — mixed types, ``None`` or ``bool`` elements, ragged tuples, ints beyond
128 bits — falls back **per column** to kind 0, the generic walk, so every
value decodes to exactly the types it had.  There is one codec: a peer that
predates ext 8 rejects it with its typed :class:`WireError`; mixed-version
clusters are not supported.

Objects are captured reflectively (``__dict__`` plus ``__slots__``) and
rebuilt with ``cls.__new__`` + ``object.__setattr__`` (which also restores
frozen dataclasses).  Per-class hooks drop transient state — e.g. a
:class:`repro.core.query.QuerySpec`'s opgraph cache, which every
receiver recompiles locally.

This is **not** pickle: decoding imports classes only from ``repro.*``
modules, never calls ``__reduce__``-style callables (ext 5 builds ``Enum``
members only, ext 6 never one), and restores plain attribute state.
Malformed input of any kind raises :class:`WireError`, and a column is
checked against its payload before anything of its size is allocated.  The
real transport still assumes a trusted cluster (any peer can name any
``repro`` class); it is a wire format for one administrative domain,
exactly like the paper's deployments.
"""

from __future__ import annotations

import importlib
import struct
from enum import Enum
from itertools import accumulate, chain
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple, Type

from repro.exceptions import NetworkError, SketchError
from repro.net.message import Message
from repro.sketches import SketchBase, sketch_from_bytes, sketch_to_bytes

#: Frames larger than this are rejected outright (oversized-frame guard):
#: nothing legitimate in this system approaches it, and a corrupt length
#: prefix must not make a reader try to buffer gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Shorter lists are not worth a column header; they take the generic walk.
COLUMN_MIN_ITEMS = 4
#: Tuple/dict columns nest at most this deep (deeper records take the generic
#: walk): each level decodes to one object per element out of a few header
#: bytes, so the depth bounds what a forged frame can make a reader allocate.
MAX_COLUMN_DEPTH = 4

# Ext codes and column kinds, numbered as in the tables above.
_EXT_CONTAINERS: Dict[int, Callable[[List[Any]], Any]] = {1: tuple, 2: set, 3: frozenset}
_EXT_BIGINT, _EXT_ENUM, _EXT_OBJECT, _EXT_SKETCH, _EXT_COLUMN = range(4, 9)
_COL_GENERIC = 0
_COL_UINT128, _COL_FLOAT, _COL_STR, _COL_TUPLE, _COL_DICT = range(5, 10)
#: Fixed-width column kinds: kind -> (struct code, bytes per element).
_COL_FIXED: Dict[int, Tuple[str, int]] = {
    1: ("b", 1), 2: ("h", 2), 3: ("i", 4), 4: ("q", 8),
    _COL_UINT128: ("Q", 16), _COL_FLOAT: ("d", 8),
}
_COLUMN_TYPES = frozenset((int, float, str, tuple, dict))

#: Only classes from these package roots may be instantiated by the decoder.
_TRUSTED_ROOTS = ("repro.",)

#: Per-class state filters: class -> callable(state_dict) -> state_dict.
#: No class needs one today (a spec's lowered plan lives in
#: ``core/opgraph.py``, never on the spec).
_STATE_FILTERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {}


class WireError(NetworkError):
    """Raised for malformed, oversized or untrusted wire data."""


def _trusted(module: str) -> bool:
    return any(module.startswith(root) or module == root.rstrip(".")
               for root in _TRUSTED_ROOTS)


# ---------------------------------------------------------------- packing

Encoder = Callable[[bytearray, Any], None]

_U32 = struct.Struct(">I")
_BH = struct.Struct(">BH").pack
_BI = struct.Struct(">BI").pack
#: Sized scalars: type byte -> struct code of the value behind it.
_SCALARS = dict(zip(range(0xCA, 0xD4), "fdBHIQbhiq"))
_SCALAR_FORMS = {code: struct.Struct(">B" + fmt).pack
                 for code, fmt in _SCALARS.items()}


def _put_header(buf: bytearray, length: int, fix: int, fix_max: int,
                code8: int, code16: int) -> None:
    """A str/bin/array/map header: fix form, 8-bit form if any, 16, 32."""
    if length <= fix_max:
        buf.append(fix | length)
    elif code8 and length <= 0xFF:
        buf += bytes((code8, length))
    elif length <= 0xFFFF:
        buf += _BH(code16, length)
    else:
        buf += _BI(code16 + 1, length)


def _put_ext(buf: bytearray, code: int, write: Encoder, value: Any) -> None:
    """An ext whose payload ``write(buf, value)`` appends in place."""
    buf += bytes((0xC7, 0, code))
    start = len(buf)
    write(buf, value)
    length = len(buf) - start
    if length <= 0xFF:
        buf[start - 2] = length
    else:  # widen the optimistic 8-bit header to the 32-bit form
        buf[start - 3:start - 1] = _BI(0xC9, length)


def _encode_int(buf: bytearray, value: int) -> None:
    if 0 <= value <= 0x7F:
        buf.append(value)
    elif -32 <= value < 0:
        buf.append(value + 0x100)
    else:
        if value > 0:
            bits, code = value.bit_length(), 0xCC
        else:
            bits, code = (~value).bit_length() + 1, 0xD0
        if bits <= 64:
            code += (bits > 8) + (bits > 16) + (bits > 32)
            buf += _SCALAR_FORMS[code](code, value)
        else:
            # Outside the 64-bit range the spec covers: 128-bit DHT keys,
            # Chord identifiers.  Shipped as a signed big-endian ext.
            _put_ext(buf, _EXT_BIGINT, bytearray.extend,
                     value.to_bytes(bits // 8 + 1, "big", signed=True))


def _encode_str(buf: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _put_header(buf, len(data), 0xA0, 0x1F, 0xD9, 0xDA)
    buf += data


def _encode_bin(buf: bytearray, value: bytes) -> None:
    _put_header(buf, len(value), 0, -1, 0xC4, 0xC5)
    buf += value


def _encode_items(buf: bytearray, items: Iterable[Any]) -> None:
    get = _ENCODERS.get
    for item in items:
        kind = type(item)
        (get(kind) or _encoder_for(kind))(buf, item)


def _encode_dict(buf: bytearray, value: Dict[Any, Any]) -> None:
    _put_header(buf, len(value), 0x80, 0x0F, 0, 0xDE)
    _encode_items(buf, chain.from_iterable(value.items()))


def _encode_list(buf: bytearray, value: Sequence[Any]) -> None:
    if (len(value) >= COLUMN_MIN_ITEMS and type(value[0]) in _COLUMN_TYPES
            and len(set(map(type, value))) == 1):
        _put_ext(buf, _EXT_COLUMN, _encode_column, value)
    else:
        _put_header(buf, len(value), 0x90, 0x0F, 0, 0xDC)
        _encode_items(buf, value)


def _encode_column(buf: bytearray, items: Sequence[Any], depth: int = 0) -> None:
    """One column of ``len(items)`` elements, behind their count at depth 0."""
    if not depth:
        buf += _U32.pack(len(items))
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else None
    nest = depth < MAX_COLUMN_DEPTH and bool(items[0])
    if kind is int:
        low, high = min(items), max(items)
        for code in (1, 2, 3, 4):
            fmt, width = _COL_FIXED[code]
            if -(1 << 8 * width - 1) <= low and high < 1 << 8 * width - 1:
                buf.append(code)
                buf += struct.pack(f">{len(items)}{fmt}", *items)
                return
        if low >= 0 and high < 1 << 128:
            buf.append(_COL_UINT128)
            buf += b"".join([item.to_bytes(16, "big") for item in items])
            return
    if kind is float:
        buf.append(_COL_FLOAT)
        buf += struct.pack(f">{len(items)}d", *items)
        return
    if kind is str:
        blob = "".join(items).encode("utf-8")
        buf.append(_COL_STR)
        _encode_column(buf, list(map(len, items)), depth + 1)
        buf += _U32.pack(len(blob))
        buf += blob
        return
    if kind is tuple and nest and len(set(map(len, items))) == 1:
        buf.append(_COL_TUPLE)
        _encode_int(buf, len(items[0]))
        for column in zip(*items):
            _encode_column(buf, column, depth + 1)
        return
    if (kind is dict and nest and set(map(type, items[0])) == {str}
            and len(set(map(tuple, items))) == 1):  # 1 == True == 1.0 as keys
        buf.append(_COL_DICT)
        _encode_list(buf, list(items[0]))
        for column in zip(*(item.values() for item in items)):
            _encode_column(buf, column, depth + 1)
        return
    buf.append(_COL_GENERIC)
    _encode_items(buf, items)


def _encode_sketch(buf: bytearray, value: SketchBase) -> None:
    try:
        _put_ext(buf, _EXT_SKETCH, bytearray.extend, sketch_to_bytes(value))
    except SketchError as exc:
        raise WireError(f"unserialisable sketch: {exc}") from exc


def _class_encoder(cls: Type[Any]) -> Encoder:
    """The reflective plan of an enum or object class, resolved once: root
    check, packed ``[module, qualname`` header, slot list, state filter."""
    tag = f"{cls.__module__}:{cls.__qualname__}"
    if not _trusted(cls.__module__):
        raise WireError(f"refusing to serialise non-repro object {tag}")
    header = bytearray(b"\x93")
    _encode_items(header, (cls.__module__, cls.__qualname__))
    code = _EXT_ENUM if issubclass(cls, Enum) else _EXT_OBJECT
    slots = list(dict.fromkeys(
        slot for klass in cls.__mro__ for slot in getattr(klass, "__slots__", ())
        if slot not in ("__dict__", "__weakref__")))
    fltr = _STATE_FILTERS.get(tag)

    def _write(buf: bytearray, value: Any) -> None:
        buf += header
        if code == _EXT_ENUM:
            _encode_items(buf, (value.value,))
            return
        state: Dict[str, Any] = {}
        for slot in slots:
            try:
                state[slot] = getattr(value, slot)
            except AttributeError:
                pass  # unset slot: simply absent from the wire state
        state.update(getattr(value, "__dict__", ()))
        _encode_dict(buf, state if fltr is None else fltr(state))

    return lambda buf, value: _put_ext(buf, code, _write, value)


_ENCODERS: Dict[type, Encoder] = {
    type(None): lambda buf, value: buf.append(0xC0),
    bool: lambda buf, value: buf.append(0xC3 if value else 0xC2),
    int: _encode_int,
    float: lambda buf, value: buf.extend(_SCALAR_FORMS[0xCB](0xCB, value)),
    str: _encode_str,
    bytes: _encode_bin,
    bytearray: _encode_bin,
    list: _encode_list,
    dict: _encode_dict,
    tuple: lambda buf, value: _put_ext(buf, 1, _encode_list, value),
    set: lambda buf, value: _put_ext(buf, 2, _encode_list, sorted(value, key=repr)),
    frozenset: lambda buf, value: _put_ext(buf, 3, _encode_list, sorted(value, key=repr)),
}


def _encoder_for(cls: type) -> Encoder:
    """Resolve (once) how instances of a class outside the table ship."""
    if issubclass(cls, SketchBase):
        encoder: Encoder = _encode_sketch
    else:
        # Subclasses of the scalars ship as the scalar; bool is in the table.
        bases = [base for base in (float, int, str)
                 if issubclass(cls, base) and not issubclass(cls, Enum)]
        encoder = _ENCODERS[bases[0]] if bases else _class_encoder(cls)
    _ENCODERS[cls] = encoder
    return encoder


def pack(value: Any) -> bytes:
    """Encode ``value`` into msgpack bytes."""
    buf = bytearray()
    _encode_items(buf, (value,))
    return bytes(buf)


# -------------------------------------------------------------- unpacking

#: Successfully resolved wire classes: (module, qualname) -> class.
_CLASSES: Dict[Tuple[str, str], Type[Any]] = {}


def _resolve_class(module: str, qualname: str) -> Type[Any]:
    cls = _CLASSES.get((module, qualname))
    if cls is not None:
        return cls
    if not _trusted(module):
        raise WireError(f"refusing to load class from untrusted module {module!r}")
    try:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise WireError(f"unknown wire class {module}:{qualname}") from exc
    if not isinstance(obj, type):
        raise WireError(f"{module}:{qualname} is not a class")
    _CLASSES[(module, qualname)] = obj
    return obj


_SCALAR, _STR, _BIN, _ARRAY, _MAP, _EXT = range(6)
#: Type byte -> (struct of the bytes behind it, what its first field means).
_HEADS: Dict[int, Tuple[struct.Struct, int]] = {
    code: (struct.Struct(">" + fmt), meaning)
    for first, meaning, fmts in (
        (0xC4, _BIN, ("B", "H", "I")), (0xC7, _EXT, ("Bb", "Hb", "Ib")),
        (0xCA, _SCALAR, tuple(_SCALARS.values())), (0xD4, _EXT, ("b",) * 5),
        (0xD9, _STR, ("B", "H", "I")), (0xDC, _ARRAY, ("H", "I")),
        (0xDE, _MAP, ("H", "I")))
    for code, fmt in enumerate(fmts, first)}
_CONSTANTS = {0xC0: None, 0xC2: False, 0xC3: True}


def _decode(buf: bytes, pos: int) -> Tuple[Any, int]:
    """Decode the value starting at ``pos``; returns it and the next offset.

    Reads past the end of ``buf`` either raise (index, struct) or leave the
    returned offset beyond ``len(buf)``, which :func:`unpack` rejects.
    """
    first = buf[pos]
    pos += 1
    if first <= 0x7F:
        return first, pos
    if first >= 0xE0:
        return first - 0x100, pos
    if first <= 0x8F:
        return _decode_map(buf, pos, first & 0x0F)
    if first <= 0x9F:
        return _decode_array(buf, pos, first & 0x0F)
    if first <= 0xBF:
        end = pos + (first & 0x1F)
        return buf[pos:end].decode("utf-8"), end
    if first in _CONSTANTS:
        return _CONSTANTS[first], pos
    if first not in _HEADS:
        raise WireError(f"unsupported msgpack type byte 0x{first:02x}")
    layout, meaning = _HEADS[first]
    fields = layout.unpack_from(buf, pos)
    pos += layout.size
    if meaning == _SCALAR:
        return fields[0], pos
    if meaning == _EXT:  # fixext 1/2/4/8/16 (0xD4-0xD8) carry only the code
        length = 1 << first - 0xD4 if len(fields) == 1 else fields[0]
        return _decode_ext(buf, pos, length, fields[-1])
    if meaning == _ARRAY:
        return _decode_array(buf, pos, fields[0])
    if meaning == _MAP:
        return _decode_map(buf, pos, fields[0])
    end = pos + fields[0]
    return (buf[pos:end].decode("utf-8") if meaning == _STR else buf[pos:end]), end


def _decode_array(buf: bytes, pos: int, length: int) -> Tuple[List[Any], int]:
    items = []
    for _ in range(length):
        value, pos = _decode(buf, pos)
        items.append(value)
    return items, pos


def _decode_map(buf: bytes, pos: int, length: int) -> Tuple[Dict[Any, Any], int]:
    result: Dict[Any, Any] = {}
    for _ in range(length):
        key, pos = _decode(buf, pos)
        result[key], pos = _decode(buf, pos)
    return result, pos


def _decode_ext(buf: bytes, pos: int, length: int, code: int) -> Tuple[Any, int]:
    end = pos + length
    if end > len(buf):
        raise WireError("truncated ext payload")
    if code == _EXT_BIGINT:
        return int.from_bytes(buf[pos:end], "big", signed=True), end
    if code == _EXT_SKETCH:
        try:
            return sketch_from_bytes(buf[pos:end]), end
        except SketchError as exc:
            raise WireError(f"malformed sketch payload: {exc}") from exc
    if code == _EXT_COLUMN:
        (count,) = _U32.unpack_from(buf, pos)
        value, pos = _decode_column(buf, pos + 4, count, 0)
    elif code in _EXT_CONTAINERS:
        value, pos = _decode(buf, pos)
        if type(value) is not list:
            raise WireError(f"ext {code} payload is not a list")
        value = _EXT_CONTAINERS[code](value)
    elif code in (_EXT_ENUM, _EXT_OBJECT):
        (module, qualname, state), pos = _decode(buf, pos)
        cls = _resolve_class(module, qualname)
        if issubclass(cls, Enum) != (code == _EXT_ENUM):
            raise WireError(f"ext {code} cannot carry {module}:{qualname}")
        if code == _EXT_ENUM:
            value = cls(state)
        else:
            value = cls.__new__(cls)
            for name, item in state.items():
                object.__setattr__(value, name, item)
    else:
        raise WireError(f"unknown wire ext type {code}")
    if pos != end:
        raise WireError(f"ext {code} payload is not exactly one value")
    return value, end


def _decode_column(buf: bytes, pos: int, count: int,
                   depth: int) -> Tuple[List[Any], int]:
    """Decode one column of ``count`` elements starting at its kind byte."""
    kind = buf[pos]
    pos += 1
    # Every kind spends at least one byte per element: a forged count is
    # refused here, before anything of that size is allocated.
    if count > len(buf) - pos:
        raise WireError(f"column of {count} elements in {len(buf) - pos} bytes")
    if kind in _COL_FIXED:
        fmt, width = _COL_FIXED[kind]
        end = pos + count * width
        if end > len(buf):
            raise WireError("column longer than its payload")
        if kind != _COL_UINT128:
            return list(struct.unpack_from(f">{count}{fmt}", buf, pos)), end
        words = iter(struct.unpack_from(f">{2 * count}Q", buf, pos))
        return [high << 64 | low for high, low in zip(words, words)], end
    if kind == _COL_GENERIC:
        return _decode_array(buf, pos, count)
    if depth > MAX_COLUMN_DEPTH or kind not in (_COL_STR, _COL_TUPLE, _COL_DICT):
        raise WireError(f"column kind {kind} at depth {depth}")
    if kind == _COL_STR:
        lengths, pos = _decode_column(buf, pos, count, depth + 1)
        (size,) = _U32.unpack_from(buf, pos)
        end = pos + 4 + size
        text = buf[pos + 4:end].decode("utf-8")
        bounds = list(accumulate(lengths, initial=0))
        if end > len(buf) or bounds[-1] != len(text) or (count and min(lengths) < 0):
            raise WireError("string column does not match its blob")
        return [text[a:b] for a, b in zip(bounds, bounds[1:])], end
    shape, pos = _decode(buf, pos)  # a tuple column's arity, a dict column's keys
    arity = shape if kind == _COL_TUPLE else len(shape)
    if type(arity) is not int or arity < 1:
        raise WireError(f"record column of arity {arity!r}")
    columns = []
    for _ in range(arity):
        column, pos = _decode_column(buf, pos, count, depth + 1)
        columns.append(column)
    if kind == _COL_TUPLE:
        return list(zip(*columns)), pos
    return [dict(zip(shape, row)) for row in zip(*columns)], pos


#: What decoding malformed bytes can raise besides :class:`WireError`.
_DECODE_ERRORS = (struct.error, ValueError, TypeError, LookupError,
                  AttributeError, OverflowError, RecursionError)


def unpack(data: bytes) -> Any:
    """Decode one msgpack value from ``data`` (which must be exactly one)."""
    if type(data) is not bytes:
        data = bytes(data)
    try:
        value, pos = _decode(data, 0)
    except _DECODE_ERRORS as exc:
        raise WireError(f"malformed msgpack data ({type(exc).__name__}: {exc})") from exc
    if pos != len(data):
        raise WireError(f"msgpack value ends at byte {pos} of {len(data)}")
    return value


# ---------------------------------------------------------------- framing


def encode_frame(value: Any, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame: 4-byte big-endian length prefix + msgpack body."""
    buf = bytearray(4)
    _encode_items(buf, (value,))
    if len(buf) - 4 > max_frame_bytes:
        raise WireError(f"frame of {len(buf) - 4} bytes exceeds {max_frame_bytes}")
    _U32.pack_into(buf, 0, len(buf) - 4)
    return bytes(buf)


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
        buffer = self._buffer
        buffer += data
        frames: List[Any] = []
        start = 0
        with memoryview(buffer) as view:
            while len(buffer) - start >= 4:
                (length,) = _U32.unpack_from(buffer, start)
                if length > self._max:
                    raise WireError(
                        f"incoming frame of {length} bytes exceeds {self._max}"
                    )
                end = start + 4 + length
                if end > len(buffer):
                    break
                frames.append(unpack(bytes(view[start + 4:end])))
                start = end
        del buffer[:start]  # once per read, not per frame
        return frames


# ------------------------------------------------------- message envelopes


def message_to_wire(message: Message) -> Dict[str, Any]:
    """The node-to-node frame body for a :class:`Message`."""
    return {"t": "msg", "src": message.src, "dst": message.dst,
            "protocol": message.protocol, "payload": message.payload,
            "payload_bytes": message.payload_bytes, "hops": message.hops}


def message_from_wire(body: Dict[str, Any]) -> Message:
    """Rebuild the :class:`Message` a peer framed with :func:`message_to_wire`."""
    return Message(body["src"], body["dst"], body["protocol"], body.get("payload"),
                   body.get("payload_bytes", 0), body.get("hops", 0))


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
