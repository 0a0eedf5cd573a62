"""Property and fuzz tests for the wire codec (repro.net.wire).

Four families:

* **round trips** of generated values, compared *type-exactly* (``True`` is
  not ``1``, a tuple is not a list, ``-0.0`` is not ``0.0``, dict key order
  counts) — with the typed-column ext on both sides of every decision it
  takes: length threshold, homogeneous vs. mixed, int width boundaries,
  same-key vs. reordered dicts, same-arity vs. ragged tuples, nesting depth;
* **hostile input**: forged ext payloads, every prefix and every byte of
  recorded protocol frames corrupted — decoding either succeeds or raises
  :class:`WireError`, nothing else, and never allocates past what the
  payload pays for;
* **forged lengths**: recorded ``prov.put_chunk``, ``prov.get_batch_reply``
  and ``can.route_batch`` frames whose parallel arrays disagree decode fine —
  their receivers refuse them whole; a routed batch whose keys are not
  ints raises in its handler, and the node's delivery scope still
  closes, on the simulator and over TCP; a frame without the fields its
  kind needs is dropped and the rest of its read still delivered;
* **framing**: :class:`FrameDecoder` yields the same frames for any split
  of the byte stream.
"""

from __future__ import annotations

import asyncio
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import JoinStrategy, QueryTeardown
from repro.dht.can import CanNetworkBuilder
from repro.dht.naming import hash_keys
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology
from repro.net.wire import (
    COLUMN_MIN_ITEMS,
    MAX_COLUMN_DEPTH,
    FrameDecoder,
    WireError,
    encode_frame,
    message_from_wire,
    message_to_wire,
    pack,
    unpack,
)
from tests.test_batch_apis import ENTRIES, build_network
from tests.test_real_hotpath import (
    loopback_overlay,
    one_node_cluster,
    wait_for,
    write_at_once,
)

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


# --------------------------------------------------------------- helpers


def same(a, b) -> bool:
    """Type-exact, order-exact, bit-exact (floats) equality."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return (math.isnan(a) and math.isnan(b)) or (
            struct.pack(">d", a) == struct.pack(">d", b))
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return same(list(a.items()), list(b.items()))
    if type(a) in (set, frozenset):
        return same(sorted(a, key=repr), sorted(b, key=repr))
    return a == b


def roundtrips(value) -> bool:
    return same(unpack(pack(value)), value)


def ext(code: int, payload: bytes) -> bytes:
    return struct.pack(">BIb", 0xC9, len(payload), code) + payload


def split_ext(blob: bytes):
    """``(code, payload)`` of a blob that is exactly one ext 8/32 value."""
    if blob[0] == 0xC7:
        return struct.unpack_from(">b", blob, 2)[0], blob[3:]
    assert blob[0] == 0xC9, hex(blob[0])
    return struct.unpack_from(">b", blob, 5)[0], blob[6:]


def column_kind(value) -> int:
    """The kind byte the encoder chose for ``value`` (must ship as ext 8)."""
    code, payload = split_ext(pack(value))
    assert code == 8
    assert struct.unpack_from(">I", payload)[0] == len(value)
    return payload[4]


def count_nodes(value) -> int:
    """Containers plus leaves: what a decoded value made the reader allocate."""
    if type(value) in (list, tuple, set, frozenset):
        return 1 + sum(map(count_nodes, value))
    if type(value) is dict:
        return 1 + sum(map(count_nodes, value.values()))
    return 1


# ------------------------------------------------------------ round trips

INTS = st.integers(-2**130, 2**130)
SCALARS = (
    st.integers(-2**7, 2**7 - 1), st.integers(-2**31, 2**31 - 1),
    st.integers(-2**63, 2**63 - 1), st.integers(0, 2**128 - 1), INTS,
    st.floats(allow_nan=True), st.text(max_size=8), st.booleans(), st.none(),
    st.binary(max_size=6),
)
KEYS = st.one_of(st.text(max_size=4), st.integers(0, 9), st.booleans(),
                 st.sampled_from([0.0, 1.0]))


def lookalike(key):
    """An equal key of another type (``1 == True == 1.0``), else the key."""
    if type(key) is str or key not in (0, 1):
        return key
    return {int: bool, bool: float, float: int}[type(key)](key)


@st.composite
def column(draw, n: int, depth: int):
    """``n`` elements from *one* element strategy: scalars of one kind, or
    records (tuples / dicts) whose fields are such columns again — sometimes
    with one ragged tuple, or one dict holding its keys in another order or
    under equal keys of another type."""
    kind = draw(st.sampled_from(("scalar", "tuple", "dict") if depth
                                else ("scalar",)))
    if kind == "scalar":
        elements = draw(st.sampled_from(SCALARS))
        return [draw(elements) for _ in range(n)]
    arity = draw(st.integers(0, 3))
    fields = [draw(column(n, depth - 1)) for _ in range(arity)]
    rows = list(zip(*fields)) if arity else [()] * n
    odd = draw(st.integers(0, n - 1)) if n and draw(st.booleans()) else None
    if kind == "dict":
        keys = draw(st.lists(KEYS, min_size=arity, max_size=arity, unique=True))
        rows = [dict(zip(keys, row)) for row in rows]
        if odd is not None and draw(st.booleans()):
            rows[odd] = dict(reversed(list(rows[odd].items())))
        elif odd is not None:
            rows[odd] = {lookalike(key): item for key, item in rows[odd].items()}
    elif odd is not None:
        rows[odd] = rows[odd][:-1]
    return rows


@FUZZ
@given(st.data())
def test_columns_roundtrip_type_exact(data):
    n = data.draw(st.integers(0, 2 * COLUMN_MIN_ITEMS + 1))
    value = data.draw(column(n, depth=2))
    if value and data.draw(st.booleans()):
        # One element of another type: the column must fall back, not coerce.
        spot = data.draw(st.integers(0, n - 1))
        value[spot] = data.draw(st.sampled_from([None, True, 1, 1.5, "x", ()]))
    assert roundtrips(value)
    assert roundtrips({"payload": value, "again": tuple(value)})


NESTED = st.recursive(
    st.one_of(*SCALARS),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.frozensets(st.one_of(st.integers(-9, 2**70), st.text(max_size=3)),
                      max_size=6),
    ),
    max_leaves=40,
)


@FUZZ
@given(NESTED)
def test_nested_values_roundtrip_type_exact(value):
    assert roundtrips(value)
    frames = FrameDecoder().feed(encode_frame(value))
    assert len(frames) == 1 and same(frames[0], value)


@pytest.mark.parametrize("bits, kind", [(7, 1), (15, 2), (31, 3), (63, 4)])
def test_int_columns_take_the_narrowest_width(bits, kind):
    fits = [-(2**bits), 2**bits - 1, 0, -1]
    assert column_kind(fits) == kind and roundtrips(fits)
    for beyond in ([2**bits, 0, 0, 0], [-(2**bits) - 1, 0, 0, 0]):
        assert column_kind(beyond) != kind and roundtrips(beyond)
    # A narrow column is what it says: one element per ``bits + 1`` bits.
    assert len(pack(fits * 64)) < 64 * 4 * (bits + 1) // 8 + 16


def test_wide_int_columns():
    for keys in ([2**63, 0, 1, 2], [2**64, 0, 0, 0], [2**127, 5, 6, 7],
                 [2**128 - 1] * 4):
        assert column_kind(keys) == 5 and roundtrips(keys)
    # Unsigned only, 128 bits only: anything else takes the generic walk.
    for keys in ([2**128, 0, 0, 0], [-(2**100), 0, 0, 0], [-1, 2**64, 0, 0]):
        assert column_kind(keys) == 0 and roundtrips(keys)


def test_float_and_string_columns():
    floats = [float("nan"), -0.0, 0.0, math.inf, -math.inf, 5e-324]
    assert column_kind(floats) == 6 and roundtrips(floats)
    strings = ["", "é", "日本語", "a" * 300, "", "\x00|"]
    assert column_kind(strings) == 7 and roundtrips(strings)
    assert roundtrips([""] * COLUMN_MIN_ITEMS)


def test_threshold_and_fallback_lists_stay_plain_arrays():
    short = list(range(COLUMN_MIN_ITEMS - 1))
    assert pack(short)[0] == 0x90 | len(short) and roundtrips(short)
    for mixed in ([1, None, 2, 3], [True, False, True, True], [1, True, 2, 3],
                  [1, 2.0, 3, 4], ["a", b"a", "b", "c"], [None] * 5,
                  [[1], [2], [3], [4]]):
        assert pack(mixed)[0] == 0x90 | len(mixed)
        assert roundtrips(mixed)


def test_record_columns_and_their_fallbacks():
    rows = [{"R.pkey": i, "R.pad": "x" * i, "S.num": i / 3} for i in range(5)]
    assert column_kind(rows) == 9 and roundtrips(rows)
    reordered = rows[:4] + [dict(reversed(list(rows[4].items())))]
    assert column_kind(reordered) == 0 and roundtrips(reordered)
    assert column_kind([{"a": 1}] * 3 + [{"b": 1}]) == 0
    # 1 == True == 1.0 (and 0.0 == -0.0) as keys: shipping one row's key list
    # for all would retype the others, so only exact-str keys make a column.
    for lookalikes in ([{1: "a"}, {True: "b"}, {1.0: "c"}, {1: "d"}],
                       [{0.0: 1}, {-0.0: 2}, {0.0: 3}, {0: 4}],
                       [{1: "a", "k": 2}] * 4):
        assert column_kind(lookalikes) == 0 and roundtrips(lookalikes)
    points = [(i, float(i), str(i)) for i in range(6)]
    assert column_kind(points) == 8 and roundtrips(points)
    ragged = points[:5] + [(1, 2.0)]
    assert column_kind(ragged) == 0 and roundtrips(ragged)
    for empties in ([()] * 4, [{}] * 4):
        assert column_kind(empties) == 0 and roundtrips(empties)
    # One field that fits no typed kind falls back alone; its neighbours
    # stay typed (the payload shrinks against the all-generic encoding).
    chunk = [("R", (i, None if i == 2 else 1.5, "pad")) for i in range(40)]
    assert column_kind(chunk) == 8 and roundtrips(chunk)
    assert len(pack(chunk)) < len(pack([list(row) for row in chunk]))


def test_records_nest_to_the_depth_bound_and_fall_back_beyond():
    def nest(levels):
        value = [1, 2, 3, 4]
        for _ in range(levels):
            value = [(item,) for item in value]
        return value

    for levels in range(MAX_COLUMN_DEPTH + 3):
        assert roundtrips(nest(levels))
    deep, deeper = pack(nest(MAX_COLUMN_DEPTH)), pack(nest(MAX_COLUMN_DEPTH + 1))
    assert len(deeper) > len(deep) + 8  # the innermost tuples went generic


# --------------------------------------------------------- hostile input


def test_enum_ext_must_name_an_enum_and_object_ext_must_not():
    # ext 5 used to *call* whatever repro class the frame named.
    forged = ext(5, pack(["repro.net.wire", "FrameDecoder", 7]))
    with pytest.raises(WireError):
        unpack(forged)
    with pytest.raises(WireError):
        unpack(ext(5, pack(["repro.harness.realcluster", "LocalCluster", 2])))
    with pytest.raises(WireError):
        unpack(ext(6, pack(["repro.core.query", "JoinStrategy", {}])))
    with pytest.raises(WireError):  # not a member of the enum
        unpack(ext(5, pack(["repro.core.query", "JoinStrategy", "no-such"])))
    assert unpack(pack(JoinStrategy.FETCH_MATCHES)) is JoinStrategy.FETCH_MATCHES
    assert unpack(pack(QueryTeardown(3))) == QueryTeardown(3)


@pytest.mark.parametrize("blob", [
    b"\xa1\xff",                      # invalid UTF-8 in a str
    b"\x81\x90\x00",                  # a list as map key
    b"\xc1",                          # the one unassigned type byte
    b"\xcb\x00",                      # short float
    b"\xdb\xff\xff\xff\xff",          # str of 4 GiB, nothing behind it
    b"\xdd\xff\xff\xff\xff",          # array of 4 G elements, nothing behind
    b"\xdf\xff\xff\xff\xff\x01",      # map of 4 G entries
    b"\x91" * 100_000 + b"\x00",      # nesting bomb
    ext(99, b"\x00"),                 # unknown ext code
    ext(2, pack([[1], [2]])),         # unhashable set element
    ext(1, pack({"not": "a list"})),  # tuple ext around a map
    ext(6, pack(["os", "system", {}])),                     # untrusted module
    ext(6, pack(["repro.net.wire", "nope", {}])),           # unknown class
    ext(6, pack(["repro.net.wire", "pack", {}])),           # not a class
    ext(6, pack(["repro.core.query", "QueryTeardown", 5])),  # state not a map
    ext(6, pack(["repro.core.query", "QueryTeardown"])),    # short triple
    ext(6, pack([["x"], "QueryTeardown", {}])),             # unhashable name
])
def test_malformed_input_raises_only_wire_error(blob):
    with pytest.raises(WireError):
        unpack(blob)


def forged_column(count: int, body: bytes) -> bytes:
    return ext(8, struct.pack(">I", count) + body)


@pytest.mark.parametrize("blob", [
    forged_column(4, bytes([42]) + b"\x00" * 4),              # unknown kind
    forged_column(2**32 - 1, bytes([0]) + b"\x00" * 8),       # generic, forged count
    forged_column(2**32 - 1, bytes([1]) + b"\x00" * 8),       # int8, forged count
    forged_column(2**31, bytes([4]) + b"\x00" * 64),          # int64, forged count
    forged_column(5, bytes([4]) + b"\x00" * 32),              # one element short
    forged_column(4, bytes([4]) + b"\x00" * 40),              # one element over
    forged_column(4, bytes([5]) + b"\x00" * 63),              # uint128, a byte short
    forged_column(4, bytes([7, 1, 1, 1, 1, 1]) + struct.pack(">I", 3) + b"abc"),
    forged_column(4, bytes([7, 1, 2, 0xFF, 1, 1]) + struct.pack(">I", 3) + b"abc"),
    forged_column(4, bytes([7, 1, 1, 1, 1, 0]) + struct.pack(">I", 3) + b"\xff\xfe\xfd"),
    forged_column(4, bytes([7, 7, 1, 0, 0, 0, 0])),           # lengths are strings
    forged_column(4, bytes([8, 0])),                          # arity 0
    forged_column(4, bytes([8, 0xA1, 0x61])),                 # arity "a"
    forged_column(4, bytes([8, 2, 1, 1, 2, 3, 4])),           # second column missing
    forged_column(4, bytes([8, 2, 1, 1, 2, 3, 4, 1, 1, 2, 3])),  # ... or short
    forged_column(4, bytes([9, 0x05, 1, 1, 2, 3, 4])),        # keys are an int
    forged_column(4, bytes([9, 0x91, 0x90, 1, 1, 2, 3, 4])),  # unhashable key
    forged_column(4, bytes([8, 1] * 50 + [1, 1, 2, 3, 4])),   # nested too deep
    forged_column(0, bytes([8, 0xCE, 0xFF, 0xFF, 0xFF, 0xFF])),  # arity 4 G
])
def test_forged_columns_are_refused(blob):
    with pytest.raises(WireError):
        unpack(blob)


def test_forged_column_counts_are_refused_before_allocating():
    # 16 M declared int8 elements over 15 bytes: were the check to come
    # after the allocation this would take seconds and a few hundred MB.
    blob = forged_column(2**24, bytes([8, 1, 1]) + b"\x00" * 15)
    with pytest.raises(WireError):
        unpack(blob)
    # Depth is bounded, so a forged column cannot multiply its elements by a
    # few header bytes per level: at the bound the reader allocates at most
    # one object per element per level.
    body = bytes([8, 1] * MAX_COLUMN_DEPTH + [1]) + bytes(range(100))
    rows = unpack(forged_column(100, body))
    assert count_nodes(rows) <= (MAX_COLUMN_DEPTH + 2) * len(body)


@pytest.mark.parametrize("value", [
    (1, "two"), {1, 2}, frozenset({"a"}), JoinStrategy.SYMMETRIC_HASH,
    QueryTeardown(7), [1, 2, 3, 4], [("a", 1.0)] * 4,
], ids=repr)
def test_truncation_and_trailing_bytes_inside_ext_payloads(value):
    blob = pack(value)
    assert same(unpack(blob), value)
    code, payload = split_ext(blob)
    for forged in (payload + b"\x00", payload + b"\xc0", payload[:-1]):
        with pytest.raises(WireError):
            unpack(ext(code, forged))
    with pytest.raises(WireError):  # the ext claims more than the buffer holds
        unpack(struct.pack(">BIb", 0xC9, len(payload) + 1, code) + payload)
    with pytest.raises(WireError):
        unpack(blob + b"\x00")


def recorded_frames():
    """One frame per bulk protocol, recorded off a toy fig-3 deployment."""
    from repro.harness.experiment import PierNetwork, SimulationConfig
    from repro.net.node import Node
    from repro.workloads.generator import JoinWorkload, WorkloadConfig

    wanted = ("prov.put_chunk", "can.route_batch", "prov.get_batch_reply")
    recorded = {}
    original = Node.deliver

    def deliver(self, message):
        if message.protocol in wanted:
            recorded.setdefault(message.protocol, []).append(message)
        original(self, message)

    # Eight nodes, not four: on a 2 x 2 CAN each node's table names two of
    # the other three, so once a lookup ended at the node whose table names
    # the owner, no routed batch there carried enough keys to ship a typed
    # column.
    workload = JoinWorkload(WorkloadConfig(num_nodes=8, s_tuples_per_node=12,
                                           seed=3))
    pier = PierNetwork(SimulationConfig(num_nodes=8, seed=3))
    pier.load_relation(workload.r_relation, workload.r_by_node)
    pier.load_relation(workload.s_relation, workload.s_by_node)
    Node.deliver = deliver
    try:
        for strategy in (JoinStrategy.SYMMETRIC_HASH, JoinStrategy.FETCH_MATCHES):
            pier.client(catalog=workload.catalog()).query(
                workload.make_query(strategy=strategy)).fetchall()
    finally:
        Node.deliver = original
    frames = {}
    for protocol in wanted:
        bodies = list(map(message_to_wire, recorded[protocol]))
        if protocol == "can.route_batch":
            # Keys and runs only: a batch of fewer keys ships no column.
            bodies = [body for body in bodies
                      if len(body["payload"]["keys"]) >= COLUMN_MIN_ITEMS]
        # The smallest message that still ships typed columns.
        body = min(bodies, key=lambda body: (len(pack(body)) < 400, len(pack(body))))
        frames[protocol] = body
    relation = workload.s_relation
    rows = workload.s_by_node[0]
    resource_ids = [relation.resource_id(row) for row in rows]
    frames["store"] = {"t": "rpc", "id": 1, "op": "store", "chunks": [{
        "namespace": relation.namespace, "publisher": 0, "lifetime": 1e9,
        "item_bytes": relation.tuple_bytes, "resource_ids": resource_ids,
        "values": rows, "keys": hash_keys(relation.namespace, resource_ids)}]}
    return frames


RECORDED = recorded_frames()


def ships_a_column(value) -> bool:
    if type(value) is list and pack(value)[0] in (0xC7, 0xC9):
        return True
    children = value.values() if type(value) is dict else (
        value if type(value) in (list, tuple) else ())
    return any(map(ships_a_column, children))


@pytest.mark.parametrize("protocol", sorted(RECORDED))
def test_recorded_frames_survive_every_prefix_and_byte_corruption(protocol):
    body = RECORDED[protocol]
    blob = pack(body)
    assert ships_a_column(body), "the recorded frame holds no typed column"
    decoded = unpack(blob)
    assert pack(decoded) == blob  # and the round trip is a fixed point
    budget = (MAX_COLUMN_DEPTH + 2) * len(blob)

    def attempt(data):
        try:
            value = unpack(data)
        except WireError:
            return
        assert count_nodes(value) <= budget

    for cut in range(len(blob)):
        with pytest.raises(WireError):
            unpack(blob[:cut])
    for index in range(len(blob)):
        for flip in (0xFF, 0x01, 0x80, blob[index]):  # last one zeroes it
            attempt(blob[:index] + bytes([blob[index] ^ flip]) + blob[index + 1:])


# ------------------------------------- forged lengths through the Provider
#
# The codec types each array on its own, so a frame whose parallel arrays
# disagree in length decodes fine.  The Provider and the routing layer must
# refuse it whole: nothing partly stored, nothing filed under the wrong id,
# no request left waiting.


def through_the_wire(message, **forged):
    """``message`` as its receiver decodes it, payload fields replaced."""
    body = message_to_wire(message)
    body["payload"] = {**message.payload, **forged}
    return message_from_wire(unpack(pack(body)))


def test_forged_put_chunk_lengths_drop_the_chunk_whole():
    message = message_from_wire(RECORDED["prov.put_chunk"])
    payload = message.payload
    count = len(payload["resource_ids"])
    assert count >= COLUMN_MIN_ITEMS
    forgeries = {
        "values": payload["values"][:-1],
        "instance_ids": payload["instance_ids"] + [7],
        "keys": payload["keys"][1:],
        "resource_ids": payload["resource_ids"][:-2],
        "item_bytes": [payload["item_bytes"]] * (count + 1),
    }
    _network, providers, _builder = build_network("can", num_nodes=2)
    provider, namespace = providers[0], payload["namespace"]
    announced = []
    provider.on_new_data(namespace, announced.extend)
    lost = 0
    for field, forged in forgeries.items():
        provider._on_put_chunk(provider.node,
                               through_the_wire(message, **{field: forged}))
        lost += len(forged) if field == "resource_ids" else count
        assert len(provider.storage) == 0 and announced == [], field
        assert provider.put_bounces_by_namespace == {namespace: lost}, field
    provider._on_put_chunk(provider.node, through_the_wire(message))
    assert len(provider.storage) == len(announced) == count
    assert provider.put_bounces_by_namespace == {namespace: lost}


def shifted(counts):
    """Same length, same sum, one count negative."""
    return [-1, counts[0] + counts[1] + 1] + counts[2:]


REPLY_FORGERIES = {
    "one count short": lambda p: {"counts": p["counts"][:-1]},
    "counts overrun": lambda p: {"counts": [p["counts"][0] + 1] + p["counts"][1:]},
    "negative count": lambda p: {"counts": shifted(p["counts"])},
    "a value short": lambda p: {"values": p["values"][:-1]},
    "an instance over": lambda p: {"instance_ids": p["instance_ids"] + [1]},
    "a publisher short": lambda p: {"publishers": p["publishers"][1:]},
    "sizes short": lambda p: {"item_bytes": [100] * (len(p["values"]) - 1)},
    "other ids": lambda p: {"resource_ids": p["resource_ids"][::-1]},
    "other namespace": lambda p: {"namespace": p["namespace"] + "x"},
}


@pytest.mark.parametrize("forgery", sorted(REPLY_FORGERIES))
def test_forged_get_reply_lengths_fail_the_request(forgery):
    network, providers, builder = build_network("can", num_nodes=2)
    providers[1].put_batch("t", ENTRIES)
    network.run_until_idle()
    origin = providers[0]
    assert origin.request_timeout_s is None  # nothing else would end the wait
    remote = [rid for rid, _v in ENTRIES
              if len(providers[1].get_local("t", rid)) == 1]
    assert len(remote) >= COLUMN_MIN_ITEMS
    genuine = origin._on_get_batch_reply
    forged_replies = []

    def forge(node, message):
        forged = through_the_wire(message,
                                  **REPLY_FORGERIES[forgery](message.payload))
        forged_replies.append(forged)
        genuine(node, forged)

    origin.node.replace_handler(origin.PROTOCOL_GET_BATCH_REPLY, forge)
    upcalls = []
    origin.get_batch("t", remote, upcalls.append, scope=5)
    network.run_until_idle()
    assert len(forged_replies) == 1 and ships_a_column(forged_replies[0].payload)
    assert upcalls == [[(rid, []) for rid in remote]]
    report = origin.scope_report(5)
    assert (report["completed"], report["failed"], report["pending"]) == (
        0, len(remote), 0)


def test_forged_route_batch_lengths_are_reported_unresolved():
    message = message_from_wire(RECORDED["can.route_batch"])
    network, providers, _builder = build_network("can", num_nodes=8)
    routing = providers[message.dst].routing
    sent = []
    routing.node.send = lambda dst, protocol, payload=None, *args, **kw: sent.append(
        (dst, protocol, payload))
    forged = through_the_wire(message, keys=message.payload["keys"][:-1])
    routing._on_route_batch(routing.node, forged)
    runs = message.payload["runs"]
    assert [(dst, protocol) for dst, protocol, _payload in sent] == [
        (run[0], routing.PROTOCOL_BATCH_LOOKUP_REPLY) for run in runs]
    assert all(payload["owner"] is None for _dst, _protocol, payload in sent)
    assert [key for *_sent, payload in sent
            for key in payload["keys"]] == forged.payload["keys"]


def unkeyed_route_batch(routing, src):
    """A two-run ``can.route_batch`` from ``src`` whose key count agrees with
    its runs but whose keys are strings, not ints: placing them raises."""
    message = Message(src, routing.address, routing.PROTOCOL_ROUTE_BATCH,
                      {"keys": ["k11", "k12", "k13"],
                       "runs": [(src, 1, 1, 2), (src, 2, 1, 1)]}, 8, 1)
    return message_from_wire(unpack(pack(message_to_wire(message))))


def routed_key(routing):
    """A key ``routing`` does not own."""
    return next(key for key in range(1, 1000) if not routing.owns(key))


def test_a_route_batch_that_raises_leaves_no_scope_open_in_the_simulator():
    network = SimulatedNetwork(FullMeshTopology(4, latency_s=0.02))
    builder = CanNetworkBuilder(dimensions=2)
    relay = builder.build_stabilized(network)[1]
    network.send(unkeyed_route_batch(relay, 0))
    with pytest.raises(TypeError, match="unsupported operand"):
        network.run_until_idle()
    key = routed_key(relay)
    answers = []
    relay.lookup_batch([key], lambda owner, keys: answers.append((owner, keys)))
    network.run_until_idle()
    assert answers == [(builder.owner_of_key(key), [key])]
    assert relay._outbox == {} and relay.node.defer(lambda: None) is False


def test_a_route_batch_that_raises_leaves_no_scope_open_over_tcp(caplog):
    """The handler's error is logged and the node keeps routing; so it does
    after a ``msg`` frame that cannot be made a message, which is dropped
    inside the read's delivery scope."""

    async def scenario():
        builder, transports, routings = await loopback_overlay("can", 4)
        relay = routings[1]
        writer = await write_at_once(transports[1],
                                     [unkeyed_route_batch(relay, 0)])
        assert "handler for 'can.route_batch' failed" in caplog.text
        _reader, torn = await asyncio.open_connection("127.0.0.1",
                                                      transports[1].listen_port)
        torn.write(encode_frame({"t": "msg", "protocol": relay.PROTOCOL_ROUTE_BATCH}))
        await wait_for(lambda: "discarding malformed frame" in caplog.text)
        torn.close()
        key = routed_key(relay)
        answers = []
        relay.lookup_batch([key], lambda owner, keys: answers.append((owner, keys)))
        await wait_for(lambda: answers)
        assert answers == [(builder.owner_of_key(key), [key])]
        assert relay._outbox == {} and relay.node.defer(lambda: None) is False
        writer.close()
        for transport in transports:
            await transport.close()

    asyncio.run(scenario())


def test_malformed_frames_are_dropped_and_the_rest_of_the_read_delivered(caplog):
    """One write carries a ``msg`` frame without ``src``, a ``hello`` without
    ``port`` and a ``joined`` without ``address`` ahead of a good message:
    each malformed frame is dropped with a warning, and the good message,
    from the same read, is delivered."""

    async def scenario():
        async with one_node_cluster() as pier_node:
            node = pier_node.node
            delivered = []
            node.register_handler("test.echo",
                                  lambda _node, message: delivered.append(message.payload))
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", pier_node.transport.listen_port)
            good = Message(node.address, node.address, "test.echo", "after", 8)
            writer.write(b"".join([
                encode_frame({"t": "msg", "dst": node.address, "protocol": "test.echo"}),
                encode_frame({"t": "hello", "host": "127.0.0.1"}),
                encode_frame({"t": "joined"}),
                encode_frame(message_to_wire(good)),
            ]))
            await writer.drain()
            await wait_for(lambda: delivered)
            assert delivered == ["after"]
            assert pier_node._pending_admissions == {}
            writer.close()

    asyncio.run(scenario())
    assert "msg frame without 'src'" in caplog.text
    assert "'hello' frame without port" in caplog.text
    assert "'joined' frame without address" in caplog.text


@pytest.mark.parametrize("frame", [
    {"t": "hello", "host": "127.0.0.1", "port": "x"},
    {"t": "joined", "address": "x"},
], ids=["hello", "joined"])
def test_a_frame_whose_field_does_not_parse_is_dropped_and_the_rest_delivered(
        frame, caplog):
    """A field that is there but not an integer makes the handler raise; the
    frame is dropped and the good message after it, from the same read, is
    still delivered over the same connection."""

    async def scenario():
        async with one_node_cluster() as pier_node:
            node = pier_node.node
            delivered = []
            node.register_handler("test.echo",
                                  lambda _node, message: delivered.append(message.payload))
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", pier_node.transport.listen_port)
            good = Message(node.address, node.address, "test.echo", "after", 8)
            writer.write(encode_frame(frame) + encode_frame(message_to_wire(good)))
            await writer.drain()
            await wait_for(lambda: delivered)
            assert delivered == ["after"]
            assert pier_node._pending_admissions == {}
            assert sorted(pier_node.membership) == [node.address]
            writer.close()

    asyncio.run(scenario())
    assert f"discarding {frame['t']!r} frame its handler refused" in caplog.text


# ---------------------------------------------------------------- framing


def framing_stream():
    values = [
        {"t": "msg", "i": 0, "payload": None},
        {"t": "msg", "i": 1, "payload": "x" * 70_000},
        {"t": "evt", "rows": [{"a": i, "b": str(i)} for i in range(9)]},
        {"t": "msg", "i": 3, "payload": list(range(20_000))},
        [],
        {"t": "res", "id": 5, "ok": True},
    ]
    return values, b"".join(map(encode_frame, values))


def feed_in_pieces(stream: bytes, cuts):
    decoder = FrameDecoder()
    frames = []
    start = 0
    for cut in list(cuts) + [len(stream)]:
        frames.extend(decoder.feed(stream[start:cut]))
        start = cut
    return frames


@pytest.mark.parametrize("step", [1, 5, 4096, 65536, 10**9])
def test_frame_decoder_is_split_invariant(step):
    values, stream = framing_stream()
    frames = feed_in_pieces(stream, range(step, len(stream), step))
    assert same(frames, values)


@FUZZ
@given(st.lists(st.integers(0, 200_000), max_size=12).map(sorted))
def test_frame_decoder_is_split_invariant_at_random_cuts(cuts):
    values, stream = framing_stream()
    assert same(feed_in_pieces(stream, [min(c, len(stream)) for c in cuts]),
                values)


def test_frame_decoder_keeps_the_partial_tail():
    values, stream = framing_stream()
    decoder = FrameDecoder()
    assert same(decoder.feed(stream[:-3]), values[:-1])
    assert decoder.feed(b"") == []
    assert same(decoder.feed(stream[-3:] + stream[:2]), values[-1:])
    assert same(decoder.feed(stream[2:]), values)
    with pytest.raises(WireError):  # oversized length prefix poisons the stream
        FrameDecoder(max_frame_bytes=1000).feed(struct.pack(">I", 1001))
