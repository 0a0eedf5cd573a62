"""Unit tests for the msgpack wire codec and framing (repro.net.wire).

Covers every payload kind the real transport ships — provider requests,
DHT item replies, query multicasts, statistics partials, Bloom filters,
slotted rows, 128-bit keys — plus the stream mechanics: partial-frame
reads, oversized-frame rejection, and reconnect-after-drop at the
transport layer.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.core.bloom import BloomFilter
from repro.core.catalog import Catalog
from repro.core.query import JoinStrategy, QueryTeardown
from repro.core.sql.planner import SQLPlanner
from repro.core.stats import ColumnStats, RelationStats
from repro.core.tuples import Column, RelationDef, Schema
from repro.dht.naming import hash_key
from repro.net.message import Message
from repro.net.node import Node
from repro.net.real import MAX_CONNECT_ATTEMPTS, RealTransport
from repro.net.wire import (
    FrameDecoder,
    WireError,
    encode_frame,
    message_from_wire,
    message_to_wire,
    pack,
    unpack,
)

try:  # cross-validation only; the wheel is absent in the CI image
    import msgpack as c_msgpack
except ImportError:  # pragma: no cover - exercised when the wheel exists
    c_msgpack = None


def roundtrip(value):
    return unpack(pack(value))


def planned_query():
    r = RelationDef(
        name="R", namespace="wire_r",
        schema=Schema([Column("pkey", "int"), Column("num1", "int"),
                       Column("pad", "str")]),
        primary_key="pkey",
    )
    s = RelationDef(
        name="S", namespace="wire_s",
        schema=Schema([Column("pkey", "int"), Column("num2", "int")]),
        primary_key="pkey",
    )
    catalog = Catalog()
    catalog.register(r)
    catalog.register(s)
    return SQLPlanner(catalog).plan_sql(
        "SELECT R.pkey, S.pkey, R.pad FROM R, S WHERE R.num1 = S.pkey "
        "AND R.pkey > 3",
        strategy=JoinStrategy.SYMMETRIC_HASH,
    )


# ------------------------------------------------------------------ scalars


@pytest.mark.parametrize("value", [
    None, True, False,
    0, 1, -1, 127, 128, -32, -33, 255, 256, 65535, 65536,
    2**31 - 1, 2**32, 2**63 - 1, 2**64 - 1, -2**63,
    2**64, -2**64, 2**127, -(2**127),  # 128-bit DHT keys / Chord identifiers
    0.0, -1.5, math.pi, float("inf"), float("-inf"),
    "", "ascii", "ünïcode☃", "x" * 40, "y" * 70000,
    b"", b"\x00\xff" * 10, b"z" * 70000,
])
def test_scalar_roundtrip(value):
    assert roundtrip(value) == value


def test_nan_roundtrip():
    assert math.isnan(roundtrip(float("nan")))


def test_container_roundtrip():
    value = {
        "list": [1, [2, ["three", None]]],
        "tuple": (1, ("two", 3.0)),
        "set": {1, 2, 3},
        "frozenset": frozenset({"a", "b"}),
        "nested": {"k": {"deep": (1, 2)}},
        3: "int-key",
        (4, 5): "tuple-key",
    }
    result = roundtrip(value)
    assert result == value
    assert isinstance(result["tuple"], tuple)
    assert isinstance(result["set"], set)
    assert isinstance(result["frozenset"], frozenset)


def test_long_collections_roundtrip():
    many = list(range(70000))
    assert roundtrip(many) == many
    mapping = {f"k{i}": i for i in range(70000)}
    assert roundtrip(mapping) == mapping


def test_enum_roundtrip():
    for strategy in JoinStrategy:
        restored = roundtrip(strategy)
        assert restored is strategy


# ---------------------------------------------------- wire message payloads


def wire_message(protocol, payload, payload_bytes=100):
    message = Message(src=1, dst=2, protocol=protocol, payload=payload,
                      payload_bytes=payload_bytes, hops=3)
    return message_from_wire(roundtrip(message_to_wire(message)))


def test_provider_put_request_roundtrip():
    request = {
        "namespace": "ns", "resource_id": 42, "instance_id": 7,
        "value": {"pkey": 42, "pad": "x" * 100}, "lifetime": 1e9,
        "item_bytes": 1064, "key": hash_key("ns", 42), "publisher": 3,
    }
    restored = wire_message("prov.put", request)
    assert restored.payload == request
    assert restored.hops == 3 and restored.src == 1 and restored.dst == 2


def test_dht_item_reply_roundtrip():
    """A get reply is parallel arrays: ``counts`` items per requested id, no
    per-item object, every element back with exactly the type it had."""
    from tests.test_wire_fuzz import same

    values = [(1, 2.5, "slotted"), {"pkey": 7, "pad": "x" * 20}, ("R", (3, 4.0)),
              {"pkey": 8, "pad": ""}, (2, float("inf"), ""), None]
    reply = {
        "request_id": 1, "namespace": "ns",
        "resource_ids": [("composite", 9), "missing", 7, 2**70],
        "counts": [2, 0, 1, 3],
        "instance_ids": [5, 2**40, 7, 8, 9, 10],
        "values": values,
        "publishers": [0, None, 3, 3, 3, 3],
        "item_bytes": [123, 100, 100, 64, 2**33, 0],
    }
    for item_bytes in (reply["item_bytes"], 123):  # per item, or uniform
        reply["item_bytes"] = item_bytes
        restored = wire_message("prov.get_batch_reply", reply)
        assert same(restored.payload, reply)
    frame = pack(message_to_wire(Message(1, 2, "prov.get_batch_reply", reply)))
    assert b"DHTItem" not in frame and b"repro." not in frame


def test_query_multicast_roundtrip():
    from repro.core.opgraph import build_opgraph

    query = planned_query()
    graph = build_opgraph(query)  # the sender has lowered its spec
    envelope = {
        "id": (0, 17),
        "entries": [{"namespace": "__pier_queries__",
                     "resource_id": query.query_id, "item": query}],
        "origin": 0,
    }
    restored = wire_message("mc.flood", envelope)
    item = restored.payload["entries"][0]["item"]
    assert item.query_id == query.query_id
    assert item.strategy is JoinStrategy.SYMMETRIC_HASH
    assert item.tables[0].relation.schema == query.tables[0].relation.schema
    assert item.local_predicates.keys() == query.local_predicates.keys()
    assert item.join == query.join
    # A spec carries no plan state over the wire; receivers lower their own.
    assert vars(item).keys() == vars(query).keys()
    assert build_opgraph(item) is not graph
    assert build_opgraph(item).describe() == graph.describe()
    # A Chord tree copy carries its ring limit, a 128-bit identifier.
    scope = (1 << 128) - 5
    tree_copy = wire_message("mc.flood", {"envelope": envelope,
                                          "payload_bytes": 200, "scope": scope},
                             payload_bytes=216)
    assert tree_copy.payload["scope"] == scope
    assert tree_copy.payload["payload_bytes"] == 200
    assert tree_copy.payload_bytes == 216
    assert tree_copy.payload["envelope"]["id"] == (0, 17)
    assert tree_copy.payload["envelope"]["entries"][0]["item"].query_id == (
        query.query_id)


def test_query_teardown_roundtrip():
    teardown = roundtrip(QueryTeardown(991))
    assert teardown == QueryTeardown(991)


def test_relation_stats_roundtrip():
    stats = RelationStats(
        name="R", cardinality=1600, total_bytes=1600 * 1064,
        columns={"pkey": ColumnStats(distinct=1600, min_value=0.0,
                                     max_value=1599.0)},
        collected_at=12.5,
    )
    assert wire_message("prov.put", {"value": stats}).payload["value"] == stats


def test_sketch_ext_roundtrips():
    from repro.sketches import HyperLogLog, KLLSketch, TopKSketch

    hll = HyperLogLog(log2m=8)
    topk = TopKSketch(k=3, width=64, depth=2)
    kll = KLLSketch(k=16)
    for i in range(200):
        hll.add(i)
        topk.add(i % 7)
        kll.add(float(i))
    for sketch in (hll, topk, kll):
        restored = roundtrip(sketch)
        assert type(restored) is type(sketch)
        assert restored == sketch
    # Sketches nested inside shipped partial payloads survive, too.
    payload = {"group": (), "partials": [("approx_count_distinct", hll)],
               "level": 0}
    restored = wire_message("prov.put", {"value": payload}).payload["value"]
    assert restored["partials"][0][1] == hll


def test_malformed_sketch_payload_rejected():
    from repro.sketches import HyperLogLog

    blob = pack(HyperLogLog(log2m=4))
    # Corrupt the declared log2m inside the ext payload: decoder must refuse
    # (WireError, not a silent wrong sketch).
    corrupted = bytearray(blob)
    # ext header: 0xC7/0xC8 length code | ... type tag (1) | log2m byte
    tag_index = corrupted.index(7) + 1  # ext code 7, next byte is WIRE_TAG
    assert corrupted[tag_index] == 1
    corrupted[tag_index + 1] = 99  # log2m far out of range
    with pytest.raises(WireError):
        unpack(bytes(corrupted))
    # Unknown sketch wire tag is refused the same way.
    corrupted = bytearray(blob)
    corrupted[tag_index] = 200
    with pytest.raises(WireError):
        unpack(bytes(corrupted))


def test_oversized_sketch_guarded_per_type():
    """Every registered sketch type rejects payloads whose declared
    dimensions exceed its limits, before allocating them."""
    import struct as _struct

    from repro.net.wire import _EXT_SKETCH  # noqa: PLC2701 - deliberate
    from repro.sketches import MAX_SKETCH_BYTES, SKETCH_TYPES

    def as_ext(body: bytes) -> bytes:
        return _struct.pack(">BIb", 0xC9, len(body), _EXT_SKETCH) + body

    oversized = {
        1: _struct.pack(">BQ", 40, 0),            # HLL log2m=40
        2: _struct.pack(">IHHQ", 5, 0xFFFF + 0, 200, 0),  # CM depth=200
        3: _struct.pack(">IQBB", 16, 0, 0, 1) + _struct.pack(">I", 2**31),
    }
    assert set(oversized) == set(SKETCH_TYPES)
    for tag, body in oversized.items():
        with pytest.raises(WireError):
            unpack(as_ext(bytes([tag]) + body))
    # And the blanket byte ceiling holds regardless of type.
    with pytest.raises(WireError):
        unpack(as_ext(bytes([1]) + b"\x00" * (MAX_SKETCH_BYTES + 1)))


def test_bloom_filter_roundtrip():
    bloom = BloomFilter(num_bits=512, num_hashes=3)
    for value in range(50):
        bloom.add(value)
    restored = roundtrip(bloom)
    assert restored.num_bits == bloom.num_bits
    assert all(restored.contains(value) for value in range(50))


def test_result_rows_roundtrip():
    rows = [{"R.pkey": 1, "S.pkey": 2, "R.pad": "p" * 50},
            {"R.pkey": 3, "S.pkey": 4, "R.pad": ""}]
    restored = wire_message("pier.result", {"query_id": 9, "rows": rows})
    assert restored.payload["rows"] == rows


def test_batch_lookup_reply_roundtrip():
    payload = {"request_id": 3, "owner": 7,
               "keys": [hash_key("ns", i) for i in range(20)], "hops": 2}
    assert wire_message("can.batch_lookup_reply", payload).payload == payload


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_route_batch_with_several_runs_roundtrip(dht):
    """A merged routed batch: its ``keys`` and one ``(origin, request_id,
    hops, count)`` run per lookup, every element back with exactly the type
    it had."""
    from tests.test_wire_fuzz import same

    keys = [hash_key("ns", i) for i in range(5)]
    payload = {"keys": keys,
               "runs": [(3, 17, 2, 2), (9, 2**40, 5, 1), (0, 4, 128, 2)]}
    restored = wire_message(f"{dht}.route_batch", payload, payload_bytes=232)
    assert same(restored.payload, payload)
    assert restored.payload_bytes == 232


def test_untrusted_class_is_rejected():
    class Foreign:
        pass

    with pytest.raises(WireError):
        pack(Foreign())
    # Decoding an object claiming a non-repro module must refuse, too.
    forged = pack(planned_query()).replace(b"repro.core.query", b"treprocessing")
    with pytest.raises(WireError):
        unpack(forged)


@pytest.mark.skipif(c_msgpack is None, reason="C msgpack wheel not installed")
def test_cross_validation_against_c_msgpack():
    value = {"a": [1, -2, 3.5, "x", None, True, b"raw"], "b": {"c": 2**63 - 1}}
    assert c_msgpack.unpackb(pack(value), strict_map_key=False) == value
    assert unpack(c_msgpack.packb(value)) == value


# ------------------------------------------------------------------ framing


def test_partial_frame_reads():
    query = planned_query()
    frames = [encode_frame({"t": "msg", "i": i, "payload": query})
              for i in range(3)]
    stream = b"".join(frames)
    decoder = FrameDecoder()
    seen = []
    for offset in range(0, len(stream), 5):  # drip-feed 5 bytes at a time
        seen.extend(decoder.feed(stream[offset:offset + 5]))
    assert [frame["i"] for frame in seen] == [0, 1, 2]
    assert all(frame["payload"].query_id == query.query_id for frame in seen)


def test_oversized_frame_rejected_on_encode():
    with pytest.raises(WireError):
        encode_frame("x" * 2000, max_frame_bytes=1000)


def test_oversized_frame_rejected_on_decode():
    decoder = FrameDecoder(max_frame_bytes=1000)
    with pytest.raises(WireError):
        decoder.feed((5000).to_bytes(4, "big") + b"\x00" * 10)


def test_truncated_and_trailing_data_rejected():
    blob = pack([1, 2, 3])
    with pytest.raises(WireError):
        unpack(blob[:-1])
    with pytest.raises(WireError):
        unpack(blob + b"\x00")


# ------------------------------------------------- transport reconnect/drop


def collecting_node(address, transport):
    node = Node(address, transport)
    transport.attach_node(node)
    received = []
    node.register_handler("test.echo", lambda _n, m: received.append(m))
    bounced = []
    node.register_bounce_handler("test.echo", lambda _n, m: bounced.append(m))
    return node, received, bounced


async def wait_for(predicate, timeout_s=5.0, interval_s=0.01):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() >= deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval_s)


def test_reconnect_after_drop():
    """A receiver restart mid-conversation: the pooled connection re-dials."""

    async def scenario():
        sender = RealTransport(0, "127.0.0.1", 0)
        receiver = RealTransport(1, "127.0.0.1", 0)
        _snode, _sr, sender_bounced = collecting_node(0, sender)
        rnode, received, _rb = collecting_node(1, receiver)
        await sender.start()
        _host, port = await receiver.start()
        sender.update_peers({1: ("127.0.0.1", port)})

        sender.send(Message(src=0, dst=1, protocol="test.echo", payload="one"))
        await wait_for(lambda: len(received) == 1)

        # Drop the receiver's server and every accepted connection, then
        # bring it back on the same port: the sender must reconnect.
        await receiver.close()
        receiver2 = RealTransport(1, "127.0.0.1", port)
        receiver2.attach_node(rnode)
        rnode.network = receiver2
        await receiver2.start()

        sender.send(Message(src=0, dst=1, protocol="test.echo", payload="two"))
        await wait_for(lambda: any(m.payload == "two" for m in received))
        assert sender.reconnects >= 1 or sender.frames_sent == 2
        assert not sender_bounced

        await receiver2.close()
        await sender.close()

    asyncio.run(scenario())


def test_unreachable_peer_bounces():
    """A peer that never answers: queued messages bounce back locally."""

    async def scenario():
        sender = RealTransport(0, "127.0.0.1", 0)
        _node, _received, bounced = collecting_node(0, sender)
        await sender.start()
        # A port with no listener (bind-then-close reserves a dead one).
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        sender.update_peers({1: ("127.0.0.1", dead_port)})
        sender.send(Message(src=0, dst=1, protocol="test.echo", payload="x"))
        await wait_for(lambda: len(bounced) == 1, timeout_s=10.0)
        assert bounced[0].payload == "x"
        assert sender.bounces == 1
        await sender.close()

    asyncio.run(scenario())


def test_unknown_peer_bounces_immediately():
    async def scenario():
        sender = RealTransport(0, "127.0.0.1", 0)
        _node, _received, bounced = collecting_node(0, sender)
        await sender.start()
        sender.send(Message(src=0, dst=99, protocol="test.echo", payload="y"))
        await wait_for(lambda: len(bounced) == 1)
        await sender.close()

    asyncio.run(scenario())


def test_connect_attempt_budget_is_finite():
    # The bounce above must happen after a bounded number of attempts, not
    # spin forever — the constant is part of the transport's contract.
    assert 1 <= MAX_CONNECT_ATTEMPTS <= 10
