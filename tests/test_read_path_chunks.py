"""The read path is chunk-at-a-time on the wire and at the upcall.

The two queries ``tcp_join`` runs (symmetric hash, then Fetch Matches) are
played on a simulated 4-node deployment whose every node-to-node message is
framed through ``encode_frame`` / ``FrameDecoder`` and delivered *decoded*,
as a real cluster would: a ``prov.get_batch_reply`` ships parallel arrays and
no per-item object, Fetch Matches answers one reply with one ``pier.result``
message, and the rows are the oracle's.  Fixed-seed 64-node runs pin what
that does to the simulated message counts.
"""

from collections import Counter

import pytest

from repro.core.executor import RESULT_SLICE_ROWS
from repro.core.query import JoinStrategy
from repro.harness import PierNetwork, SimulationConfig
from repro.net.node import Node
from repro.net.wire import (FrameDecoder, encode_frame, message_from_wire,
                            message_to_wire)
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.conftest import build_pier, build_workload, load_join_tables
from tests.reference import all_rows, evaluate_query, row_multiset

NODES = 4
#: Bytes of the 16 ``prov.get_batch_reply`` frames of this run (CAN, seed 5)
#: at the last commit whose reply held one ``DHTItem`` object per tuple.
PARENT_REPLY_FRAME_BYTES = 576_158


def framed_tcp_join_queries(dht, monkeypatch):
    """Run both queries over framed messages; per-query rows and frame stats."""
    workload = JoinWorkload(WorkloadConfig(num_nodes=NODES,
                                           s_tuples_per_node=500, seed=5))
    pier = PierNetwork(SimulationConfig(num_nodes=NODES, seed=5, dht=dht))
    load_join_tables(pier, workload)
    tables = {workload.r_relation.name: all_rows(workload.r_by_node),
              workload.s_relation.name: all_rows(workload.s_by_node)}
    frames = []
    deliver = Node.deliver

    def deliver_framed(self, message):
        frame = encode_frame(message_to_wire(message))
        frames.append((message.protocol, frame))
        (body,) = FrameDecoder().feed(frame)
        deliver(self, message_from_wire(body))

    monkeypatch.setattr(Node, "deliver", deliver_framed)
    runs = {}
    for strategy in (JoinStrategy.SYMMETRIC_HASH, JoinStrategy.FETCH_MATCHES):
        start = len(frames)
        query = workload.make_query(strategy=strategy)
        rows = pier.client(catalog=workload.catalog()).query(query).fetchall()
        assert row_multiset(rows) == row_multiset(evaluate_query(query, tables))
        assert row_multiset(rows) == row_multiset(workload.expected_results())
        runs[strategy] = (rows, frames[start:])
    return runs


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_tcp_join_queries_over_framed_messages(dht, monkeypatch):
    runs = framed_tcp_join_queries(dht, monkeypatch)
    rows, frames = runs[JoinStrategy.FETCH_MATCHES]
    assert rows
    for _rows, query_frames in runs.values():
        for protocol, frame in query_frames:
            # The class tag a reflectively encoded item would carry.
            assert b"DHTItem" not in frame, protocol
    counts = Counter(protocol for protocol, _frame in frames)
    replies = counts["prov.get_batch_reply"]
    assert replies == counts["prov.get_batch"] > 0
    # One message per owner reply that joined anything, one per node for the
    # join values it owns itself, one more per full slice of a long reply.
    assert 0 < counts["pier.result"] <= (
        replies + NODES + len(rows) // RESULT_SLICE_ROWS)
    assert counts["pier.result"] < len(rows) // 10
    if dht == "can":
        reply_bytes = sum(len(frame) for protocol, frame in frames
                          if protocol == "prov.get_batch_reply")
        assert reply_bytes <= PARENT_REPLY_FRAME_BYTES // 4


#: ``(pier.result messages, messages sent, bytes delivered, t_last)`` of one
#: Fetch-Matches query on 64 nodes x 8 S tuples.  With one ``pier.result``
#: per join value the first two read 495 / 10 944 (CAN) and 491 / 7 940
#: (Chord); every message saved is a 60-byte header off the byte total, and
#: the last row arrives when it did.  Chord read (416, 7 865, 1 759 692,
#: 1.4081728) while its multicast flooded: the finger-interval tree sends
#: 63 ``mc.flood`` instead of 447, and its deeper paths move the last row.
#: CAN read (475, 10 924, 2 039 204, 3.021648) on the square.  On the torus
#: the last row comes 1.1 s sooner and 6 % fewer bytes move, but a batch of
#: keys bound for the antipodal row or column of the 8 x 8 grid splits
#: between the two ways round, so its owner answers twice: ``prov.get_batch``
#: and its replies 2 003 -> 2 048 each, ``mc.flood`` 161 -> 128.  CAN read
#: (482, 11 021, 1 925 452, 1.9083872) and Chord (416, 7 481, 1 584 060,
#: 1.415152) before relays forwarded one routed batch per next hop per
#: delivery group: lookups that meet at a relay share a message, and the
#: deferred sends move the last row by < 0.3 ms.  CAN read (482, 10 344,
#: 1 895 664, 1.9086432) and Chord (416, 7 380, 1 579 616, 1.415136) before
#: a lookup ended at the node whose routing table names the owner:
#: ``can.route_batch`` 3 590 -> 2 695 and ``chord.route_batch`` 2 887 ->
#: 1 908, lookup replies 2 048 -> 1 931 and 1 338 -> 1 316, and the last row
#: comes one 100 ms hop sooner.  CAN read (482, 9 332, 1 730 488, 1.808096)
#: before a key's point became its own bit fields instead of a salted
#: re-hash: placement moved (rows do not), so owners and paths moved with it
#: (``can.route_batch`` 2 695 -> 2 560, ``prov.get_batch`` and its replies
#: 2 048 -> 2 016 each, lookup replies 1 931 -> 1 900) and the last row
#: comes 96 ms sooner.
FETCH_MATCHES_PINS = {
    "can": (481, 9_101, 1_705_228, 1.7122368),
    "chord": (416, 6_379, 1_424_732, 1.3145856),
}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_fetch_matches_fixed_seed_pin(dht):
    workload = build_workload(64, s_tuples_per_node=8)
    pier = build_pier(64, dht=dht)
    load_join_tables(pier, workload)
    pier.network.stats.reset()
    query = workload.make_query(strategy=JoinStrategy.FETCH_MATCHES)
    query.query_id = 9001
    # Iterating drives the query until idle without tearing it down, so the
    # teardown's sends are not counted.
    cursor = pier.client().query(query)
    rows = list(cursor)
    stats = pier.network.stats
    assert row_multiset(rows) == row_multiset(workload.expected_results())
    assert (stats.protocol_messages["pier.result"], stats.messages_sent,
            stats.bytes_delivered,
            round(cursor.time_to_last(), 9)) == FETCH_MATCHES_PINS[dht]
