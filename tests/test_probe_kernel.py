"""The chunk probe kernel against the per-arrival probe it replaced.

``QueryExecutor._probe`` answers one ``newData`` upcall — the new fragments
of one stored chunk — with one bucket read per distinct join value and one
``pier.result`` message.  The row-at-a-time probe it replaced survives as
:class:`tests.reference.PerArrivalProbe`; both are driven here with the same
arrival history and must emit the same pairs, each exactly once.

The kernel runs for real: node 1 of a two-node deployment probes for a query
node 0 submitted over two empty relations, and the test plays the rehash
puts itself, chunk by chunk, through the Provider's own arrival path.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import executor as executor_module
from repro.core.query import JoinClause, JoinStrategy, QuerySpec, TableRef
from repro.core.tuples import Column, RelationDef, Schema
from repro.dht.provider import DHTItem
from repro.dht.storage import StorageManager
from repro.harness import PierNetwork, SimulationConfig
from tests.reference import PerArrivalProbe

R = RelationDef("R", Schema([Column("id"), Column("k")]))
S = RelationDef("S", Schema([Column("id"), Column("k")]))
QUERY_ID = 4242
NAMESPACE = f"__pier_join_{QUERY_ID}__"


def make_query(**options):
    return QuerySpec(
        tables=[TableRef(R, "R"), TableRef(S, "S")],
        output_columns=["R.id", "S.id"], join=JoinClause("R", "k", "S", "k"),
        strategy=JoinStrategy.SYMMETRIC_HASH, **options)


class ProbeRig:
    """Node 1 probes for a query of node 0; the test delivers the chunks."""

    def __init__(self):
        self.pier = PierNetwork(SimulationConfig(num_nodes=2, dht="chord", seed=1))
        self.provider = self.pier.provider(1)
        self.query = make_query(query_id=QUERY_ID)
        #: The resource id of every ``StorageManager.retrieve`` node 1 makes.
        self.retrieved = []
        retrieve = self.provider.storage.retrieve

        def counting_retrieve(namespace, resource_id, now):
            self.retrieved.append(resource_id)
            return retrieve(namespace, resource_id, now)

        self.provider.storage.retrieve = counting_retrieve

    def store_chunk(self, chunk):
        """One ``prov.put_chunk`` arriving at node 1, then drain the network."""
        self.provider.store_chunk({
            "namespace": NAMESPACE, "lifetime": 300.0, "publisher": 0,
            "item_bytes": 16,
            "resource_ids": [rid for rid, _iid, _value in chunk],
            "instance_ids": [iid for _rid, iid, _value in chunk],
            "values": [value for _rid, _iid, value in chunk],
            "keys": [0] * len(chunk),
        })
        self.pier.run_until_idle()

    def start(self):
        handle = self.pier.executor(0).submit(self.query)
        self.pier.run_until_idle()
        assert NAMESPACE in {namespace for namespace, _callback in
                             self.pier.executor(1)._states[QUERY_ID]
                             .new_data_registrations}
        return handle

    @property
    def result_messages(self):
        return self.pier.network.stats.protocol_messages.get("pier.result", 0)


def play(chunks, backlog_chunks):
    """Run one arrival history through the kernel and through the reference.

    Returns ``(rig, handle, reference, matched_rows_per_chunk)``; the first
    ``backlog_chunks`` chunks arrive before the query does and are probed as
    its backlog.
    """
    rig = ProbeRig()
    reference = PerArrivalProbe(NAMESPACE, "R", "S")
    for chunk in chunks[:backlog_chunks]:
        rig.store_chunk(chunk)
        reference.store_chunk(chunk)
    assert rig.retrieved == [] and rig.result_messages == 0
    handle = rig.start()
    reference.start()
    rows_per_chunk = [sum(map(len, reference.messages))]  # the backlog's
    for chunk in chunks[backlog_chunks:]:
        before = sum(map(len, reference.messages))
        rig.store_chunk(chunk)
        reference.store_chunk(chunk)
        rows_per_chunk.append(sum(map(len, reference.messages)) - before)
    return rig, handle, reference, rows_per_chunk


def check_history(chunks, backlog_chunks, slice_rows=executor_module.RESULT_SLICE_ROWS):
    rig, handle, reference, rows_per_chunk = play(chunks, backlog_chunks)

    emitted = Counter((row["R.id"], row["S.id"]) for row in handle.rows)
    by_reference = Counter((left[0], right[0]) for message in reference.messages
                           for left, right in message)
    fragments = {(rid, iid): value for chunk in chunks
                 for rid, iid, value in chunk}
    nested_loop = Counter(
        (left[0], right[0])
        for (left_key, _l), (left_side, left) in fragments.items()
        for (right_key, _r), (right_side, right) in fragments.items()
        if left_side == "R" and right_side == "S" and left_key == right_key)
    assert emitted == by_reference == nested_loop
    assert not emitted or max(emitted.values()) == 1

    # One result message per chunk that matched anything (cut into slices),
    # one bucket read per distinct join value of a chunk's new fragments.
    assert rig.result_messages == sum(
        math.ceil(rows / slice_rows) for rows in rows_per_chunk)
    expected_reads = []
    live = set()
    backlog = [fragment for chunk in chunks[:backlog_chunks] for fragment in chunk]
    live.update((rid, iid) for rid, iid, _value in backlog)
    if backlog:
        by_instance = sorted({(iid, rid) for rid, iid, _value in backlog})
        expected_reads += list(dict.fromkeys(rid for _iid, rid in by_instance))
    for chunk in chunks[backlog_chunks:]:
        new = [rid for rid, iid, _value in chunk if (rid, iid) not in live]
        live.update((rid, iid) for rid, iid, _value in chunk)
        expected_reads += list(dict.fromkeys(new))
    assert rig.retrieved == expected_reads


# ------------------------------------------------------------- generated


@st.composite
def histories(draw, max_fragments=40):
    """An arrival history: chunks of ``(rid, iid, (side, row))`` fragments.

    Few distinct join values, both sides, instance ids in an order of their
    own (the backlog is probed by instance id, not by arrival), random cuts
    into chunks — some empty —, and per chunk up to two renewals of triples
    stored by an earlier chunk and up to two triples repeated within it, all
    shuffled into the chunk.
    """
    sides_and_keys = draw(st.lists(
        st.tuples(st.sampled_from("RS"), st.sampled_from(["a", "b", "c"])),
        max_size=max_fragments))
    instance_ids = draw(st.permutations(range(1, len(sides_and_keys) + 1)))
    fragments = [(key, iid, (side, (iid, key)))
                 for (side, key), iid in zip(sides_and_keys, instance_ids)]
    cuts = sorted(draw(st.lists(st.integers(0, len(fragments)), max_size=6)))
    chunks, earlier = [], []
    for start, stop in zip([0] + cuts, cuts + [len(fragments)]):
        chunk = fragments[start:stop]
        extras = []
        if earlier:
            extras += draw(st.lists(st.sampled_from(earlier), max_size=2))
        if chunk:
            extras += draw(st.lists(st.sampled_from(chunk), max_size=2))
        if extras:
            chunk = list(draw(st.permutations(chunk + extras)))
        chunks.append(chunk)
        earlier += fragments[start:stop]
    return chunks, draw(st.integers(0, len(chunks)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(histories())
def test_kernel_emits_the_reference_pairs_exactly_once(history):
    check_history(*history)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(histories(max_fragments=24))
def test_result_messages_are_cut_into_slices(history):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "RESULT_SLICE_ROWS", 3)
        check_history(*history, slice_rows=3)


# --------------------------------------------------------------- by hand


def fragment(side, key, iid):
    return (key, iid, (side, (iid, key)))


@pytest.mark.parametrize("fan_out", [1, 17, 200])
def test_one_hot_key_at_every_fan_out(fan_out):
    """``fan_out`` fragments a side under one join value, cut at random."""
    rng = random.Random(fan_out)
    fragments = [fragment(side, "hot", iid) for iid, side in enumerate(
        rng.sample(["R", "S"] * fan_out, 2 * fan_out), start=1)]
    cuts = sorted(rng.sample(range(len(fragments) + 1), min(5, fan_out)))
    chunks = [fragments[start:stop] for start, stop
              in zip([0] + cuts, cuts + [len(fragments)])]
    check_history(chunks, backlog_chunks=2)


def test_a_chunk_mixing_three_keys_reads_three_buckets_and_sends_one_message():
    old = [fragment("S", key, iid) for iid, key in enumerate("abc", start=1)]
    mixed = [fragment("R", key, iid) for iid, key in enumerate("abcabc", start=10)]
    rig, handle, _reference, _rows = play([old, mixed], backlog_chunks=0)
    assert rig.retrieved == ["a", "b", "c", "a", "b", "c"]  # 3 for each chunk
    assert rig.result_messages == 1 and len(handle.rows) == 6
    check_history([old, mixed], backlog_chunks=0)


def test_renewed_and_repeated_triples_pair_once():
    s1, r1, r2 = fragment("S", "a", 1), fragment("R", "a", 2), fragment("R", "a", 3)
    # r1 arrives twice in one chunk; s1 is renewed beside a new r2; the last
    # chunk renews everything and must neither read a bucket nor send.
    chunks = [[s1], [r1, r1], [s1, r2], [s1, r1, r2]]
    rig, handle, _reference, _rows = play(chunks, backlog_chunks=0)
    assert sorted((row["R.id"], row["S.id"]) for row in handle.rows) == [(2, 1), (3, 1)]
    assert rig.retrieved == ["a", "a", "a"] and rig.result_messages == 2
    check_history(chunks, backlog_chunks=0)


def test_the_backlog_is_one_chunk_with_nothing_old():
    chunks = [[fragment("R", "a", 5), fragment("S", "b", 4)],
              [fragment("S", "a", 3), fragment("R", "b", 2), fragment("S", "a", 1)]]
    rig, handle, _reference, _rows = play(chunks, backlog_chunks=2)
    assert len(handle.rows) == 3 and rig.result_messages == 1
    assert rig.retrieved == ["a", "b"]  # by instance id: 1 is an "a"
    check_history(chunks, backlog_chunks=2)


# -------------------------------------------------- the complexity class


def hot_key_reads(rows_per_side):
    """Stored records each probe read — and ``DHTItem`` views anyone built —
    joining two relations whose every tuple shares one join value.

    Every node stores the same number of tuples of each relation and links
    have no bandwidth limit, so two sizes differ in nothing but the number of
    fragments in each rehash chunk.
    """
    pier = PierNetwork(SimulationConfig(num_nodes=4, dht="chord", seed=3,
                                        bandwidth_bytes_per_s=None))
    for relation in (R, S):
        by_node = {node: [] for node in range(4)}
        for tuple_id in itertools.count():
            rows = by_node[pier.owner_of(relation.namespace, tuple_id)]
            if len(rows) < rows_per_side // 4:
                rows.append({"id": tuple_id, "k": "hot"})
            elif all(len(rows) == rows_per_side // 4 for rows in by_node.values()):
                break
        pier.load_relation(relation, by_node)
    records_read, views = [], []
    retrieve, init = StorageManager.retrieve, DHTItem.__init__

    def counting_retrieve(self, namespace, resource_id, now):
        items = retrieve(self, namespace, resource_id, now)
        if namespace == NAMESPACE:
            records_read.append(len(items))
        return items

    def counting_init(self, *args, **kwargs):
        views.append(1)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StorageManager, "retrieve", counting_retrieve)
        patch.setattr(DHTItem, "__init__", counting_init)
        cursor = pier.client().query(make_query(query_id=QUERY_ID))
        cursor.fetchall()
    assert cursor.result_count == rows_per_side ** 2
    return records_read, len(views)


def test_probe_reads_grow_linearly_with_the_fan_out():
    """Doubling the fragments under one hot key doubles — does not quadruple
    — the stored records the probe reads, and no candidate is ever viewed."""
    small_reads, small_views = hot_key_reads(40)
    large_reads, large_views = hot_key_reads(80)
    assert small_views == large_views == 0  # not one DHTItem in the whole join
    # One read per arriving chunk (4 nodes x 2 sides), of at most the 2 x 40
    # fragments there are; one read per arriving fragment would be 80 reads
    # of 3 240 records, then 160 of 12 880.
    assert len(small_reads) <= 8 and sum(small_reads) <= 8 * 80
    assert large_reads == [2 * records for records in small_reads]
