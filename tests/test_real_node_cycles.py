"""A real node's query path leaves nothing that only the collector frees.

The counterpart of ``tests/test_no_reference_cycles.py`` for the TCP
backend: three in-process ``PierNode``s on one loop, joined over loopback
sockets, and one gateway connection that speaks the RPC frames a
``RemotePier`` sends.  With the collector off, a ``store`` of both join
tables, a symmetric-hash query and a fetch-matches query (each streamed to
the gateway, then finished everywhere) must each leave ``gc.collect() ==
0``.  A node process runs its loop under raised collection thresholds
(``repro.net.transport.collector_scope``), so the collector runs rarely;
this is why that leaves no query's garbage waiting for it.
"""

from __future__ import annotations

import asyncio
import gc
from collections import deque

from repro import JoinStrategy
from repro.dht.naming import hash_keys
from repro.harness.realcluster import free_ports
from repro.net.wire import FrameDecoder, encode_frame
from repro.node import PierNode
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.conftest import assert_no_cycles
from tests.reference import row_multiset
from tests.test_real_hotpath import wait_for

NODES = 3


class Gateway:
    """One client connection to a node: RPCs, and the rows streamed back."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.rows = []
        self._decoder = FrameDecoder()
        self._frames = deque()
        self._ids = 0

    async def rpc(self, op, **fields):
        self._ids += 1
        self.writer.write(encode_frame({"t": "rpc", "id": self._ids, "op": op,
                                        **fields}))
        while True:
            frame = await self._next_frame()
            if frame["t"] == "res" and frame["id"] == self._ids:
                assert frame["ok"], frame
                return frame

    async def wait_rows(self, count):
        while len(self.rows) < count:
            await self._next_frame()

    async def _next_frame(self):
        while not self._frames:
            data = await asyncio.wait_for(self.reader.read(65536), 10.0)
            assert data, "the node closed the gateway connection"
            self._frames.extend(self._decoder.feed(data))
        frame = self._frames.popleft()
        if frame["t"] == "evt":
            self.rows.extend(frame["rows"])
        return frame


async def boot(ports):
    """A founder and ``len(ports) - 1`` joiners, every member knowing all."""
    nodes = []
    for port in ports:
        node = PierNode(listen=("127.0.0.1", port),
                        join=("127.0.0.1", ports[0]) if nodes else None)
        await node.start()
        nodes.append(node)
        await wait_for(lambda: all(len(member.membership) == len(nodes)
                                   for member in nodes))
    return nodes


async def store(gateways, nodes, relation, rows_by_node):
    """Store every row at its owner, through that owner's gateway."""
    rows = [row for publisher in sorted(rows_by_node)
            for row in rows_by_node[publisher]]
    ids = [relation.resource_id(row) for row in rows]
    keys = hash_keys(relation.namespace, ids)
    picked = {}
    for index, owner in enumerate(nodes[0]._builder.owners_of_keys(keys)):
        picked.setdefault(owner, []).append(index)
    for owner, indices in picked.items():
        await gateways[owner].rpc("store", chunks=[{
            "namespace": relation.namespace, "publisher": 0,
            "lifetime": 1e9, "item_bytes": relation.tuple_bytes,
            "resource_ids": [ids[i] for i in indices],
            "values": [rows[i] for i in indices],
            "keys": [keys[i] for i in indices]}])


async def run_query(gateway, nodes, workload, strategy):
    query = workload.make_query(strategy=strategy)
    expected = workload.expected_results()
    query_id = (await gateway.rpc("submit", query=query))["query_id"]
    await gateway.wait_rows(len(expected))
    assert row_multiset(gateway.rows) == row_multiset(expected)
    await gateway.rpc("finish", query_id=query_id)
    await wait_for(lambda: not any(node.executor.has_query_state(query_id)
                                   for node in nodes))
    gateway.rows.clear()


def test_the_real_node_query_path_leaves_no_reference_cycles(collector_off):
    workload = JoinWorkload(WorkloadConfig(num_nodes=NODES,
                                           s_tuples_per_node=6, seed=3))

    async def scenario():
        nodes = await boot(free_ports(NODES))
        gateways = {}
        try:
            for node in nodes:
                streams = await asyncio.open_connection(*node.listen)
                gateways[node.node.address] = Gateway(*streams)
            # Each join rebuilds the overlay, whose throwaway layers are
            # cyclic; that is boot, not the query path, so it is freed here.
            gc.set_debug(0)
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            await store(gateways, nodes, workload.r_relation, workload.r_by_node)
            await store(gateways, nodes, workload.s_relation, workload.s_by_node)
            await wait_for(lambda: all(len(node.known_namespaces) == 2
                                       for node in nodes))
            assert_no_cycles("store")
            for strategy in (JoinStrategy.SYMMETRIC_HASH,
                             JoinStrategy.FETCH_MATCHES):
                await run_query(gateways[0], nodes, workload, strategy)
                assert_no_cycles(f"{strategy.value} join")
        finally:
            for gateway in gateways.values():
                gateway.writer.close()
            for node in nodes:
                node.detector.stop()
                node.provider.close()
                await node.transport.close()

    asyncio.run(scenario())
