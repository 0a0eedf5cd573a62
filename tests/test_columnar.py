"""Columnar chunk execution: containers, kernels, wire format.

Rows travel between operators as :class:`Chunk` objects (one value array
per layout slot), expressions run as chunk kernels (checked against the
reference in ``tests/test_compiled_equivalence.py``), and rehash waves ship
per-owner slices through ``Provider.put_chunk``.  These tests pin the
chunk-boundary semantics — empty chunks, chunks split across rehash owners,
the chunk → row boundary.
"""

from repro.core.expressions import compare
from repro.core.opgraph import OpKind, _compile_chain_kernel, build_opgraph
from repro.core.query import JoinStrategy
from repro.core.tuples import Chunk, RowLayout
from repro.dht.can import CanNetworkBuilder
from repro.dht.naming import hash_key
from repro.dht.provider import Provider
from repro.net.network import SimulatedNetwork
from repro.net.topology import FullMeshTopology
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.conftest import build_pier, build_workload, load_join_tables

# ------------------------------------------------------------------- chunks

LAYOUT = RowLayout(["a", "b", "c"])


def test_empty_chunk_roundtrips():
    chunk = Chunk.empty(LAYOUT)
    assert len(chunk) == 0
    assert chunk.rows() == []


def test_rows_transposes_the_columns():
    chunk = Chunk(LAYOUT, [[1, 4, 7], [2.0, 5.0, 8.0], ["x", "y", "z"]])
    assert len(chunk) == 3
    assert chunk.rows() == [(1, 2.0, "x"), (4, 5.0, "y"), (7, 8.0, "z")]


def test_compress_keeps_masked_rows_dense():
    chunk = Chunk(LAYOUT, [list(range(5)), [i * 1.0 for i in range(5)],
                           [str(i) for i in range(5)]])
    kept = chunk.compress([True, False, True, False, True])
    assert kept.rows() == [(0, 0.0, "0"), (2, 2.0, "2"), (4, 4.0, "4")]
    # All-kept returns the same object; none-kept returns an empty chunk.
    assert chunk.compress([1] * 5) is chunk
    assert chunk.compress([0] * 5).rows() == []


# -------------------------------------------------------------- chunk kernels


def test_chain_kernel_empty_input_yields_empty_chunk():
    workload = JoinWorkload(WorkloadConfig(num_nodes=8, seed=3))
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    kernel, layout = _compile_chain_kernel(
        query, "R", query.local_predicates["R"], query.columns_needed_from("R"))
    empty = kernel([])
    assert isinstance(empty, Chunk)
    assert len(empty) == 0
    assert list(empty.layout.names) == list(layout.names)


def test_fully_filtered_chunk_produces_zero_results_end_to_end():
    """A predicate that rejects every row exercises the empty-chunk path
    through rehash and probe without hanging or erroring."""
    workload = build_workload(8)
    pier = build_pier(8)
    load_join_tables(pier, workload)
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    query.local_predicates["R"] = compare("R.num2", ">", 1e9)
    assert pier.client().query(query).fetchall() == []


# --------------------------------------------------------- put_chunk wire API


def build_provider_network(num_nodes=12):
    network = SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=0.02,
                                                capacity_bytes_per_s=float("inf")))
    builder = CanNetworkBuilder(dimensions=2)
    routings = builder.build_stabilized(network)
    providers = {
        address: Provider(network.node(address), routings[address],
                          sweep_period_s=0.0)
        for address in range(num_nodes)
    }
    return network, providers, builder


def test_put_chunk_splits_items_across_owners():
    network, providers, builder = build_provider_network()
    resource_ids = [f"r{i}" for i in range(24)]
    values = [{"v": i} for i in range(24)]
    instance_ids = providers[0].put_chunk("t", resource_ids, values,
                                          item_bytes=64)
    assert len(instance_ids) == len(set(instance_ids)) == 24
    network.run_until_idle()
    for resource_id, value in zip(resource_ids, values):
        owner = builder.owner_of_key(hash_key("t", resource_id))
        items = providers[owner].get_local("t", resource_id)
        assert [item.value for item in items] == [value]
    total = sum(len(list(provider.lscan("t")))
                for provider in providers.values())
    assert total == 24


def test_put_chunk_fires_new_data_per_item():
    network, providers, builder = build_provider_network(6)
    arrivals = []
    for provider in providers.values():
        provider.on_new_data(
            "t", lambda items: arrivals.extend(item.resource_id for item in items))
    providers[2].put_chunk("t", ["x", "y", "z"], [1, 2, 3])
    network.run_until_idle()
    assert sorted(arrivals) == ["x", "y", "z"]


def test_put_chunk_empty_is_a_noop():
    network, providers, _builder = build_provider_network(4)
    assert providers[0].put_chunk("t", [], []) == []
    network.run_until_idle()
    assert all(list(provider.lscan("t")) == []
               for provider in providers.values())


def test_put_chunk_target_confines_items_to_computation_node():
    network, providers, _builder = build_provider_network()
    providers[0].put_chunk("t", ["p", "q"], [10, 11], target=5)
    network.run_until_idle()
    assert [item.value for item in providers[5].get_local("t", "p")] == [10]
    assert [item.value for item in providers[5].get_local("t", "q")] == [11]
    for address, provider in providers.items():
        if address != 5:
            assert provider.get_local("t", "p") == []
            assert provider.get_local("t", "q") == []


def test_put_chunk_matches_put_batch_storage_state():
    """The chunk wire format is a pure encoding change: after the dust
    settles, per-owner storage is identical to scalar/batch puts."""
    resource_ids = [f"k{i}" for i in range(16)]
    values = [i * 10 for i in range(16)]

    def final_state(put):
        network, providers, _builder = build_provider_network()
        put(providers[0], resource_ids, values)
        network.run_until_idle()
        return {
            address: sorted((item.resource_id, item.value)
                            for item in provider.lscan("t"))
            for address, provider in providers.items()
        }

    def chunk_put(provider, ids, vals):
        provider.put_chunk("t", ids, vals)

    def scalar_put(provider, ids, vals):
        for resource_id, value in zip(ids, vals):
            provider.put("t", resource_id, None, value)

    assert final_state(chunk_put) == final_state(scalar_put)


# ------------------------------------------------------------------ lowering


def test_columnar_opgraph_covers_every_scan_chain():
    workload = JoinWorkload(WorkloadConfig(num_nodes=8, seed=3))
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    graph = build_opgraph(query)
    scans = graph.nodes_of_kind(OpKind.SCAN)
    assert scans
    for scan in scans:
        assert scan.op_id in graph.artifacts.chains
