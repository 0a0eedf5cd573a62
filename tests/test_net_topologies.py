"""Unit tests for topologies, messages, and the inbound-link model."""

import pytest

import pathlib
import re

from repro.net.cluster import LATENCY_S, ClusterTopology
from repro.net.message import HEADER_BYTES, Message
from repro.net.network import SimulatedNetwork
from repro.net.topology import GBPS_1, FullMeshTopology, MBPS_10
from repro.net.transit_stub import (
    STUB_DOMAINS_PER_TRANSIT, TRANSIT_DOMAINS, TRANSIT_NODES_PER_DOMAIN,
    TransitStubTopology,
)


# ---------------------------------------------------------------- messages


def test_message_size_includes_header():
    message = Message(src=0, dst=1, protocol="x", payload_bytes=100)
    assert message.size_bytes == HEADER_BYTES + 100


def test_message_negative_payload_clamped():
    message = Message(src=0, dst=1, protocol="x", payload_bytes=-5)
    assert message.size_bytes == HEADER_BYTES


def test_payload_bytes_is_never_written_after_construction():
    # ``size_bytes`` is derived from ``payload_bytes`` once, in __init__; a
    # later write to ``payload_bytes`` anywhere in src/ would leave it stale.
    source = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    write = re.compile(r"\.payload_bytes\s*(?:[-+*/|&^%]|//|<<|>>)?=(?!=)")
    writes = [(path.relative_to(source).as_posix(), line.strip())
              for path in sorted(source.rglob("*.py"))
              for line in path.read_text().splitlines() if write.search(line)]
    assert writes == [("net/message.py", "self.payload_bytes = payload_bytes")]


# ---------------------------------------------------------------- full mesh


def test_full_mesh_latency_uniform():
    topology = FullMeshTopology(8, latency_s=0.1)
    assert topology.latency(0, 7) == pytest.approx(0.1)
    assert topology.latency(3, 4) == pytest.approx(0.1)
    assert topology.latency(5, 5) == 0.0


def test_full_mesh_capacity():
    topology = FullMeshTopology(4)
    assert topology.inbound_capacity(2) == pytest.approx(MBPS_10)


def test_full_mesh_rejects_bad_addresses():
    topology = FullMeshTopology(4)
    with pytest.raises(ValueError):
        topology.latency(0, 4)
    with pytest.raises(ValueError):
        topology.inbound_capacity(-1)


def test_full_mesh_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FullMeshTopology(0)
    with pytest.raises(ValueError):
        FullMeshTopology(4, latency_s=-1.0)
    with pytest.raises(ValueError):
        FullMeshTopology(4, capacity_bytes_per_s=0.0)


def test_full_mesh_average_latency():
    topology = FullMeshTopology(16, latency_s=0.05)
    assert topology.average_latency() == pytest.approx(0.05)


# ------------------------------------------------------------- transit stub


def test_transit_stub_structure_defaults():
    topology = TransitStubTopology(64, seed=1)
    assert topology.num_stub_domains == 4 * 10 * 3


def test_transit_stub_latency_classes():
    topology = TransitStubTopology(200, seed=2)
    # Same node: zero; find two nodes in the same stub domain if any exist.
    assert topology.latency(0, 0) == 0.0
    latencies = {round(topology.latency(0, other), 4) for other in range(1, 200)}
    # Every latency must be one of the four structural values.
    allowed = {0.002, 0.020, 0.070, 0.170}
    assert latencies <= allowed
    # The common case (different transit domains) must appear.
    assert 0.170 in latencies


def test_transit_stub_latency_symmetric():
    topology = TransitStubTopology(50, seed=3)
    for a, b in [(0, 1), (5, 40), (13, 27)]:
        assert topology.latency(a, b) == pytest.approx(topology.latency(b, a))


def test_transit_stub_mean_latency_near_paper_value():
    topology = TransitStubTopology(128, seed=4)
    # The paper reports ~170 ms average end-to-end delay, larger than the
    # 100 ms of the fully connected topology; ours must land in that region.
    assert 0.110 <= topology.average_latency() <= 0.175


def test_transit_stub_is_deterministic_for_seed():
    a = TransitStubTopology(32, seed=9)
    b = TransitStubTopology(32, seed=9)
    assert [a.assignment(i) for i in range(32)] == [b.assignment(i) for i in range(32)]


def test_transit_stub_places_every_node_inside_the_papers_hierarchy():
    topology = TransitStubTopology(200, seed=5)
    placements = [topology.assignment(node) for node in range(200)]
    assert all(0 <= p.transit_domain < TRANSIT_DOMAINS
               and 0 <= p.transit_node < TRANSIT_NODES_PER_DOMAIN
               and 0 <= p.stub_domain < STUB_DOMAINS_PER_TRANSIT
               for p in placements)
    # Uniform placement over 120 stub domains reaches every transit domain.
    assert {p.transit_domain for p in placements} == set(range(TRANSIT_DOMAINS))


# ----------------------------------------------------------------- cluster


def test_cluster_latency_is_small_and_positive():
    topology = ClusterTopology(8)
    assert all(0.0 < topology.latency(0, 1) < 0.003 for _ in range(100))
    assert topology.latency(2, 2) == 0.0


def test_cluster_capacity_and_mean_latency():
    topology = ClusterTopology(4)
    assert topology.inbound_capacity(3) == pytest.approx(GBPS_1)
    assert topology.average_latency() == LATENCY_S
    assert ClusterTopology(1).average_latency() == 0.0
    with pytest.raises(ValueError, match="capacity must be positive"):
        ClusterTopology(4, capacity_bytes_per_s=0.0)


def test_cluster_jitter_perturbs_latency():
    topology = ClusterTopology(8, seed=1)
    values = {topology.latency(0, 1) for _ in range(10)}
    assert len(values) > 1
    assert all(value > 0 for value in values)


# -------------------------------------------------------------- inbound link


# The link is state only; its FIFO arithmetic runs inside ``SimulatedNetwork.send``, so
# these drive node 0 -> node 1 over a zero-latency mesh (arrival == send time).


def link_deliveries(capacity, sends, recover_at=None):
    """``(delivered_at, queued_for)`` per ``(send_time, wire_bytes)`` send."""
    network = SimulatedNetwork(FullMeshTopology(2, latency_s=0.0,
                                                capacity_bytes_per_s=capacity))
    seen = {}
    total = [0.0]

    def on_message(node, message):
        # The delivery was recorded just before the handler ran.
        delay = network.stats.total_queueing_delay
        seen[message.payload] = (network.now, delay - total[0])
        total[0] = delay

    network.node(1).register_handler("x", on_message)
    if recover_at is not None:
        network.simulator.schedule_at(recover_at, network.recover_node, 1)
    for index, (send_time, wire_bytes) in enumerate(sends):
        network.simulator.schedule_at(send_time, network.node(0).send, 1, "x",
                                      index, wire_bytes - HEADER_BYTES)
    network.run_until_idle()
    return network, [seen[index] for index in range(len(sends))]


def test_infinite_link_has_no_delay():
    network, [(delivery, queued)] = link_deliveries(float("inf"),
                                                    [(5.0, 10_000_000)])
    assert delivery == pytest.approx(5.0)
    assert queued == 0.0
    assert network.link(1).infinite
    assert network.link(1).busy_until == 0.0
    assert network.link(1).bytes_served == 10_000_000


def test_link_serialisation_delay():
    network, [(delivery, queued)] = link_deliveries(1000.0, [(0.0, 500)])
    assert delivery == pytest.approx(0.5)
    assert queued == 0.0
    assert not network.link(1).infinite
    assert network.link(1).busy_until == pytest.approx(0.5)


def test_link_queueing_behind_earlier_message():
    # The first message keeps the link busy until t=1.0.
    _, [_, (delivery, queued)] = link_deliveries(1000.0,
                                                 [(0.0, 1000), (0.2, 500)])
    assert queued == pytest.approx(0.8)
    assert delivery == pytest.approx(1.5)


def test_link_idle_gap_resets_queue():
    _, [_, (delivery, queued)] = link_deliveries(1000.0,
                                                 [(0.0, 100), (5.0, 100)])
    assert queued == 0.0
    assert delivery == pytest.approx(5.1)


def test_recovery_clears_link_backlog():
    # Busy until t=10 when the node restarts at t=2; the next message is
    # served at once, ahead of the backlog the restart forgot.
    network, [(first, _), (delivery, queued)] = link_deliveries(
        1000.0, [(0.0, 10_000), (2.0, 1000)], recover_at=2.0)
    assert queued == 0.0
    assert delivery == pytest.approx(3.0)
    assert first == pytest.approx(10.0)
    assert network.link(1).bytes_served == 1000
