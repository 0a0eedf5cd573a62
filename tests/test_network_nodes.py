"""Unit tests for the SimulatedNetwork / Node message fabric, stats and failure injection."""

import math

import pytest

from repro.exceptions import ExperimentError, NetworkError
from repro.harness.experiment import ChurnConfig, PierNetwork, SimulationConfig
from repro.net.failures import DEFAULT_DETECTION_DELAY_S
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.stats import TrafficStats
from repro.net.topology import FullMeshTopology


def make_network(num_nodes=4, latency=0.1, capacity=math.inf):
    return SimulatedNetwork(FullMeshTopology(num_nodes, latency_s=latency,
                                             capacity_bytes_per_s=capacity))


# ------------------------------------------------------------------ delivery


def test_message_delivered_to_registered_handler():
    network = make_network()
    received = []
    network.node(1).register_handler("test", lambda node, msg: received.append(msg.payload))
    network.node(0).send(1, "test", payload="hello", payload_bytes=10)
    network.run_until_idle()
    assert received == ["hello"]


def test_delivery_latency_matches_topology():
    network = make_network(latency=0.25)
    times = []
    network.node(1).register_handler("test", lambda node, msg: times.append(network.now))
    network.node(0).send(1, "test")
    network.run_until_idle()
    assert times == [pytest.approx(0.25)]


def test_local_delivery_has_zero_latency_but_is_asynchronous():
    network = make_network()
    received = []
    network.node(0).register_handler("test", lambda node, msg: received.append(network.now))
    network.node(0).send(0, "test")
    assert received == []  # not delivered synchronously
    network.run_until_idle()
    assert received == [pytest.approx(0.0)]


def test_bandwidth_serialisation_delays_large_messages():
    # 1000 bytes/s inbound; a ~1060-byte message takes ~1.06s to serialise.
    network = make_network(latency=0.0, capacity=1000.0)
    times = []
    network.node(1).register_handler("test", lambda node, msg: times.append(network.now))
    network.node(0).send(1, "test", payload_bytes=1000)
    network.run_until_idle()
    assert times[0] == pytest.approx((1000 + 60) / 1000.0)


def test_concurrent_senders_queue_at_receiver_inbound_link():
    network = make_network(latency=0.0, capacity=1000.0)
    received = []
    network.node(2).register_handler(
        "test", lambda node, msg: received.append((msg.src, network.now)))
    network.node(0).send(2, "test", payload_bytes=940)   # 1000 bytes on wire
    network.node(1).send(2, "test", payload_bytes=940)
    network.simulator.schedule(0.5, network.node(3).send, 2, "test", None, 940)
    network.run_until_idle()
    # The link serves 1000 B/s first come, first served: 0's message from
    # 0 to 1 s, 1's from 1 to 2 s (queued 1 s), 3's from 2 to 3 s (queued
    # 1.5 s behind them).  The two that arrive together are one delivery
    # group, handed over in send order when the later of them is served.
    assert received == [(0, pytest.approx(2.0)), (1, pytest.approx(2.0)),
                        (3, pytest.approx(3.0))]
    assert network.stats.total_queueing_delay == pytest.approx(2.5)
    assert network.stats.inbound_bytes[2] == 3000
    assert network.link(2).busy_until == pytest.approx(3.0)


def test_message_to_unknown_node_raises():
    network = make_network(2)
    with pytest.raises(NetworkError):
        network.send(Message(src=0, dst=9, protocol="x"))


def test_message_without_handler_raises_on_delivery():
    network = make_network()
    network.node(0).send(1, "unregistered")
    with pytest.raises(NetworkError):
        network.run_until_idle()


def test_duplicate_handler_registration_rejected():
    network = make_network()
    network.node(0).register_handler("p", lambda n, m: None)
    with pytest.raises(NetworkError):
        network.node(0).register_handler("p", lambda n, m: None)
    network.node(0).replace_handler("p", lambda n, m: None)  # replace is allowed


# ------------------------------------------------------------------- failure


def test_messages_to_failed_node_are_dropped():
    network = make_network()
    received = []
    network.node(1).register_handler("test", lambda node, msg: received.append(1))
    network.fail_node(1)
    network.node(0).send(1, "test")
    network.run_until_idle()
    assert received == []
    assert network.stats.messages_dropped == 1


def test_recovered_node_receives_again():
    network = make_network()
    received = []
    network.node(1).register_handler("test", lambda node, msg: received.append(1))
    network.fail_node(1)
    network.recover_node(1)
    network.node(0).send(1, "test")
    network.run_until_idle()
    assert received == [1]


def test_dead_node_timers_are_skipped():
    network = make_network()
    fired = []
    network.node(1).schedule(1.0, fired.append, "x")
    network.fail_node(1)
    network.run_until_idle()
    assert fired == []


def test_live_nodes_listing():
    network = make_network(5)
    network.fail_node(2)
    assert network.live_addresses() == [0, 1, 3, 4]


# ------------------------------------------------- failure and delivery groups


def make_coalescing_network(window, capacity=math.inf):
    network = SimulatedNetwork(FullMeshTopology(4, latency_s=0.1,
                                                capacity_bytes_per_s=capacity),
                               coalesce_window_s=window)
    received, bounced = [], []
    for node in network.nodes.values():
        node.register_handler("test", lambda node, msg: received.append(
            (msg.payload, network.now)))
        node.register_bounce_handler("test", lambda node, msg: bounced.append(
            (node.address, msg.src, msg.payload)))
    return network, received, bounced


def send_group_to_node_3(network):
    """Three senders, one delivery group: opened by 0, postponed by 1 and 2."""
    for sender in (0, 1, 2):
        network.node(sender).send(3, "test", payload=f"from {sender}",
                                  payload_bytes=440)
    assert network.batches_flushed == 1
    assert network.messages_coalesced == 2
    assert network.simulator.pending_events == 1


@pytest.mark.parametrize("window", [0.0, 0.5])
def test_group_to_a_node_that_dies_drops_and_bounces_each_member_once(window):
    network, received, bounced = make_coalescing_network(window, capacity=1000.0)
    send_group_to_node_3(network)
    network.simulator.schedule(0.05, network.fail_node, 3)
    network.run_until_idle()
    assert received == []
    assert network.stats.messages_dropped == 3
    assert network.stats.messages_delivered == 0
    # Each sender hears about its own message, in send order.
    assert bounced == [(0, 0, "from 0"), (1, 1, "from 1"), (2, 2, "from 2")]


@pytest.mark.parametrize("window", [0.0, 0.5])
def test_group_member_whose_handler_fails_the_node_drops_the_rest(window):
    network, received, bounced = make_coalescing_network(window, capacity=1000.0)

    def fail_on_arrival(node, message):
        received.append(message.payload)
        network.fail_node(node.address)

    network.node(3).replace_handler("test", fail_on_arrival)
    send_group_to_node_3(network)
    network.run_until_idle()
    assert received == ["from 0"]
    assert network.stats.messages_delivered == 1
    assert network.stats.messages_dropped == 2
    assert bounced == [(1, 1, "from 1"), (2, 2, "from 2")]


@pytest.mark.parametrize("window", [0.0, 0.5])
def test_group_member_without_a_handler_raises(window):
    network, received, _ = make_coalescing_network(window, capacity=1000.0)
    for sender, protocol in ((0, "test"), (1, "unregistered"), (2, "test")):
        network.node(sender).send(3, protocol, payload=f"from {sender}",
                                  payload_bytes=440)
    assert network.batches_flushed == 1
    with pytest.raises(NetworkError, match="unregistered"):
        network.run_until_idle()
    assert [payload for payload, _ in received] == ["from 0"]


@pytest.mark.parametrize("window", [0.0, 0.5])
def test_group_to_a_node_that_recovers_in_time_is_delivered_whole(window):
    network, received, bounced = make_coalescing_network(window, capacity=1000.0)
    send_group_to_node_3(network)
    network.simulator.schedule(0.02, network.fail_node, 3)
    network.simulator.schedule(0.05, network.recover_node, 3)
    network.run_until_idle()
    # One event, at the last member's link finish: 0.1 + 3 * 500 B / 1000 B/s.
    assert received == [(f"from {sender}", pytest.approx(1.6))
                        for sender in (0, 1, 2)]
    assert bounced == []
    assert network.stats.messages_dropped == 0


def test_window_group_replaced_under_its_key_still_delivers_its_members():
    network, received, _ = make_coalescing_network(0.05, capacity=1000.0)
    send = network.node(0).send
    send(3, "test", payload="a", payload_bytes=940)  # served until t=1.1
    for delay, payload in ((0.2, "b"), (0.22, "c")):  # 0.2 is past a's window
        network.simulator.schedule(delay, send, 3, "test", payload, 940)
    network.run(until=0.21)
    assert network.batches_flushed == 2  # b opened a new group for node 3 ...
    assert network.simulator.pending_events == 3  # ... a's is still pending
    network.run_until_idle()
    assert network.messages_coalesced == 1  # c joined b
    assert received == [("a", pytest.approx(1.1)), ("b", pytest.approx(3.1)),
                        ("c", pytest.approx(3.1))]


@pytest.mark.parametrize("window", [0.0, 0.5])
@pytest.mark.parametrize("src, dst", [(0, 9), (9, 0)])
def test_unknown_address_raises_before_anything_is_counted(window, src, dst):
    network, _, _ = make_coalescing_network(window, capacity=1000.0)
    with pytest.raises(NetworkError):
        network.send(Message(src=src, dst=dst, protocol="test", payload_bytes=100))
    assert network.stats.messages_sent == 0
    assert network.simulator.pending_events == 0
    assert network.batches_flushed == 0
    assert all(network.link(address).bytes_served == 0 for address in range(4))


def test_a_negative_window_is_refused():
    with pytest.raises(NetworkError, match="must be >= 0"):
        SimulatedNetwork(FullMeshTopology(2), coalesce_window_s=-0.001)


# --------------------------------------------------------------------- stats


def test_stats_accumulate_bytes_and_messages():
    network = make_network()
    network.node(1).register_handler("test", lambda node, msg: None)
    network.node(0).send(1, "test", payload_bytes=100)
    network.node(0).send(1, "test", payload_bytes=200)
    network.run_until_idle()
    stats = network.stats
    assert stats.messages_delivered == 2
    assert stats.aggregate_traffic_bytes == (100 + 60) + (200 + 60)
    assert stats.inbound_bytes[1] == stats.aggregate_traffic_bytes
    assert stats.max_inbound_node() == 1


def test_stats_protocol_breakdown_and_reset():
    stats = TrafficStats()
    stats.record_delivery(Message(src=0, dst=1, protocol="a.x", payload_bytes=40))
    stats.record_delivery(Message(src=0, dst=1, protocol="b.y", payload_bytes=40))
    assert stats.bytes_for_protocol("a.x") == 100
    assert stats.bytes_for_prefix("a.") == 100
    snapshot = stats.snapshot()
    assert snapshot["messages_delivered"] == 2
    stats.reset()
    assert stats.aggregate_traffic_bytes == 0
    assert stats.max_inbound_bytes() == 0


# --------------------------------------------------------------- failure injector


def churned(num_nodes, rate=0.0, seed=0):
    return PierNetwork(SimulationConfig(
        num_nodes=num_nodes,
        churn=ChurnConfig(failure_rate_per_min=rate, seed=seed)))


def test_failure_injector_fails_and_recovers_nodes():
    """A failed node resumes when its failure is detected, 15 s later, in
    one event: every stack confirms it dead before it routes through it."""
    pier = churned(6)
    injector = pier.failure_injector
    seen = []
    for address, stack in pier.stacks.items():
        stack.peer_dead = lambda peer, at=address: seen.append((at, "dead", peer))
        stack.peer_alive = lambda peer, at=address: seen.append((at, "alive", peer))
    scheduled = []
    schedule = pier.network.simulator.schedule_background

    def recording_schedule(delay, callback, *args):
        if getattr(callback, "__self__", None) is injector:
            scheduled.append((delay, callback.__name__))
        return schedule(delay, callback, *args)

    pier.network.simulator.schedule_background = recording_schedule
    event = injector.fail_now(3)
    assert scheduled == [(DEFAULT_DETECTION_DELAY_S, "_resume")]
    assert (event.failed_at, event.resumed_at) == (0.0, 15.0)
    pier.run(until=14.9)
    assert not pier.network.node(3).alive
    assert seen == []
    pier.run(until=15.0)
    assert pier.network.node(3).alive
    assert seen == ([(address, "dead", 3) for address in range(6)]
                    + [(address, "alive", 3) for address in range(6)])


def test_failure_injector_refuses_a_node_that_is_down():
    pier = churned(6)
    injector = pier.failure_injector
    injector.fail_now(3)
    pier.run(until=10.0)
    with pytest.raises(ValueError):
        injector.fail_now(3)
    pier.run(until=15.0)
    assert pier.network.node(3).alive
    assert len(injector.events) == 1
    assert injector.reachable_addresses(15.0) == frozenset(range(6))


def test_failure_injector_rate_produces_failures():
    pier = churned(20, rate=60.0, seed=2)
    injector = pier.failure_injector
    pier.run(until=60.0)
    injector.stop()
    # With a mean of one failure per second over a minute we expect many events.
    assert len(injector.events) > 20
    assert injector.failures_in(0.0, 60.0) == len(injector.events)


def test_failure_injector_never_fails_node_zero():
    pier = churned(3, rate=600.0, seed=3)
    injector = pier.failure_injector
    pier.run(until=10.0)
    injector.stop()
    assert all(event.address != 0 for event in injector.events)
    assert injector.events  # someone else did fail


def test_failure_injector_only_fails_live_nodes():
    # Two candidate victims at ten failures a second are often both down;
    # the Poisson path then skips rather than failing a node twice.
    pier = churned(3, rate=600.0, seed=4)
    injector = pier.failure_injector
    pier.run(until=60.0)
    injector.stop()
    for address in (1, 2):
        intervals = sorted((event.failed_at, event.resumed_at)
                           for event in injector.events
                           if event.address == address)
        assert intervals
        assert all(earlier[1] <= later[0]
                   for earlier, later in zip(intervals, intervals[1:]))


def test_failure_injector_rejects_negative_rate():
    with pytest.raises(ExperimentError):
        ChurnConfig(failure_rate_per_min=-1.0)
