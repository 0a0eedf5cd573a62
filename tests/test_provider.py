"""Integration tests for the Provider (Table 3 API), renewal and multicast."""

from repro.dht.can import CanNetworkBuilder
from repro.dht.naming import hash_key
from repro.dht.provider import Provider
from repro.net.network import Network
from repro.net.topology import FullMeshTopology


def build_provider_network(num_nodes=12, latency=0.02, sweep=0.0):
    network = Network(FullMeshTopology(num_nodes, latency_s=latency,
                                       capacity_bytes_per_s=float("inf")))
    builder = CanNetworkBuilder(dimensions=2)
    routings = builder.build_stabilized(network)
    providers = {
        address: Provider(network.node(address), routings[address],
                          sweep_period_s=sweep)
        for address in range(num_nodes)
    }
    return network, providers, builder


# ----------------------------------------------------------------------- put


def test_put_stores_item_at_owner():
    network, providers, builder = build_provider_network()
    providers[0].put("table", "key-1", None, {"v": 1}, item_bytes=80)
    network.run_until_idle()
    owner = builder.owner_of_key(hash_key("table", "key-1"))
    assert providers[owner].get_local("table", "key-1")[0].value == {"v": 1}
    # Nobody else holds it.
    for address, provider in providers.items():
        if address != owner:
            assert provider.get_local("table", "key-1") == []


def test_put_returns_generated_instance_ids():
    _network, providers, _builder = build_provider_network(4)
    first = providers[0].put("t", "a", None, 1)
    second = providers[0].put("t", "a", None, 2)
    assert first != second


def test_put_with_same_instance_id_overwrites():
    network, providers, builder = build_provider_network()
    providers[0].put("t", "x", 42, "old")
    providers[0].put("t", "x", 42, "new")
    network.run_until_idle()
    owner = builder.owner_of_key(hash_key("t", "x"))
    items = providers[owner].get_local("t", "x")
    assert len(items) == 1
    assert items[0].value == "new"


# ----------------------------------------------------------------------- get


def test_get_returns_items_from_remote_owner():
    network, providers, _builder = build_provider_network()
    providers[3].put("t", "r", None, "payload")
    network.run_until_idle()
    received = []
    providers[5].get("t", "r", received.extend)
    network.run_until_idle()
    assert [item.value for item in received] == ["payload"]


def test_get_missing_key_returns_empty_list():
    network, providers, _builder = build_provider_network()
    received = []
    providers[2].get("t", "absent", received.extend)
    network.run_until_idle()
    assert received == []


def test_get_is_synchronous_when_local():
    network, providers, builder = build_provider_network()
    owner = builder.owner_of_key(hash_key("t", "local"))
    providers[owner].put("t", "local", None, "here")
    network.run_until_idle()
    received = []
    providers[owner].get("t", "local", received.extend)
    assert [item.value for item in received] == ["here"]


# ----------------------------------------------------------- lscan / newData


def test_lscan_sees_only_local_partition():
    network, providers, builder = build_provider_network()
    for resource in range(30):
        providers[0].put("t", resource, None, resource)
    network.run_until_idle()
    total = sum(len(list(provider.lscan("t"))) for provider in providers.values())
    assert total == 30
    for address, provider in providers.items():
        for item in provider.lscan("t"):
            assert builder.owner_of_key(hash_key("t", item.resource_id)) == address


def test_new_data_callback_fires_at_owner():
    network, providers, builder = build_provider_network()
    owner = builder.owner_of_key(hash_key("t", "watched"))
    arrivals = []
    providers[owner].on_new_data(
        "t", lambda items: arrivals.extend(item.value for item in items))
    providers[1].put("t", "watched", None, "fresh")
    network.run_until_idle()
    assert arrivals == ["fresh"]


def test_new_data_not_fired_for_renewal_of_same_instance():
    network, providers, builder = build_provider_network()
    owner = builder.owner_of_key(hash_key("t", "x"))
    arrivals = []
    providers[owner].on_new_data(
        "t", lambda items: arrivals.extend(item.value for item in items))
    providers[1].put("t", "x", 7, "v1")
    network.run_until_idle()
    providers[1].renew("t", "x", 7, lifetime=100.0)
    network.run_until_idle()
    assert arrivals == ["v1"]  # only the first arrival is "new data"


# ------------------------------------------------------------------ lifetime


def test_items_age_out_after_lifetime():
    network, providers, builder = build_provider_network()
    providers[0].put("t", "ephemeral", None, "soon gone", lifetime=10.0)
    network.run_until_idle()
    owner = builder.owner_of_key(hash_key("t", "ephemeral"))
    # Advance virtual time beyond the lifetime with a dummy event.
    network.simulator.schedule(20.0, lambda: None)
    network.run_until_idle()
    assert providers[owner].get_local("t", "ephemeral") == []


def test_renewal_keeps_item_alive():
    network, providers, builder = build_provider_network()
    instance = providers[0].put("t", "kept", None, "alive", lifetime=10.0)
    network.run_until_idle()
    owner = builder.owner_of_key(hash_key("t", "kept"))
    network.simulator.schedule(8.0, lambda: providers[0].renew("t", "kept", instance, lifetime=10.0))
    network.simulator.schedule(15.0, lambda: None)
    network.run_until_idle()
    assert providers[owner].get_local("t", "kept") != []


def test_renewal_agent_republishes_tracked_items():
    network, providers, builder = build_provider_network()
    agent = providers[0].make_renewal_agent(refresh_period=5.0)
    instance = providers[0].put("t", "tracked", None, "v", lifetime=8.0)
    agent.track("t", "tracked", instance, "v", lifetime=8.0, size_bytes=40)
    agent.start()
    network.run(until=30.0)
    owner = builder.owner_of_key(hash_key("t", "tracked"))
    assert providers[owner].get_local("t", "tracked") != []
    agent.stop()
    assert agent.tracked_count() == 1


def test_renewal_agent_restores_data_lost_to_failure():
    network, providers, builder = build_provider_network()
    agent = providers[0].make_renewal_agent(refresh_period=5.0)
    instance = providers[0].put("t", "lost", None, "v", lifetime=20.0)
    agent.track("t", "lost", instance, "v", lifetime=20.0, size_bytes=40)
    agent.start()
    network.run(until=1.0)
    owner = builder.owner_of_key(hash_key("t", "lost"))
    providers[owner].handle_node_failure()
    assert providers[owner].get_local("t", "lost") == []
    network.run(until=network.now + 6.0)
    assert providers[owner].get_local("t", "lost") != []


def test_periodic_sweep_purges_expired_items():
    network, providers, builder = build_provider_network(sweep=1.0)
    providers[0].put("t", "gone", None, "x", lifetime=2.0)
    network.run(until=5.0)
    owner = builder.owner_of_key(hash_key("t", "gone"))
    assert providers[owner].storage.count("t") == 0


# ------------------------------------------------------------------ multicast


def test_multicast_reaches_every_node():
    network, providers, _builder = build_provider_network(16)
    deliveries = []
    for address, provider in providers.items():
        provider.on_multicast(
            "announce", lambda ns, rid, item, origin, address=address: deliveries.append(address)
        )
    providers[4].multicast("announce", "q1", {"hello": True})
    network.run_until_idle()
    assert sorted(deliveries) == list(range(16))


def test_multicast_delivers_payload_and_origin():
    network, providers, _builder = build_provider_network(6)
    received = []
    providers[5].on_multicast(
        "announce", lambda ns, rid, item, origin: received.append((ns, rid, item, origin))
    )
    providers[2].multicast("announce", "rid-7", "payload")
    network.run_until_idle()
    assert received == [("announce", "rid-7", "payload", 2)]


def test_multicast_duplicate_suppression():
    network, providers, _builder = build_provider_network(12)
    counts = {address: 0 for address in providers}

    def count(address):
        counts[address] += 1

    for address, provider in providers.items():
        provider.on_multicast("ns", lambda *args, address=address: count(address))
    providers[0].multicast("ns", "once", None)
    network.run_until_idle()
    assert all(count == 1 for count in counts.values())


def test_multicast_skips_failed_nodes_but_reaches_rest():
    network, providers, _builder = build_provider_network(16)
    deliveries = set()
    for address, provider in providers.items():
        provider.on_multicast(
            "ns", lambda ns, rid, item, origin, address=address: deliveries.add(address)
        )
    network.fail_node(9)
    providers[0].multicast("ns", "q", None)
    network.run_until_idle()
    assert 9 not in deliveries
    # The flood must still reach the overwhelming majority of live nodes.
    assert len(deliveries) >= 13


def test_off_multicast_unregisters_handler():
    """Regression (pierlint PL302): on_multicast needs a symmetric
    off_multicast on the Provider surface — teardown paths must not reach
    into multicast_service directly."""
    network, providers, _builder = build_provider_network(6)
    received = []

    def handler(ns, rid, item, origin):
        received.append(item)

    providers[5].on_multicast("announce", handler)
    providers[2].multicast("announce", "r1", "first")
    network.run_until_idle()
    assert received == ["first"]

    assert providers[5].off_multicast("announce", handler) is True
    providers[2].multicast("announce", "r2", "second")
    network.run_until_idle()
    assert received == ["first"]
    # Unsubscribing twice is a no-op, not an error.
    assert providers[5].off_multicast("announce", handler) is False


def test_provider_close_cancels_sweep_timer():
    """Regression (pierlint PL303): the periodic expiry sweep handle must be
    held and cancelled on close(), or a drained node keeps a live timer."""
    network, providers, _builder = build_provider_network(4, sweep=5.0)
    # A periodic sweep reschedules itself forever, so the network never goes
    # idle — settle with a bounded run that lets a couple of sweeps fire.
    network.run(until=12.0)
    provider = providers[0]
    assert provider._sweep_timer is not None
    handle = provider._sweep_timer
    assert handle.active
    provider.close()
    assert provider._sweep_timer is None
    assert not handle.active
    provider.close()  # idempotent
