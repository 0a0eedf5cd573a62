"""Mid-query node failures through the real client → executor path.

The scenarios the churn tentpole must survive on both overlays:

(a) a node holding rehash fragments dies mid-query — fragments are lost,
    recall degrades, nothing hangs;
(b) the initiator's overlay neighbour dies while Fetch Matches gets are in
    flight — bounced requests retry, then complete empty;
(c) a statistics publisher dies — its ``__pier_stats__`` partial is purged
    at detection, its renewal stops, and AUTO queries keep planning.

Every scenario asserts the three churn invariants: the query terminates
(no hung pending gets), recall stays in (0, 1], and teardown is clean
(no leftover handles, per-node query state, probes or pending requests).
"""

import pytest

from repro.core.query import JoinStrategy
from repro.core.stats import STATS_NAMESPACE, StatsRegistry
from repro.dht.naming import hash_key
from repro.dht.provider import REQUEST_RETRIES, REQUEST_TIMEOUT_S
from repro.harness import ChurnConfig, PierNetwork, SimulationConfig
from repro.metrics.recall import recall as compute_recall
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.reference import answering_owner

NUM_NODES = 16
#: Renewal / lifetime parameters for the scenarios that need soft state.
REFRESH_PERIOD_S = 20.0
DATA_LIFETIME_S = 40.0


def build_churn_pier(dht, rate_per_min=0.0, renewal=False):
    """A churn deployment with the benchmark workload loaded."""
    churn = ChurnConfig(failure_rate_per_min=rate_per_min, seed=5)
    pier = PierNetwork(SimulationConfig(num_nodes=NUM_NODES, dht=dht, seed=7,
                                        churn=churn))
    workload = JoinWorkload(WorkloadConfig(num_nodes=NUM_NODES,
                                           s_tuples_per_node=2, seed=11))
    if renewal:
        pier.start_renewal_agents(REFRESH_PERIOD_S)
    load = dict(fast=True, track_renewal=renewal)
    if renewal:
        load["lifetime"] = DATA_LIFETIME_S
    pier.load_relation(workload.r_relation, workload.r_by_node, **load)
    pier.load_relation(workload.s_relation, workload.s_by_node, **load)
    return pier, workload


def assert_clean_teardown(pier, query_id):
    """No handles, per-node state, probes or pending gets anywhere."""
    for executor in pier.executors.values():
        assert not executor.has_query_state(query_id)
        assert query_id not in executor._handles
    for provider in pier.providers.values():
        assert provider.pending_get_count(query_id) == 0


# ------------------------------------------------- (a) rehash-target failure


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_rehash_target_failure_degrades_recall_without_hanging(dht):
    pier, workload = build_churn_pier(dht)
    client = pier.client(catalog=workload.catalog())
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    cursor = client.query(query, timeout_s=60.0)
    # Let the query flood and the first rehash puts get moving, then kill a
    # node that owns part of the rehash namespace (never the initiator).
    pier.run(until=pier.now + 0.25)
    namespace = query.rehash_namespace()
    victim = next(
        owner for owner in
        (pier.owner_of(namespace, join_value) for join_value in range(64))
        if owner != 0
    )
    pier.failure_injector.fail_now(victim)

    rows = cursor.fetchall()
    result = compute_recall(rows, workload.expected_results())
    assert 0.0 < result <= 1.0
    assert cursor.closed
    report = cursor.completeness()
    assert report.gets_pending == 0
    assert_clean_teardown(pier, query.query_id)


# ------------------------------------- (b) initiator-neighbour failure, gets


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_initiator_neighbor_failure_mid_fetch_matches(dht):
    pier, workload = build_churn_pier(dht)
    client = pier.client(catalog=workload.catalog())
    query = workload.make_query(strategy=JoinStrategy.FETCH_MATCHES)
    cursor = client.query(query, timeout_s=90.0)
    pier.run(until=pier.now + 0.25)
    victim = pier.routings[0].neighbors()[0]
    assert victim != 0
    pier.failure_injector.fail_now(victim)

    rows = cursor.fetchall()
    result = compute_recall(rows, workload.expected_results())
    assert 0.0 < result <= 1.0
    report = cursor.completeness()
    # Every get the query issued resolved one way or another: completed,
    # failed fast (bounce/unresolved/timeout), or still counted pending at
    # the pre-teardown snapshot — and nothing is left pending afterwards.
    assert report.gets_issued == (report.gets_completed + report.gets_failed
                                  + report.gets_pending)
    assert_clean_teardown(pier, query.query_id)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_semi_join_pair_fetches_survive_failure(dht):
    pier, workload = build_churn_pier(dht)
    client = pier.client(catalog=workload.catalog())
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_SEMI_JOIN)
    cursor = client.query(query, timeout_s=90.0)
    pier.run(until=pier.now + 0.6)  # rehash projections landing, fetches start
    victim = next(address for address in pier.network.live_addresses()
                  if address != 0)
    pier.failure_injector.fail_now(victim)

    rows = cursor.fetchall()
    result = compute_recall(rows, workload.expected_results())
    assert 0.0 < result <= 1.0
    assert_clean_teardown(pier, query.query_id)


# ---------------------------------------------- (c) stats-publisher failure


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_stats_publisher_failure_ages_out_partials(dht):
    pier, workload = build_churn_pier(dht, renewal=True)
    publisher = next(address for address in range(1, NUM_NODES)
                     if workload.r_by_node[address])
    lost = len(workload.r_by_node[publisher])
    total = pier.relation_stats.get("R").cardinality
    agent = pier.renewal_agents[publisher]
    assert agent.tracked_count(STATS_NAMESPACE) > 0

    pier.failure_injector.fail_now(publisher)
    # Past the detection delay: live owners purge the dead publisher's
    # partials, and its renewal agent must no longer resurrect them.
    pier.run(until=pier.now + 16.0)
    assert agent.tracked_count(STATS_NAMESPACE) == 0
    assert agent.tracked_count(workload.r_relation.namespace) > 0  # Fig. 6

    def fetch_merged_cardinality():
        registry = StatsRegistry()
        seen = []
        registry.fetch_relation(pier.providers[0], "R", seen.append)
        pier.run(until=pier.now + 5.0)
        assert seen, "stats fetch did not resolve"
        return 0 if seen[0] is None else seen[0].cardinality

    assert fetch_merged_cardinality() == total - lost
    # Several renewal periods later (identity recovered long ago) the dead
    # publisher's partial must not have been re-published.
    pier.run(until=pier.now + 3 * REFRESH_PERIOD_S)
    assert fetch_merged_cardinality() == total - lost

    # AUTO still plans from the surviving partials and the query completes.
    client = pier.client(catalog=workload.catalog())
    cursor = client.query(workload.make_query(strategy=JoinStrategy.AUTO),
                          timeout_s=45.0)
    rows = cursor.fetchall()
    result = compute_recall(rows, workload.expected_results())
    assert 0.0 < result <= 1.0
    pier.run(until=pier.now + 5.0)
    assert_clean_teardown(pier, cursor.query_id)


# ------------------------------------------------------ continuous injection


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_queries_terminate_under_continuous_churn(dht):
    pier, workload = build_churn_pier(dht, rate_per_min=2.0, renewal=True)
    client = pier.client(catalog=workload.catalog())
    pier.run(until=pier.now + 10.0)  # churn warm-up
    # A cursor ends once its query's work is done (failure injection is
    # background), so queries keep coming until churn has failed two nodes.
    strategies = (JoinStrategy.SYMMETRIC_HASH, JoinStrategy.BLOOM) * 10
    for strategy in strategies:
        live = pier.reachable_snapshot()
        expected = workload.expected_results(live_publishers=live)
        query = workload.make_query(strategy=strategy)
        cursor = client.query(query, timeout_s=40.0)
        rows = cursor.fetchall()
        result = compute_recall(rows, expected)
        assert 0.0 < result <= 1.0
        pier.run(until=pier.now + 5.0)  # teardown flood settles
        assert_clean_teardown(pier, query.query_id)
        if len(pier.failure_injector.events) >= 2:
            break
    else:
        pytest.fail("churn injected fewer than two failures")


# --------------------------------------------------- provider-level plumbing


def test_cancel_pending_sweeps_scoped_requests():
    pier, workload = build_churn_pier("can")
    provider = pier.providers[0]
    fired = []
    provider.get(workload.s_relation.namespace, 3, fired.append, scope=99)
    provider.get_batch(workload.s_relation.namespace, [4, 5],
                       fired.extend, scope=99)
    dropped = provider.cancel_pending(99)
    pier.run_until_idle()
    assert dropped >= 1
    assert provider.pending_get_count(99) == 0
    # Replies to cancelled requests are dropped, not delivered.
    assert all(item == [] or item[1] == [] for item in fired) or not fired


def test_get_times_out_when_overlay_dead_ends():
    pier, workload = build_churn_pier("can")
    provider = pier.providers[0]
    assert provider.request_timeout_s is not None
    for neighbor in pier.routings[0].neighbors():
        pier.failure_injector.fail_now(neighbor)
    # Remote key, every first hop dead: the lookup can never resolve; only
    # the timeout lane can complete the request.
    resource_id = next(
        rid for rid in range(64)
        if pier.owner_of(workload.s_relation.namespace, rid) != 0
    )
    results = []
    provider.get(workload.s_relation.namespace, resource_id, results.append,
                 scope=7)
    horizon = provider.request_timeout_s * (REQUEST_RETRIES + 1) + 5.0
    pier.run(until=pier.now + horizon)
    assert results == [[]]
    assert provider.pending_get_count(7) == 0
    assert provider.scope_report(7)["failed"] == 1


def needs_relay(pier, namespace, rid):
    """Whether node 0 routes a lookup of ``rid``: it does not own it, and its
    routing table does not name the owner (else it asks the owner directly)."""
    routing = pier.routings[0]
    return answering_owner(routing, routing._coordinate(hash_key(namespace, rid))) is None


def swallow_routed_batches(pier):
    """Every first hop of node 0 takes a routed batch and dies holding it.

    Returns the swallowed messages and a function that heals the overlay.
    """
    route_batch = pier.routings[0].PROTOCOL_ROUTE_BATCH
    relays = {address: pier.routings[address].node
              for address in pier.routings[0].neighbors()}
    swallowed = []
    for relay in relays.values():
        relay.replace_handler(route_batch,
                              lambda _node, message: swallowed.append(message))

    def heal():
        for address, relay in relays.items():
            relay.replace_handler(route_batch,
                                  pier.routings[address]._on_route_batch)

    return swallowed, heal


def test_get_batch_retries_a_lookup_that_died_with_its_relay():
    """A relay killed *holding* a routed batch sends no bounce: on a real
    cluster the lookup is simply gone.  get_batch tracks its ids from issue
    time, so the timeout retries them and each id is answered exactly once —
    and takes the routing layer's record of the dead lookup with it."""
    pier, workload = build_churn_pier("can")
    provider, namespace = pier.providers[0], workload.s_relation.namespace
    remote = [rid for rid in range(64) if needs_relay(pier, namespace, rid)]
    local = next(rid for rid in range(64) if pier.owner_of(namespace, rid) == 0)
    swallowed, heal = swallow_routed_batches(pier)

    answered = []
    provider.get_batch(namespace, [local] + remote,
                       lambda results: answered.extend(rid for rid, _ in results),
                       scope=7)
    assert answered == [local]  # local ids never wait on the overlay
    assert provider.pending_get_count(7) == len(remote)
    pier.run(until=pier.now + provider.request_timeout_s - 1.0)
    assert swallowed and answered == [local]
    assert len(provider.routing._pending_batch_lookups) == 1

    heal()  # before the retry
    pier.run(until=pier.now + provider.request_timeout_s)
    assert sorted(answered) == sorted([local] + remote)
    report = provider.scope_report(7)
    assert (report["issued"], report["completed"], report["failed"],
            report["pending"]) == (len(remote) + 1, len(remote) + 1, 0, 0)
    assert provider.routing._pending_batch_lookups == {}


def test_get_retries_a_lookup_that_died_with_its_relay():
    """The scalar front-end shares the lane: same retry, same release."""
    pier, workload = build_churn_pier("can")
    provider, namespace = pier.providers[0], workload.s_relation.namespace
    remote = next(rid for rid in range(64) if needs_relay(pier, namespace, rid))
    swallowed, heal = swallow_routed_batches(pier)

    answers = []
    provider.get(namespace, remote, answers.append, scope=7)
    pier.run(until=pier.now + provider.request_timeout_s - 1.0)
    assert swallowed and answers == []
    assert len(provider.routing._pending_batch_lookups) == 1

    heal()
    pier.run(until=pier.now + provider.request_timeout_s)
    assert len(answers) == 1 and answers[0]
    assert {item.resource_id for item in answers[0]} == {remote}
    report = provider.scope_report(7)
    assert (report["issued"], report["completed"], report["failed"],
            report["pending"]) == (1, 1, 0, 0)
    assert provider.routing._pending_batch_lookups == {}


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_giving_up_on_a_routed_lookup_releases_the_routing_layer(dht):
    """Cancelled, or dead with its node: the lookup-phase entry takes the
    routing layer's record of the lookup with it."""
    for give_up in (lambda provider: provider.cancel_pending(8),
                    lambda provider: provider.handle_node_failure()):
        pier, workload = build_churn_pier(dht)
        provider, namespace = pier.providers[0], workload.s_relation.namespace
        remote = [rid for rid in range(64) if pier.owner_of(namespace, rid) != 0]
        # A get whose owner the origin's table does not name is relayed.
        relayed = next(rid for rid in remote if pier.owner_of(namespace, rid)
                       not in provider.routing.neighbors())
        provider.get_batch(namespace, remote, lambda results: None, scope=8)
        provider.get(namespace, relayed, lambda items: None, scope=8)
        assert len(provider.routing._pending_batch_lookups) == 2
        give_up(provider)
        assert provider.routing._pending_batch_lookups == {}


def test_get_batch_lookup_answered_after_cancel_issues_nothing():
    pier, workload = build_churn_pier("can")
    provider, namespace = pier.providers[0], workload.s_relation.namespace
    remote = [rid for rid in range(64) if pier.owner_of(namespace, rid) != 0]
    answered = []
    provider.get_batch(namespace, remote,
                       lambda results: answered.extend(rid for rid, _ in results),
                       scope=8)
    assert provider.cancel_pending(8) == len(remote)  # lookup still routing
    pier.run_until_idle()
    assert answered == [] and provider.pending_get_count(8) == 0


def test_churn_free_deployment_matches_seed_behaviour():
    """Without a ChurnConfig nothing new is armed: no injector, no timers."""
    pier = PierNetwork(SimulationConfig(num_nodes=8, seed=7))
    assert pier.failure_injector is None
    assert pier.providers[0].request_timeout_s is None


def test_churn_deployment_and_real_node_arm_the_same_get_timeout():
    """A churn deployment's Providers bound their gets with the timeout a
    real node's Provider arms by default."""
    import asyncio

    from tests.test_real_hotpath import one_node_cluster

    async def real_node_timeout():
        async with one_node_cluster() as node:
            return node.provider.request_timeout_s

    churned, _workload = build_churn_pier("can")
    simulated = {provider.request_timeout_s
                 for provider in churned.providers.values()}
    assert simulated == {asyncio.run(real_node_timeout())} == {REQUEST_TIMEOUT_S}
