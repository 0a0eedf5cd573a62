"""The four closed-loop workloads and their oracles.

One client, one operation in flight.  Each workload generates its inputs
from the seed in ``__init__`` (never timed), builds and loads a deployment
in :meth:`Workload.build` and :meth:`Workload.load` (timed as ``setup_s``),
and runs one operation per
:meth:`Workload.op` call, checking the answer against an oracle computed
from the generated rows.  Why each workload exists, and how it was sized,
is in ``perfbench/README.md``; the one-line reasons are in
``BENCHMARK.json``.

Only API the roadmap keeps is used: ``PierNetwork``, ``SimulationConfig``,
``pier.client()``, ``PierClient.sql/query``, ``ResultCursor``,
``LocalCluster`` and ``RemotePier`` — plus the Provider/StorageManager
methods of the paper's Tables 2 and 3 for the publisher workload.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.core.query import JoinStrategy
from repro.core.stats import STATS_NAMESPACE
from repro.harness.experiment import PierNetwork, SimulationConfig
from repro.harness.realcluster import LocalCluster
from repro.workloads.generator import JoinWorkload, WorkloadConfig
from repro.workloads.network_monitoring import NetworkMonitoringWorkload

#: The paper's Figure 3 y-axis is the time to the 30th result tuple.
KTH = 30


class OracleMismatch(Exception):
    """An operation's answer differs from the oracle's."""


class OpClock:
    """Accumulates the wall clock of an op's timed regions.

    Oracle reads between regions (and after the last one) are neither timed
    nor traced: the tracer's root span covers exactly the same regions.
    """

    def __init__(self, tracer: Any = None):
        self.wall_s = 0.0
        self._tracer = tracer
        self._start = 0.0

    def __enter__(self) -> "OpClock":
        if self._tracer is not None:
            self._tracer.resume()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s += time.perf_counter() - self._start
        if self._tracer is not None:
            self._tracer.pause()


@dataclass
class OpResult:
    """What one correct operation measured (a wrong answer raises instead).

    The three ``t_*`` values are read off the deployment's own clock:
    simulated seconds on ``sim_*``, the gateway node's wall clock on
    ``tcp_join`` (the runner converts those to reference-host seconds).
    """

    t_first_s: float
    t_kth_s: float
    t_last_s: float
    traffic_mb: float
    #: Raw wall seconds of named parts of the op (monitor statements).
    parts_s: Dict[str, float] = field(default_factory=dict)
    result_rows: int = 0
    gets_failed: int = 0


def row_multiset(rows: Iterable[dict]) -> Counter:
    return Counter(tuple(sorted(row.items())) for row in rows)


def kth_or_last(times: Sequence[float], k: int = KTH) -> float:
    """The k-th arrival, or the last when fewer than k outcomes exist."""
    return times[min(k, len(times)) - 1]


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    #: Deployment clock the ``t_*`` metrics are read from.
    host_clock = False
    #: (full, toy) sizes; toy is what ``--check`` runs.
    SIZES: Tuple[Dict[str, int], Dict[str, int]] = ({}, {})
    #: Deployments an untraced run builds, loads and measures in turn, each
    #: from a seed of its own: ``setup_s`` and ``load_rows_per_s`` become
    #: medians, and what one seed's data and topology do to ``op_wall_s``
    #: averages out inside the run instead of showing up between runs.
    deployments = 3

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.size = self.SIZES[1 if toy else 0]

    def build(self) -> None:
        """Assemble the deployment (or boot the cluster), still empty."""
        raise NotImplementedError

    def load(self) -> Iterator[Tuple[int, float]]:
        """Load the relations slice by slice, yielding ``(rows, raw_wall_s)``.

        A generator, so the runner can calibrate between slices: each slice
        is bracketed like an op.
        """
        raise NotImplementedError

    def verify_load(self) -> None:
        """Raise :class:`OracleMismatch` unless every loaded row is stored."""
        raise NotImplementedError

    def op(self, clock: OpClock) -> OpResult:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the deployment (idempotent)."""

    # ------------------------------------------------- per-layer raw counters

    def counters(self) -> Dict[str, float]:
        """Monotonic counters the ledger takes per-op deltas of."""
        return {}

    def child_pids(self) -> List[int]:
        return []

    def survivors(self) -> List[int]:
        """PIDs this workload started that outlived teardown (must be none)."""
        return []


class _SimWorkload(Workload):
    """Shared plumbing of the simulated deployments."""

    pier: Optional[PierNetwork] = None
    #: Simulated set-ups are cheap; more of them make steadier medians.
    deployments = 5

    def _config(self) -> SimulationConfig:
        raise NotImplementedError

    def _relations(self) -> List[Tuple[Any, Dict[int, List[dict]]]]:
        raise NotImplementedError

    def _load_options(self) -> Dict[str, Any]:
        return {}

    def build(self) -> None:
        self.pier = PierNetwork(self._config())
        self.client = self.pier.client(catalog=self.workload.catalog())

    def load(self) -> Iterator[Tuple[int, float]]:
        start = time.perf_counter()
        rows = sum(self.pier.load_relation(relation, by_node,
                                           **self._load_options())
                   for relation, by_node in self._relations())
        yield rows, time.perf_counter() - start

    def live_count(self, namespace: str) -> int:
        """Items of ``namespace`` stored anywhere, without expiring any."""
        return sum(provider.storage.count(namespace)
                   for provider in self.pier.providers.values())

    def verify_load(self) -> None:
        for relation, by_node in self._relations():
            want = sum(len(rows) for rows in by_node.values())
            have = self.live_count(relation.namespace)
            if have != want:
                raise OracleMismatch(
                    f"{relation.name}: {have} rows stored, {want} loaded")

    def teardown(self) -> None:
        self.pier = None

    def counters(self) -> Dict[str, float]:
        pier = self.pier
        stats = pier.network.stats
        dht = pier.config.dht
        hops = keys = 0
        for routing in pier.routings.values():
            observed = routing.lookup_hops_observed
            hops += sum(observed)
            keys += len(observed)
        return {
            "simulator.events": pier.network.simulator.events_processed,
            "network.sends": stats.messages_sent,
            "network.deliveries": stats.messages_delivered,
            "network.drops": stats.messages_dropped,
            "network.bytes": stats.bytes_delivered,
            f"{dht}.hops": hops,
            f"{dht}.hop_keys": keys,
            "provider.put_bounces": sum(
                sum(provider.put_bounces_by_namespace.values())
                for provider in pier.providers.values()),
        }


# ------------------------------------------------------------- sim_join_can


class SimJoinCan(_SimWorkload):
    """The paper's Figure 3 query on a CAN full mesh."""

    name = "sim_join_can"
    SIZES = ({"nodes": 256}, {"nodes": 16})

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        nodes = self.size["nodes"]
        self.workload = JoinWorkload(WorkloadConfig(
            num_nodes=nodes, s_tuples_per_node=2, seed=seed))
        self.expected = row_multiset(self.workload.expected_results())

    def _config(self) -> SimulationConfig:
        return SimulationConfig(num_nodes=self.size["nodes"], dht="can",
                                seed=self.seed, coalesce_window_s=0.010)

    def _relations(self):
        wl = self.workload
        return [(wl.r_relation, wl.r_by_node), (wl.s_relation, wl.s_by_node)]

    def op(self, clock: OpClock) -> OpResult:
        stats = self.pier.network.stats
        before = stats.aggregate_traffic_mb
        with clock:
            cursor = self.client.query(self.workload.make_query(
                strategy=JoinStrategy.SYMMETRIC_HASH))
            rows = cursor.fetchall()
        traffic = stats.aggregate_traffic_mb - before
        if row_multiset(rows) != self.expected:
            raise OracleMismatch(
                f"join returned {len(rows)} rows, oracle has "
                f"{sum(self.expected.values())}")
        times = cursor.arrival_times()
        return OpResult(times[0], kth_or_last(times), times[-1], traffic,
                        result_rows=len(rows),
                        gets_failed=cursor.completeness().gets_failed)


# -------------------------------------------------------- sim_monitor_chord

#: Documented sketch bounds the approximate answers are held to.
HLL_RELATIVE_ERROR = 0.05  # three standard errors at log2m = 12 (1.6 % each)
COUNT_MIN_EPSILON = math.e / 512  # overestimate <= epsilon * N at width 512
KLL_RANK_ERROR = 0.02  # what tests/test_approx_aggregation.py allows

MONITOR_STATEMENTS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("agg",
     "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
     "GROUP BY I.fingerprint HAVING cnt > 10",
     {"hierarchical_aggregation": True}),
    ("hll",
     "SELECT APPROX COUNT(DISTINCT I.address) AS sources FROM intrusions I",
     {"hierarchical_aggregation": True}),
    ("topk",
     "SELECT APPROX_TOP_K(I.port, 5) AS ports FROM intrusions I", {}),
    ("pct",
     "SELECT I.fingerprint, APPROX_PERCENTILE(I.timestamp, 0.5) AS med "
     "FROM intrusions I GROUP BY I.fingerprint", {}),
    ("wagg",
     "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt "
     "FROM intrusions I, reputation R "
     "WHERE R.address = I.address AND I.port = 22 "
     "GROUP BY I.fingerprint HAVING wcnt > 10", {}),
)


class SimMonitorChord(_SimWorkload):
    """A five-statement monitoring dashboard over few nodes and many rows."""

    name = "sim_monitor_chord"
    SIZES = ({"nodes": 16, "rows_per_node": 800},
             {"nodes": 8, "rows_per_node": 60})

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.workload = NetworkMonitoringWorkload(
            num_nodes=self.size["nodes"],
            intrusions_per_node=self.size["rows_per_node"], seed=seed)
        self.intrusions = [row
                           for rows in self.workload.intrusions_by_node.values()
                           for row in rows]
        self.weights = {row["address"]: row["weight"]
                        for rows in self.workload.reputation_by_node.values()
                        for row in rows}

    def _config(self) -> SimulationConfig:
        return SimulationConfig(num_nodes=self.size["nodes"], dht="chord",
                                seed=self.seed)

    def _relations(self):
        wl = self.workload
        return [(wl.intrusions, wl.intrusions_by_node),
                (wl.reputation, wl.reputation_by_node)]

    def op(self, clock: OpClock) -> OpResult:
        stats = self.pier.network.stats
        before = stats.aggregate_traffic_mb
        parts: Dict[str, float] = {}
        t_first = t_kth = t_last = 0.0
        total_rows = gets_failed = 0
        for index, (name, sql, options) in enumerate(MONITOR_STATEMENTS):
            wall_before = clock.wall_s
            with clock:
                cursor = self.client.sql(sql, **options)
                rows = cursor.fetchall()
            parts[name] = clock.wall_s - wall_before
            getattr(self, f"_check_{name}")(rows)
            times = cursor.arrival_times()
            if index == 0:
                t_first, t_kth = times[0], kth_or_last(times)
            t_last += times[-1]
            total_rows += len(rows)
            gets_failed += cursor.completeness().gets_failed
        return OpResult(t_first, t_kth, t_last,
                        stats.aggregate_traffic_mb - before, parts, total_rows,
                        gets_failed)

    # ---------------------------------------------------------------- oracles

    def _check_agg(self, rows: List[dict]) -> None:
        have = sorted((row["I.fingerprint"], row["cnt"]) for row in rows)
        if have != self.workload.expected_attack_summary(threshold=10):
            raise OracleMismatch("attack summary differs from the golden answer")

    def _check_hll(self, rows: List[dict]) -> None:
        truth = len({row["address"] for row in self.intrusions})
        estimate = rows[0]["sources"]
        if abs(estimate - truth) > max(2.0, HLL_RELATIVE_ERROR * truth):
            raise OracleMismatch(f"HLL says {estimate} sources, truth {truth}")

    def _check_topk(self, rows: List[dict]) -> None:
        truth = Counter(row["port"] for row in self.intrusions)
        slack = COUNT_MIN_EPSILON * len(self.intrusions)
        reported = rows[0]["ports"]
        cutoff = sorted(truth.values(), reverse=True)[:5][-1]
        if len(reported) != min(5, len(truth)):
            raise OracleMismatch(f"top-k returned {len(reported)} ports")
        for port, estimate in reported:
            exact = truth.get(port, 0)
            if not exact <= estimate <= exact + slack or exact + slack < cutoff:
                raise OracleMismatch(
                    f"top-k reports port {port} x{estimate}, truth {exact}")

    def _check_pct(self, rows: List[dict]) -> None:
        by_group: Dict[str, List[float]] = {}
        for row in self.intrusions:
            by_group.setdefault(row["fingerprint"], []).append(row["timestamp"])
        if {row["I.fingerprint"] for row in rows} != set(by_group):
            raise OracleMismatch("percentile groups differ from the data's")
        for row in rows:
            values, median = by_group[row["I.fingerprint"]], row["med"]
            below = sum(1 for v in values if v < median) / len(values)
            at_or_below = sum(1 for v in values if v <= median) / len(values)
            if not (below - KLL_RANK_ERROR <= 0.5
                    <= at_or_below + KLL_RANK_ERROR):
                raise OracleMismatch(
                    f"median of {row['I.fingerprint']} is off by more than "
                    f"{KLL_RANK_ERROR} in rank")

    def _check_wagg(self, rows: List[dict]) -> None:
        counts: Counter = Counter()
        weights: Dict[str, float] = {}
        for row in self.intrusions:
            if row["port"] == 22 and row["address"] in self.weights:
                key = row["fingerprint"]
                counts[key] += 1
                weights[key] = weights.get(key, 0.0) + self.weights[row["address"]]
        truth = {key: counts[key] * weights[key] for key in counts
                 if counts[key] * weights[key] > 10}
        have = {row["I.fingerprint"]: row["wcnt"] for row in rows}
        if set(have) != set(truth) or any(
                not math.isclose(have[key], truth[key], rel_tol=1e-9)
                for key in truth):
            raise OracleMismatch("weighted summary differs from the oracle")


# -------------------------------------------------------- sim_publish_chord

FRESH_NAMESPACE = "perfbench_fresh"
REFRESH_PERIOD_S = 30.0
TUPLE_LIFETIME_S = 60.0
FRESH_LIFETIME_S = 15.0
#: Long enough for every put of the period to land, short enough that no
#: fresh item has expired: where the oracle looks at the fresh batch.
SETTLE_S = 10.0


class SimPublishChord(_SimWorkload):
    """One soft-state refresh period: every publisher renews, one publishes."""

    name = "sim_publish_chord"
    SIZES = ({"nodes": 128, "fresh_rows": 256}, {"nodes": 16, "fresh_rows": 32})

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.workload = JoinWorkload(WorkloadConfig(
            num_nodes=self.size["nodes"], s_tuples_per_node=2, seed=seed))
        self.periods = 0

    def _config(self) -> SimulationConfig:
        return SimulationConfig(num_nodes=self.size["nodes"], dht="chord",
                                seed=self.seed, sweep_period_s=5.0)

    def _relations(self):
        wl = self.workload
        return [(wl.r_relation, wl.r_by_node), (wl.s_relation, wl.s_by_node)]

    def _load_options(self) -> Dict[str, Any]:
        # fast=False never returns here: it waits for an idle event queue,
        # and renewal agents keep one timer pending forever.
        return {"fast": True, "track_renewal": True,
                "lifetime": TUPLE_LIFETIME_S}

    def build(self) -> None:
        super().build()
        self.pier.start_renewal_agents(REFRESH_PERIOD_S)
        self.periods = 0

    def verify_load(self) -> None:
        super().verify_load()
        # What renewals must keep alive, period after period.
        self.standing = {
            namespace: self.live_count(namespace)
            for namespace in (self.workload.r_relation.namespace,
                              self.workload.s_relation.namespace,
                              STATS_NAMESPACE)}

    def op(self, clock: OpClock) -> OpResult:
        pier = self.pier
        stats = pier.network.stats
        before = stats.aggregate_traffic_mb
        fresh_rows = self.size["fresh_rows"]
        first_id = self.periods * fresh_rows
        publisher = pier.provider(self.periods % pier.num_nodes)
        self.periods += 1
        entries = [(first_id + i, {"id": first_id + i}, None, 100)
                   for i in range(fresh_rows)]
        start = pier.now
        with clock:
            publisher.put_batch(FRESH_NAMESPACE, entries,
                                lifetime=FRESH_LIFETIME_S)
            pier.run(until=start + SETTLE_S)
        stored = sorted(
            item.stored_at - start
            for provider in pier.providers.values()
            # ``now=-inf``: read the index without expiring anything for
            # the program (expiry is the sweep's job, and it is measured).
            for item in provider.storage.scan(FRESH_NAMESPACE, -math.inf))
        if len(stored) != fresh_rows:
            raise OracleMismatch(
                f"{len(stored)} of {fresh_rows} fresh items stored")
        # Keys the publisher owns itself are stored inside the put call; an
        # item is *published* once another node holds it.
        stored = [elapsed for elapsed in stored if elapsed > 0.0]
        with clock:
            pier.run(until=start + REFRESH_PERIOD_S)
        leftover = self.live_count(FRESH_NAMESPACE)
        if leftover:
            raise OracleMismatch(f"{leftover} fresh items outlived their lifetime")
        for namespace, want in self.standing.items():
            have = self.live_count(namespace)
            if have != want:
                raise OracleMismatch(
                    f"{namespace}: {have} live items after renewal, want {want}")
        return OpResult(stored[0], kth_or_last(stored), stored[-1],
                        stats.aggregate_traffic_mb - before,
                        result_rows=fresh_rows)


# ----------------------------------------------------------------- tcp_join

LOAD_SLICES = 10
#: Per-query timeout handed to the cursor; the real backend has no idle
#: signal, so ``fetchall()`` would only return here.
QUERY_TIMEOUT_S = 30.0


def loopback_bytes() -> int:
    """Bytes the loopback interface has received (all cluster traffic)."""
    with open("/proc/net/dev") as table:
        for line in table:
            name, _, counters = line.partition(":")
            if name.strip() == "lo":
                return int(counters.split()[0])
    raise RuntimeError("no loopback interface in /proc/net/dev")


class TcpJoin(Workload):
    """Real ``python -m repro.node`` processes on loopback."""

    name = "tcp_join"
    host_clock = True
    SIZES = ({"nodes": 4, "s_tuples_per_node": 500},
             {"nodes": 2, "s_tuples_per_node": 20})

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.workload = JoinWorkload(WorkloadConfig(
            num_nodes=self.size["nodes"],
            s_tuples_per_node=self.size["s_tuples_per_node"], seed=seed))
        self.expected = row_multiset(self.workload.expected_results())
        self.expected_rows = sum(self.expected.values())
        self.cluster: Optional[LocalCluster] = None
        #: Every process this workload ever started, for the survivor check.
        self.spawned: List[Any] = []

    def build(self) -> None:
        # The node processes inherit the environment, PYTHONHASHSEED included.
        self.cluster = LocalCluster(self.size["nodes"], seed=self.seed)
        self.spawned.extend(self.cluster.processes)
        self.pier = self.cluster.connect()
        self.client = self.pier.client(catalog=self.workload.catalog())

    def load(self) -> Iterator[Tuple[int, float]]:
        wl = self.workload
        for k in range(LOAD_SLICES):
            start = time.perf_counter()
            rows = sum(
                self.pier.load_relation(
                    relation,
                    {node: rows[k::LOAD_SLICES] for node, rows in by_node.items()})
                for relation, by_node in ((wl.r_relation, wl.r_by_node),
                                          (wl.s_relation, wl.s_by_node)))
            yield rows, time.perf_counter() - start

    def verify_load(self) -> None:
        wl = self.workload
        for relation, by_node in ((wl.r_relation, wl.r_by_node),
                                  (wl.s_relation, wl.s_by_node)):
            want = sum(len(rows) for rows in by_node.values())
            have = self.pier.scan_count(relation.namespace)
            if have != want:
                raise OracleMismatch(
                    f"{relation.name}: {have} rows stored, {want} loaded")

    def op(self, clock: OpClock) -> OpResult:
        before = loopback_bytes()
        t_first = t_kth = t_last = 0.0
        gets_failed = 0
        for index, strategy in enumerate((JoinStrategy.SYMMETRIC_HASH,
                                          JoinStrategy.FETCH_MATCHES)):
            with clock:
                cursor = self.client.query(
                    self.workload.make_query(strategy=strategy),
                    timeout_s=QUERY_TIMEOUT_S)
                rows = cursor.fetch(self.expected_rows)
                cursor.cancel()
            if row_multiset(rows) != self.expected:
                raise OracleMismatch(
                    f"{strategy.value} returned {len(rows)} rows, oracle has "
                    f"{self.expected_rows}")
            times = cursor.arrival_times()
            if index == 0:
                t_first, t_kth = times[0], kth_or_last(times)
            t_last += times[-1]
            gets_failed += cursor.completeness().gets_failed
        traffic = (loopback_bytes() - before) / 1e6
        return OpResult(t_first, t_kth, t_last, traffic,
                        result_rows=2 * self.expected_rows,
                        gets_failed=gets_failed)

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None

    def survivors(self) -> List[int]:
        alive = [proc for proc in self.spawned if proc.poll() is None]
        for proc in alive:
            proc.kill()
            proc.wait()
        return [proc.pid for proc in alive]

    def child_pids(self) -> List[int]:
        return [proc.pid for proc in self.cluster.processes]


WORKLOADS = {cls.name: cls for cls in (SimJoinCan, SimMonitorChord,
                                       SimPublishChord, TcpJoin)}


# ------------------------------------------------------------ /proc readers

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def process_peak_rss_mb(pid: int) -> float:
    """High-water resident set of ``pid`` (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
