"""Figure 6 on a **real TCP cluster** — recall vs. kill -9 rate, time-compressed.

The simulator's churn benchmark (``bench_fig6_recall_vs_failures.py``)
injects failures into a virtual clock; this one boots real
``python -m repro.node`` subprocesses on loopback sockets and sends
``SIGKILL`` mid-query.  Detection happens through the heartbeat failure
detector, in-flight requests resolve through the transport's bounce and
per-request-timeout lanes, and the client aggregates completeness over the
survivors — the full kill-to-degraded-answer path, end to end over real
sockets.

Time compression
----------------
The paper models a 15 s keep-alive detection delay; running that against
wall clock would make every point minutes long.  Instead both knobs are
scaled by ``TIME_COMPRESSION``: the real suspicion timeout is
``15 s / K`` and the real kill rate is the simulator rate ``× K``.  The
product (failures per detection window) — the quantity recall actually
depends on — is preserved, so points are comparable to the simulator
envelope in ``BENCH_churn.json`` at the *simulator-equivalent* rate
reported in ``failure_pct_per_min``.

Reference sets follow the paper (Section 3.3.1): the expected answer is
computed over data published by nodes alive at query-submit time.
Precision is additionally checked against the full loaded data set — a
failure may lose answers, it must never invent them.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

from bench_common import bench_seed, is_smoke, report, smoke_trim

from repro import JoinStrategy
from repro.harness.realcluster import LocalCluster
from repro.metrics.recall import recall_and_precision
from repro.workloads import JoinWorkload, WorkloadConfig

#: Wall-clock compression factor K: suspicion = 15 s / K, kill rate = sim × K.
TIME_COMPRESSION = 10.0
#: The paper's keep-alive detection delay (simulator default), compressed.
SUSPICION_REAL_S = 15.0 / TIME_COMPRESSION
HEARTBEAT_REAL_S = 0.3
REQUEST_TIMEOUT_S = 2.0
NUM_NODES = 6
#: Simulator-equivalent failure rates (% of population per minute) — the
#: same axis points as the committed ``BENCH_churn.json`` envelope.
SIM_FAILURE_PCTS = (0.0, 2.0, 6.0)
STRATEGIES = ("fetch_matches", "symmetric_hash")
QUERIES_PER_STRATEGY = 2
#: How long each query's cursor drives before declaring the answer final.
QUERY_HORIZON_S = 8.0
#: Slack past the horizon before a query counts as hung.
HUNG_GRACE_S = 20.0

BENCH_REALCHURN_PATH = Path(__file__).resolve().parent.parent / "BENCH_realchurn.json"


def build_cluster(seed: int):
    cluster = LocalCluster(
        NUM_NODES,
        seed=seed,
        heartbeat_period_s=HEARTBEAT_REAL_S,
        suspicion_timeout_s=SUSPICION_REAL_S,
        request_timeout_s=REQUEST_TIMEOUT_S,
    )
    cluster.connect()
    # Enough S tuples that one node's owned share stays near 1/NUM_NODES —
    # with a tiny relation one kill can strand a wildly lopsided fraction
    # of the join, which measures hash variance rather than churn.
    workload = JoinWorkload(WorkloadConfig(num_nodes=NUM_NODES,
                                           s_tuples_per_node=10, seed=seed))
    cluster.pier.load_relation(workload.r_relation, workload.r_by_node)
    cluster.pier.load_relation(workload.s_relation, workload.s_by_node)
    return cluster, workload


def run_point(cluster: LocalCluster, workload, sim_pct: float, seed: int,
              queries_per_strategy: int, horizon_s: float) -> list:
    """Run every strategy's queries under a seeded kill schedule."""
    rng = random.Random(seed + int(sim_pct * 100))
    # Simulator rate (fraction of population / min) scaled by K, in kills/s.
    kill_rate_per_s = (sim_pct / 100.0) * NUM_NODES * TIME_COMPRESSION / 60.0
    kills_due = 0.0
    pier = cluster.pier
    rows_out = []
    per_strategy = {name: {"recalls": [], "precisions": [],
                           "precision_full": 1.0, "hung": 0,
                           "gets_failed": 0, "gets_pending": 0,
                           "fragments_lost": 0, "degraded_ops": 0,
                           "kills": 0}
                    for name in STRATEGIES}
    full_reference = workload.expected_results()
    kills_total = 0
    rounds = [(round_index, name)
              for round_index in range(queries_per_strategy)
              for name in STRATEGIES]
    for position, (_round, name) in enumerate(rounds):
        is_last_query = position == len(rounds) - 1
        stats = per_strategy[name]
        kills_due += kill_rate_per_s * horizon_s
        # A nonzero-rate point whose expected kill count rounds to zero
        # would measure nothing: guarantee the schedule lands at least
        # one kill -9 inside the point's last query window.
        if (is_last_query and sim_pct > 0 and kills_total == 0
                and kills_due < 1.0):
            kills_due = 1.0
        # The paper's loss mechanism is a failure inside the *undetected*
        # window around query submit (detection delay ≫ dataflow time).
        # On loopback the dataflow completes in milliseconds, so the
        # schedule straddles the submit instant: a negative offset kills
        # the victim just before the query goes out (dead, not yet
        # suspected — requests to it must fail through the timeout and
        # bounce lanes), a positive one lands mid-horizon.
        straddle = min(SUSPICION_REAL_S, horizon_s) / 3.0
        timers = []
        killable = [a for a in cluster.live_addresses()
                    if a != pier.gateway_address]
        while kills_due >= 1.0 and len(killable) > 1:
            victim = rng.choice(killable)
            killable.remove(victim)
            offset = rng.uniform(-straddle, straddle)
            if offset <= 0:
                cluster.kill(victim)
            else:
                timers.append(threading.Timer(
                    offset, cluster.kill, args=(victim,)))
            kills_due -= 1.0
            stats["kills"] += 1
            kills_total += 1
        # Reference per the paper: data published by nodes alive at
        # query-submit time (pre-submit kills are already excluded).
        expected = workload.expected_results(
            live_publishers=cluster.live_addresses())
        client = pier.client(catalog=workload.catalog())
        for timer in timers:
            timer.start()
        cursor = client.query(workload.make_query(
            strategy=JoinStrategy(name)), timeout_s=horizon_s)
        started = time.monotonic()
        rows = cursor.fetchall()
        elapsed = time.monotonic() - started
        for timer in timers:
            timer.join()  # a scheduled kill must land before accounting
        completeness = cursor.completeness()
        if elapsed > horizon_s + HUNG_GRACE_S:
            stats["hung"] += 1
        point_recall, point_precision = recall_and_precision(rows, expected)
        stats["recalls"].append(point_recall)
        stats["precisions"].append(point_precision)
        _, p_full = recall_and_precision(rows, full_reference)
        stats["precision_full"] = min(stats["precision_full"], p_full)
        stats["gets_failed"] += completeness.gets_failed
        stats["gets_pending"] += completeness.gets_pending
        stats["fragments_lost"] += completeness.fragments_lost
        stats["degraded_ops"] += completeness.degraded_ops
    for name in STRATEGIES:
        stats = per_strategy[name]
        rows_out.append({
            "dht": cluster.dht,
            "strategy": name,
            "failure_pct_per_min": sim_pct,
            "real_kills_per_min": round(kill_rate_per_s * 60.0, 2),
            "kills_injected": stats["kills"],
            "kills_in_point": kills_total,
            "avg_recall": round(sum(stats["recalls"]) / len(stats["recalls"]), 4),
            "min_recall": round(min(stats["recalls"]), 4),
            "avg_precision": round(sum(stats["precisions"])
                                   / len(stats["precisions"]), 4),
            "precision_vs_loaded": round(stats["precision_full"], 4),
            "hung_queries": stats["hung"],
            "gets_failed": stats["gets_failed"],
            "gets_pending": stats["gets_pending"],
            "fragments_lost": stats["fragments_lost"],
            "degraded_ops": stats["degraded_ops"],
        })
    return rows_out


def sweep():
    seed = bench_seed(17)
    sim_pcts = smoke_trim(SIM_FAILURE_PCTS, keep=2)
    if is_smoke() and 0.0 in sim_pcts and len(sim_pcts) > 1:
        # Smoke keeps the extremes: the exactness point and the churn point.
        sim_pcts = [0.0, SIM_FAILURE_PCTS[-1]]
    queries = 1 if is_smoke() else QUERIES_PER_STRATEGY
    horizon = 6.0 if is_smoke() else QUERY_HORIZON_S
    rows = []
    for sim_pct in sim_pcts:
        cluster, workload = build_cluster(seed)
        try:
            rows.extend(run_point(cluster, workload, sim_pct, seed,
                                  queries_per_strategy=queries,
                                  horizon_s=horizon))
        finally:
            cluster.stop()
    _write_root_artifact(rows, seed, horizon)
    return rows


def _write_root_artifact(rows, seed: int, horizon: float) -> None:
    payload = {
        "figure": "fig6_real_tcp_cluster",
        "title": "Recall vs. kill -9 rate on a localhost TCP cluster "
                 "(time-compressed heartbeat detection)",
        "num_nodes": NUM_NODES,
        "seed": seed,
        "smoke": is_smoke(),
        "time_compression": TIME_COMPRESSION,
        "suspicion_timeout_real_s": SUSPICION_REAL_S,
        "heartbeat_period_real_s": HEARTBEAT_REAL_S,
        "request_timeout_s": REQUEST_TIMEOUT_S,
        "query_horizon_s": horizon,
        "envelope": "BENCH_churn.json (simulator Fig 6) at matched "
                    "failure_pct_per_min",
        "points": rows,
    }
    BENCH_REALCHURN_PATH.write_text(
        json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8")


def _envelope_min_recall():
    """min_recall per (dht, strategy, pct) from the simulator envelope."""
    path = BENCH_REALCHURN_PATH.parent / "BENCH_churn.json"
    if not path.exists():  # pragma: no cover - seed repos without the artifact
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {
        (p["dht"], p["strategy"], p["failure_pct_per_min"]): p["min_recall"]
        for p in doc["points"]
    }


#: Base shortfall allowed below the simulator envelope's min_recall, plus
#: a per-kill amplification term: the simulator envelope was measured on 48
#: nodes where one death strands ~1/48 of the data, while this cluster has
#: ``NUM_NODES`` — each real kill may legitimately cost ~1/NUM_NODES of the
#: answer on every query that races it, so the band widens per injected kill.
ENVELOPE_MARGIN = 0.15
#: Hard floor regardless of kill count: a churn query must still deliver
#: at least half the live-reference answer (zero hung queries is asserted
#: separately and unconditionally).
RECALL_HARD_FLOOR = 0.5


def check_rows(rows) -> None:
    """The assertions both the pytest path and CI's smoke job apply."""
    envelope = _envelope_min_recall()
    for row in rows:
        assert row["hung_queries"] == 0, row
        assert row["gets_pending"] == 0, row
        assert row["precision_vs_loaded"] == 1.0, row
        assert row["avg_recall"] > 0.0, row
        if row["failure_pct_per_min"] == 0.0:
            assert row["avg_recall"] == 1.0, row
            assert row["avg_precision"] == 1.0, row
            continue
        assert row["kills_in_point"] > 0, row
        assert row["min_recall"] >= RECALL_HARD_FLOOR, row
        floor = envelope.get((row["dht"], row["strategy"],
                              row["failure_pct_per_min"]))
        if floor is not None:
            margin = (ENVELOPE_MARGIN
                      + row["kills_in_point"] / float(NUM_NODES))
            assert row["avg_recall"] >= max(RECALL_HARD_FLOOR,
                                            floor - margin), (row, floor)


def test_real_churn(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("real_churn",
           "Fig 6 on a real TCP cluster: recall vs. kill -9 rate", rows)
    check_rows(rows)


def main(argv=None):
    from bench_common import run_main
    rows = run_main("real_churn",
                    "Fig 6 on a real TCP cluster: recall vs. kill -9 rate",
                    sweep, argv)
    if rows is not None:
        check_rows(rows)


if __name__ == "__main__":
    main()
