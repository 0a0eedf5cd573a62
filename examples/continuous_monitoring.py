"""Continuous (windowed) aggregation over a live stream of intrusion reports.

The paper points out that network monitoring data is naturally a stream and
that PIER's push-based engine extends to continuous queries by adding
windowing.  This example keeps publishing new intrusion fingerprints while
``PierClient.continuous`` re-runs a windowed count query every 30 seconds of
virtual time, showing how each window reflects only the recently published
reports — and how each window's distributed state is torn down when the
next one is submitted.

Run with: ``python examples/continuous_monitoring.py``
(set ``PIER_EXAMPLE_NODES`` to change the deployment size).
"""

import os
import random

from repro import PierNetwork, SimulationConfig
from repro.harness.reporting import format_table
from repro.workloads import NetworkMonitoringWorkload


def main() -> None:
    num_nodes = int(os.environ.get("PIER_EXAMPLE_NODES", "32"))
    workload = NetworkMonitoringWorkload(num_nodes=num_nodes, intrusions_per_node=0, seed=3)
    pier = PierNetwork(SimulationConfig(num_nodes=num_nodes, seed=3))
    rng = random.Random(3)

    # A background process on every node publishes a new fingerprint report
    # every few seconds of virtual time (soft state with a 90 s lifetime).
    fingerprints = [f"fp-hot-{i}" for i in range(3)]
    next_report_id = [0]

    def publish(address: int) -> None:
        provider = pier.provider(address)
        report_id = next_report_id[0]
        next_report_id[0] += 1
        provider.put("intrusions", report_id, None, {
            "report_id": report_id,
            "fingerprint": rng.choice(fingerprints),
            "address": f"10.0.0.{address}",
            "port": rng.choice([22, 25, 80, 443]),
            "timestamp": pier.now,
        }, lifetime=90.0, item_bytes=workload.intrusions.tuple_bytes)

    for address in range(num_nodes):
        pier.network.node(address).schedule_periodic(
            5.0, publish, address, initial_delay=rng.uniform(0.5, 5.0)
        )

    # A windowed continuous query through the client session: count reports
    # per fingerprint over the trailing 30 seconds, re-run every 30 seconds.
    client = pier.client(node=0, catalog=workload.catalog())
    monitor = client.continuous(
        "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
        "GROUP BY I.fingerprint",
        period_s=30.0,
        window_column="timestamp", window_s=30.0,
        collection_window_s=5.0,
    )
    monitor.start(immediate=False)

    pier.run(until=150.0)
    monitor.stop()
    pier.run(until=180.0)

    rows = []
    for index, handle in enumerate(monitor.handles):
        for row in sorted(handle.final_rows(), key=lambda r: r["I.fingerprint"]):
            rows.append({
                "window": index,
                "submitted_at_s": round(handle.submitted_at, 1),
                "fingerprint": row["I.fingerprint"],
                "count_in_window": row["cnt"],
            })
    print(format_table("Windowed fingerprint counts (30 s windows)", rows))
    print(f"\nTotal reports published: {next_report_id[0]}")
    leaked = [address for address in range(num_nodes)
              if pier.executor(address).active_query_ids()]
    print(f"Per-node query state after the monitor stopped: "
          f"{'none (torn down)' if not leaked else leaked}")


if __name__ == "__main__":
    main()
