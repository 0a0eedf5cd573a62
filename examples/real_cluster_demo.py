"""Demo: query a real PIER cluster over TCP sockets.

Two modes:

* ``python examples/real_cluster_demo.py`` — boots a 4-node
  :class:`repro.harness.realcluster.LocalCluster` of ``python -m
  repro.node`` subprocesses on loopback ports, loads the Figure-3 join
  workload, runs the join through :class:`repro.client.PierClient`, and
  tears everything down.  No arguments needed.

* ``python examples/real_cluster_demo.py --gateway HOST:PORT`` — connects
  to an already-running cluster (for example the ``docker compose up``
  deployment in the repository root), waits until its membership lists
  ``PIER_EXAMPLE_NODES`` members, and does the same from outside it.

Either way, the query path is byte-identical to the simulator's: the same
planner, the same join dataflow, the same result cursor — only the
transport underneath differs.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import JoinStrategy  # noqa: E402
from repro.exceptions import NetworkError  # noqa: E402
from repro.harness.realcluster import LocalCluster  # noqa: E402
from repro.remote import RemotePier  # noqa: E402
from repro.workloads import JoinWorkload, WorkloadConfig  # noqa: E402

NUM_NODES = int(os.environ.get("PIER_EXAMPLE_NODES", "4"))


def connect_when_complete(host, port, deadline_s=60.0):
    """Connect once the gateway's membership lists ``NUM_NODES`` members."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            pier = RemotePier.connect(host, port)
            if pier.num_nodes >= NUM_NODES:
                return pier
            pier.close()
        except (OSError, NetworkError):
            pass
        if time.monotonic() >= deadline:
            raise RuntimeError(f"the cluster at {host}:{port} did not reach "
                               f"{NUM_NODES} members in time")
        time.sleep(0.5)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gateway", metavar="HOST:PORT", default=None,
                        help="connect to a running cluster instead of booting one")
    args = parser.parse_args()

    cluster = None
    if args.gateway:
        host, _, port = args.gateway.rpartition(":")
        pier = connect_when_complete(host, int(port))
    else:
        print(f"booting a local {NUM_NODES}-node cluster ...")
        cluster = LocalCluster(NUM_NODES)
        pier = cluster.connect()
    print(f"connected: {pier!r}")

    workload = JoinWorkload(WorkloadConfig(num_nodes=pier.num_nodes,
                                           s_tuples_per_node=4, seed=11))
    loaded = pier.load_relation(workload.r_relation, workload.r_by_node)
    loaded += pier.load_relation(workload.s_relation, workload.s_by_node)
    print(f"loaded {loaded} tuples "
          f"({pier.scan_count(workload.r_relation.namespace)} R, "
          f"{pier.scan_count(workload.s_relation.namespace)} S on the nodes)")

    client = pier.client(catalog=workload.catalog())
    started = time.monotonic()
    # Over the real transport fetch(k) blocks until k rows arrive (there is
    # no simulator "idle" signal), so ask for no more rows than the query
    # can produce and carry a wall-clock timeout as a backstop.
    cursor = client.sql(workload.sql_text(),
                        strategy=JoinStrategy.SYMMETRIC_HASH, timeout_s=30.0)
    rows = cursor.fetch(10)
    elapsed = time.monotonic() - started
    print(f"first {len(rows)} join rows in {elapsed:.2f}s wall clock; sample:")
    for row in rows[:5]:
        print("  ", {k: v for k, v in row.items() if k != "R.pad"})
    cursor.cancel()

    if cluster is not None:
        print("shutting the local cluster down ...")
        cluster.stop()
    else:
        pier.close()
    print("done.")


if __name__ == "__main__":
    main()
