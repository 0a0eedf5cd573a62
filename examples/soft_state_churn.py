"""Soft state under churn: how refresh period trades bandwidth for recall.

Reproduces, at demo scale, the dynamic behind the paper's Figure 6: nodes
fail continuously, taking the soft state they stored with them; publishers
renew their tuples every ``refresh`` seconds, so a shorter refresh period
repairs the damage sooner.  The sweep is the Figure 6 benchmark's
(``benchmarks/bench_fig6_recall_soft_state.py``): one ``ChurnConfig``
deployment per (refresh period, failure rate) point, queried through
PierClient cursors.

Run with: ``python examples/soft_state_churn.py``
(set ``PIER_EXAMPLE_NODES`` to shrink the sweep, as the CI examples-smoke
job does).
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_fig6_recall_soft_state import recall_grid  # noqa: E402
from repro.harness.reporting import format_table  # noqa: E402


def main() -> None:
    num_nodes = int(os.environ.get("PIER_EXAMPLE_NODES", "48"))
    rows = [{
        "refresh_s": point["refresh_s"],
        "failures_per_min": round(point["failure_pct_per_min"] / 100 * num_nodes, 2),
        "avg_recall_pct": point["avg_recall_pct"],
        "model_recall_pct": point["model_recall_pct"],
    } for point in recall_grid(num_nodes, seed=13)]
    print(format_table(
        f"Average recall vs. refresh period and failure rate ({num_nodes} nodes)",
        rows,
    ))
    print("\nA longer refresh period leaves lost tuples missing longer (the model"
          "\ncolumn).  At demo scale the nodes that fail while a query runs add"
          "\nnoise of their own, so one run's measured column need not be monotone.")


if __name__ == "__main__":
    main()
