"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 5).  The simulations are scaled down from the paper's 1024–10,000
nodes to keep a pure-Python event simulator tractable; set the
``PIER_BENCH_SCALE`` environment variable to a float > 1 to scale node
counts back up when you have the time budget.

Each benchmark is runnable two ways:

* under pytest-benchmark (``pytest benchmarks/bench_foo.py``), which also
  checks the paper's qualitative claims with assertions;
* as a plain script (``python benchmarks/bench_foo.py [--smoke] [--seed N]
  [--nodes A,B,...]``), which runs the sweep and writes results without
  asserting — this is what CI's bench-smoke job uses.

``--smoke`` caps node counts and trims parameter grids so all twelve
benchmarks finish in well under two minutes combined; ``--seed`` overrides
every benchmark's RNG seed so runs are reproducible and CI can pin one.

Each benchmark prints its rows with :func:`repro.harness.reporting.format_table`
and writes them to ``benchmarks/results/<name>.txt`` (human-readable) and
``benchmarks/results/<name>.json`` (machine-readable; uploaded as a CI
artifact).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.client import ResultCursor
from repro.core.query import QuerySpec
from repro.harness import PierNetwork, SimulationConfig
from repro.harness.reporting import format_table
from repro.metrics.latency import LatencySummary, summarize_latency
from repro.metrics.traffic import TrafficBreakdown, breakdown_traffic
from repro.net.stats import TrafficStats
from repro.workloads import JoinWorkload, WorkloadConfig

#: Directory where benchmark result tables are written.
RESULTS_DIR = Path(__file__).parent / "results"

#: Node-count ceiling applied by ``--smoke`` (keeps CI runs to seconds).
SMOKE_NODE_CAP = 8

# Module state set by parse_args(); defaults give the full (non-smoke) run.
_SMOKE = False
_SEED_OVERRIDE: Optional[int] = None
_NODES_OVERRIDE: Optional[List[int]] = None
_PROFILE = False


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse the shared benchmark CLI and record the flags module-wide."""
    global _SMOKE, _SEED_OVERRIDE, _NODES_OVERRIDE, _PROFILE
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny deterministic run (node counts capped at "
                             f"{SMOKE_NODE_CAP}, parameter grids trimmed)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every benchmark seed for reproducibility")
    parser.add_argument("--nodes", type=str, default=None,
                        help="comma-separated node counts overriding the sweep "
                             "axis of benchmarks that take one (e.g. 256,1024,4096)")
    parser.add_argument("--profile", action="store_true",
                        help="run one sweep pass under cProfile and write the "
                             "top-25 cumulative table as a JSON artifact "
                             "(benchmarks that support it)")
    args = parser.parse_args(argv)
    _SMOKE = bool(args.smoke)
    _SEED_OVERRIDE = args.seed
    _PROFILE = bool(args.profile)
    if args.nodes:
        try:
            counts = [int(part) for part in args.nodes.split(",") if part]
        except ValueError:
            parser.error(f"--nodes expects comma-separated integers, got {args.nodes!r}")
        if not counts or any(count < 2 for count in counts):
            parser.error(f"--nodes needs counts >= 2, got {args.nodes!r}")
        _NODES_OVERRIDE = counts
    return args


def is_smoke() -> bool:
    """Whether ``--smoke`` was passed (tiny sizes, trimmed grids)."""
    return _SMOKE


def profile_enabled() -> bool:
    """Whether ``--profile`` was passed (emit a cProfile artifact)."""
    return _PROFILE


def bench_seed(default: int) -> int:
    """The benchmark's seed, honouring a ``--seed`` override."""
    return default if _SEED_OVERRIDE is None else _SEED_OVERRIDE


def node_axis(default: Sequence[int]) -> List[int]:
    """Node-count sweep axis honouring ``--nodes`` and ``--smoke``.

    Deduplicates while preserving order (the smoke cap collapses the top of
    the default axis onto one value).
    """
    if _NODES_OVERRIDE is not None:
        return list(_NODES_OVERRIDE)
    return list(dict.fromkeys(scaled(count) for count in default))


def smoke_trim(values: Sequence, keep: int = 2) -> list:
    """In smoke mode keep only the first ``keep`` grid values."""
    values = list(values)
    return values[:keep] if _SMOKE else values


def bench_scale() -> float:
    """User-controlled scale factor for node counts (default 1.0)."""
    try:
        return max(0.1, float(os.environ.get("PIER_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled(count: int) -> int:
    """Scale a node count by ``PIER_BENCH_SCALE`` (minimum of 2).

    In smoke mode the result is additionally capped at ``SMOKE_NODE_CAP``.
    """
    value = max(2, int(round(count * bench_scale())))
    if _SMOKE:
        value = min(value, SMOKE_NODE_CAP)
    return value


def row_key(row: Dict) -> tuple:
    """Canonical sortable identity of one result row.

    The single definition every benchmark's row-equivalence comparison
    uses, so they cannot drift on what "identical rows" means.
    """
    return tuple(sorted(row.items()))


def build_loaded_network(num_nodes: int,
                         s_tuples_per_node: int = 2,
                         seed: int = 0,
                         topology: str = "full_mesh",
                         bandwidth_bytes_per_s: Optional[float] = None,
                         dht: str = "can",
                         infinite_bandwidth: bool = False,
                         workload_overrides: Optional[dict] = None,
                         coalesce_window_s: float = 0.0,
                         ) -> tuple:
    """Build a PIER deployment with the benchmark workload loaded.

    Returns ``(pier, workload)``.  ``coalesce_window_s`` sets the
    network-level coalescing window (``0.0`` merges same-instant arrivals
    only).
    """
    seed = bench_seed(seed)
    workload_config = dict(num_nodes=num_nodes, s_tuples_per_node=s_tuples_per_node,
                           seed=seed)
    if workload_overrides:
        workload_config.update(workload_overrides)
    workload = JoinWorkload(WorkloadConfig(**workload_config))
    simulation = SimulationConfig(
        num_nodes=num_nodes,
        topology=topology,
        dht=dht,
        seed=seed,
        coalesce_window_s=coalesce_window_s,
        bandwidth_bytes_per_s=None if infinite_bandwidth else (
            bandwidth_bytes_per_s if bandwidth_bytes_per_s is not None else
            SimulationConfig(num_nodes=2).bandwidth_bytes_per_s
        ),
    )
    pier = PierNetwork(simulation)
    pier.load_relation(workload.r_relation, workload.r_by_node)
    pier.load_relation(workload.s_relation, workload.s_by_node)
    return pier, workload


class QueryOutcome(NamedTuple):
    """What one measured query produced; the deployment's counters are
    copies taken at its last row, before its teardown was delivered."""

    cursor: ResultCursor
    rows: List[dict]
    latency: LatencySummary
    #: The network's traffic counters, reset at the submit.
    stats: TrafficStats
    #: Events the simulator had run, since it was built.
    sim_events: int
    #: ``{"level0": bytes, "level1": bytes}`` shipped into the aggregation
    #: tree, over every node (empty for a query without one).
    agg_bytes: Dict[str, int]

    @property
    def result_count(self) -> int:
        """Number of result rows the initiator received."""
        return self.cursor.result_count

    @property
    def traffic(self) -> TrafficBreakdown:
        """:attr:`stats` in the paper's traffic categories."""
        return breakdown_traffic(self.stats)


def measure_query(pier: PierNetwork, query: QuerySpec,
                  initiator: int = 0) -> QueryOutcome:
    """Run ``query`` to completion through a client cursor, measured alone.

    The deployment is first run idle, which delivers an earlier query's
    teardown, and its traffic counters are reset.  Traffic, the event count
    and the per-query counters the teardown releases (``agg_bytes``, summed
    over the nodes) are copied once the last row is in, before the query
    is torn down: traffic is counted on delivery, so the teardown does not
    show.  A query its cursor cut short at the soft-state deadline raises
    instead of being recorded with truncated rows and latency.
    """
    pier.run_until_idle()
    pier.network.stats.reset()
    cursor = pier.client(node=initiator).query(query)
    cursor.fetch(sys.maxsize)  # every row, no teardown yet
    if cursor.timed_out:
        raise RuntimeError(
            f"query {query.query_id} did not finish within its "
            f"{query.temp_lifetime_s:g} s soft-state lifetime")
    stats = copy.deepcopy(pier.network.stats)
    sim_events = pier.network.simulator.events_processed
    agg_bytes: Counter = Counter()
    for executor in pier.executors.values():
        agg_bytes.update(executor.agg_bytes.get(query.query_id, {}))
    rows = cursor.fetchall()
    return QueryOutcome(cursor, rows, summarize_latency(cursor.handle),
                        stats, sim_events, dict(agg_bytes))


def run_benchmark_query(pier: PierNetwork, workload: JoinWorkload, strategy,
                        s_selectivity: Optional[float] = None,
                        computation_nodes: Optional[Sequence[int]] = None,
                        collection_window_s: Optional[float] = None,
                        initiator: int = 0):
    """Run the Section 5.1 query with the given strategy and knobs."""
    options = {}
    if collection_window_s is not None:
        options["collection_window_s"] = collection_window_s
    query = workload.make_query(strategy=strategy, s_selectivity=s_selectivity, **options)
    if computation_nodes is not None:
        query.computation_nodes = list(computation_nodes)
    return measure_query(pier, query, initiator=initiator)


def report(name: str, title: str, rows: List[Dict],
           columns: Optional[Sequence[str]] = None,
           extra: Optional[Dict] = None) -> str:
    """Print a result table and persist it under ``benchmarks/results``.

    Writes both the human-readable table (``<name>.txt``) and a JSON document
    (``<name>.json``) carrying the rows plus run metadata — the artifact CI's
    bench-smoke job uploads.
    """
    table = format_table(title, rows, columns=columns)
    print("\n" + table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
    document = {
        "name": name,
        "title": title,
        "smoke": _SMOKE,
        "seed_override": _SEED_OVERRIDE,
        "scale": bench_scale(),
        "rows": rows,
    }
    if extra:
        document.update(extra)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(document, indent=2, default=str) + "\n", encoding="utf-8"
    )
    return table


def run_main(name: str, title: str, sweep: Callable[[], List[Dict]],
             argv: Optional[Sequence[str]] = None,
             extra: Optional[Callable[[], Dict]] = None) -> List[Dict]:
    """Standard script entrypoint: parse flags, time the sweep, report.

    ``extra`` (optional) produces additional JSON fields after the sweep —
    e.g. the event-reduction measurement of the Figure 3 benchmark.
    """
    parse_args(argv)
    started = time.perf_counter()
    rows = sweep()
    elapsed = time.perf_counter() - started
    payload = {"wall_clock_s": round(elapsed, 3)}
    if extra is not None:
        payload.update(extra())
    report(name, title, rows, extra=payload)
    return rows


def _self_check(argv: Optional[Sequence[str]] = None) -> None:
    """Executed when this helper module is run like a benchmark script.

    CI's bench-smoke job globs ``benchmarks/bench_*.py``, which includes this
    file; rather than silently no-opping, parse the shared flags and report
    the resolved configuration so the step's output shows what every real
    benchmark will see.
    """
    parse_args(argv)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    print(f"bench_common self-check: smoke={is_smoke()} "
          f"seed_override={_SEED_OVERRIDE} scale={bench_scale()} "
          f"results_dir={RESULTS_DIR} — helper module, no benchmark to run")


if __name__ == "__main__":
    _self_check()
