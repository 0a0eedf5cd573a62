"""Sketch accuracy and bytes-to-root: approximate vs. exact aggregation.

The mergeable-sketch subsystem's claim is twofold: the estimates stay
inside their published error bounds, and the per-partial payload is
*bounded* in input cardinality — it grows with the distinct values (3 bytes
a set register) up to the dense register file and is flat from there —
where the exact aggregate's payload (the distinct-value set itself) grows
linearly without end.  This benchmark measures both, then runs the claim
through the real aggregation path — ``APPROX COUNT(DISTINCT R.num1)`` on a
deployed network, reading the executor's per-query shipped-bytes counters —
sweeping data volume (the exact payload grows, the sketch's stops at its
dense size) and the combiner-tree branching factor (level-0 traffic at the
root shrinks as combiners pre-merge).

Besides the usual ``benchmarks/results/sketches.{txt,json}`` outputs it
writes ``BENCH_sketch.json`` at the repository root — the committed
accuracy/size trajectory point CI's sketch-smoke job asserts against and
uploads.

Acceptance (asserted under pytest): HLL relative error ≤ 2 % at 10^5
distincts (log2m=12), KLL rank error ≤ 1 %, top-k exact on the skewed
stream; sketch partial bytes non-decreasing in cardinality, never above the
dense size and flat from 10^4 distincts on while exact partial bytes grow
linearly; on the network, sketch bytes-to-root non-decreasing in data volume,
bounded by one dense partial per node and below exact at the largest sweep
point.
"""

import json
from dataclasses import replace
from pathlib import Path

from bench_common import (
    bench_seed,
    build_loaded_network,
    is_smoke,
    node_axis,
    report,
    run_query,
    smoke_trim,
)
from repro.core.operators.aggregate import GroupByAggregate
from repro.sketches import HyperLogLog, KLLSketch, TopKSketch

#: Committed accuracy/size artifact.
ROOT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sketch.json"

#: Distinct-value axis of the pure-sketch error curve (smoke keeps two).
CARDINALITIES = (10_000, 100_000, 1_000_000)

#: ``s_tuples_per_node`` axis of the network sweep: R's cardinality (and
#: with it every node's exact distinct-value set) scales linearly with it.
DATA_VOLUMES = (2, 8, 32)

#: Combiner-tree branching factors for the level-0 (root-inbound) sweep.
BRANCHING_FACTORS = (2, 4, 8)

#: HLL register-count exponent used on the network: 2^8 registers keep the
#: sketch payload (at most ~280 B) below the workload's per-node value sets so
#: the bounded-vs-growing comparison is visible at simulator-tractable scales.
#: The measured error rides along in the results (std error ~6.5 %).
NETWORK_LOG2M = 8

APPROX_SQL = "SELECT APPROX COUNT(DISTINCT R.num1) AS d FROM R"
EXACT_SQL = "SELECT COUNT(DISTINCT R.num1) AS d FROM R"


# ------------------------------------------------------- sketch-only curves


def hll_error_rows():
    rows = []
    for n in smoke_trim(CARDINALITIES):
        sketch = HyperLogLog()  # log2m=12, the acceptance configuration
        for i in range(n):
            sketch.add(i)
        estimate = int(round(sketch.estimate()))
        rows.append({
            "kind": "hll_error", "distinct": n, "estimate": estimate,
            "rel_error": round(abs(estimate - n) / n, 5),
            "payload_bytes": sketch.payload_bound(),
        })
    return rows


def kll_error_row():
    n = 10_000 if is_smoke() else 100_000
    sketch = KLLSketch()  # k=200
    for i in range(n):
        sketch.add(i)
    worst = 0.0
    for p in (0.01, 0.25, 0.5, 0.75, 0.99):
        estimate = sketch.quantile(p)
        worst = max(worst, abs((estimate + 1) / n - p))
    return {"kind": "kll_rank_error", "n": n, "max_rank_error": round(worst, 5)}


def topk_row():
    """Zipf-ish stream: the k heavy values must come back exactly."""
    sketch = TopKSketch(k=5)
    truth = {f"v{rank}": 5000 // (rank + 1) for rank in range(50)}
    for value, count in truth.items():
        sketch.add(value, count)
    expected = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    top = sketch.estimate()
    return {"kind": "topk", "values": 50, "k": 5,
            "exact_top_k": top == expected}


def partial_size_rows():
    """One node's shipped partial: exact value set vs. bounded sketch."""

    def partial_bytes(function, n):
        operator = GroupByAggregate(
            group_by=[], aggregates=[(function, "x", "d", None)])
        operator.accumulate_many((), [[f"value-{i}" for i in range(n)]], n)
        return operator.partial_sizes()[()]

    rows = []
    for n in smoke_trim((100, 1_000, 10_000, 100_000), keep=3):
        rows.append({
            "kind": "partial_bytes", "distinct": n,
            "exact_bytes": partial_bytes("count_distinct", n),
            "sketch_bytes": partial_bytes("approx_count_distinct", n),
        })
    return rows


# ------------------------------------------------------- the deployed path


def run_network(s_tuples_per_node, approx, branching=None):
    """One deployed aggregation; returns shipped-byte counters + accuracy."""
    num_nodes = node_axis((64,))[0]
    pier, workload = build_loaded_network(
        num_nodes, s_tuples_per_node=s_tuples_per_node, seed=bench_seed(3))
    options = {}
    if branching is not None:
        options.update(hierarchical_aggregation=True,
                       aggregation_branching=branching)
    query = pier.client(catalog=workload.catalog()).plan(
        APPROX_SQL if approx else EXACT_SQL, **options)
    if approx:
        query.aggregates = [replace(query.aggregates[0], param=NETWORK_LOG2M)]
    outcome = run_query(pier, query, initiator=0)
    level0 = level1 = 0
    for address in range(num_nodes):
        counters = pier.executor(address).agg_bytes.get(query.query_id)
        if counters:
            level0 += counters["level0"]
            level1 += counters["level1"]
    truth = len({row["num1"] for rows in workload.r_by_node.values()
                 for row in rows})
    estimate = outcome.rows[0]["d"] if outcome.rows else None
    return {
        "kind": "network", "nodes": num_nodes,
        "mode": "sketch" if approx else "exact",
        "shape": "flat" if branching is None else f"tree-b{branching}",
        "s_tuples_per_node": s_tuples_per_node,
        "distinct_truth": truth, "estimate": estimate,
        "rel_error": (round(abs(estimate - truth) / truth, 4)
                      if estimate is not None else None),
        "root_inbound_bytes": level0, "combiner_inbound_bytes": level1,
    }


def network_rows():
    rows = []
    # Sweep data volume under flat aggregation: exact bytes-to-root grow
    # with cardinality, the sketch's stop at one dense partial per node.
    for s_tuples in smoke_trim(DATA_VOLUMES):
        rows.append(run_network(s_tuples, approx=False))
        rows.append(run_network(s_tuples, approx=True))
    # Sweep the combiner-tree branching factor at the middle volume: fewer
    # level-0 senders (the root hears from `b` combiners, not every node).
    s_tuples = smoke_trim(DATA_VOLUMES)[-1]
    for branching in smoke_trim(BRANCHING_FACTORS):
        rows.append(run_network(s_tuples, approx=False, branching=branching))
        rows.append(run_network(s_tuples, approx=True, branching=branching))
    return rows


def sweep():
    rows = []
    rows.extend(hll_error_rows())
    rows.append(kll_error_row())
    rows.append(topk_row())
    rows.extend(partial_size_rows())
    rows.extend(network_rows())
    write_root_artifact(rows)
    return rows


def write_root_artifact(rows) -> None:
    """Write the committed ``BENCH_sketch.json`` trajectory point."""
    payload = {
        "benchmark": "sketches",
        "query": APPROX_SQL,
        "smoke": is_smoke(),
        "network_log2m": NETWORK_LOG2M,
        "hll_error": [r for r in rows if r["kind"] == "hll_error"],
        "kll_rank_error": next(r for r in rows if r["kind"] == "kll_rank_error"),
        "topk": next(r for r in rows if r["kind"] == "topk"),
        "partial_bytes": [r for r in rows if r["kind"] == "partial_bytes"],
        "network": [r for r in rows if r["kind"] == "network"],
    }
    ROOT_ARTIFACT.write_text(json.dumps(payload, indent=2, default=str) + "\n",
                             encoding="utf-8")


# ----------------------------------------------------------------- pytest


def test_sketch_benchmark(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("sketches", "Sketch accuracy and bytes-to-root vs. exact", rows)

    for row in (r for r in rows if r["kind"] == "hll_error"):
        # The acceptance bound is pinned at the 10^5 point; the others sit
        # within ~2 standard errors of their cardinality.
        bound = 0.02 if row["distinct"] == 100_000 else 0.04
        assert row["rel_error"] <= bound, row
    assert next(r for r in rows if r["kind"] == "kll_rank_error")[
        "max_rank_error"] <= 0.01
    assert next(r for r in rows if r["kind"] == "topk")["exact_top_k"]

    sizes = [r for r in rows if r["kind"] == "partial_bytes"]
    sketch_bytes = [r["sketch_bytes"] for r in sizes]
    dense_bytes = sketch_bytes[-1]  # the whole register file + the envelope
    assert 9 + (1 << 12) < dense_bytes <= 9 + (1 << 12) + 64
    assert sketch_bytes == sorted(sketch_bytes)  # non-decreasing ...
    assert max(sketch_bytes) == dense_bytes  # ... never above the dense form
    assert all(r["sketch_bytes"] == dense_bytes  # ... and flat once there
               for r in sizes if r["distinct"] >= 10_000)
    assert sizes[-1]["sketch_bytes"] < sizes[-1]["exact_bytes"]
    assert sizes[-1]["exact_bytes"] > 10 * sizes[0]["exact_bytes"]  # linear

    flats = [r for r in rows if r["kind"] == "network" and r["shape"] == "flat"]
    by_mode = lambda mode: [r for r in flats if r["mode"] == mode]  # noqa: E731
    exact, sketch = by_mode("exact"), by_mode("sketch")
    # Exact bytes-to-root grow with data volume; the sketch's grow only
    # until every node's partial is dense (2^8 registers + envelope).
    assert exact[-1]["root_inbound_bytes"] > 2 * exact[0]["root_inbound_bytes"]
    assert sketch[0]["root_inbound_bytes"] <= sketch[-1]["root_inbound_bytes"]
    dense_partial = 9 + (1 << NETWORK_LOG2M) + 64  # registers + envelope
    assert sketch[-1]["root_inbound_bytes"] <= sketch[-1]["nodes"] * dense_partial
    # At the largest sweep point the sketch ships less than the exact sets.
    assert sketch[-1]["root_inbound_bytes"] < exact[-1]["root_inbound_bytes"]
    for row in (r for r in rows if r["kind"] == "network"
                and r["mode"] == "sketch"):
        assert row["rel_error"] <= 0.15, row  # 2^8 registers: ~6.5 % σ


def main(argv=None):
    from bench_common import run_main
    run_main("sketches", "Sketch accuracy and bytes-to-root vs. exact",
             sweep, argv)


if __name__ == "__main__":
    main()
