"""Command line of the benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` is the driver's form:
one run in this process, one JSON object on the last line of stdout.
Without ``--workload`` every workload runs, each in a process of its own
(peak RSS is per process).  ``--check`` is the under-30-seconds self-test,
``--aa N`` measures how well the benchmark agrees with itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")


def declared() -> Dict[str, Any]:
    """The contract: ``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as contract:
        return json.load(contract)


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = declared()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=5,
                        help="feeds the generators, SimulationConfig.seed "
                             "and LocalCluster(seed=)")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="emit the per-layer ledger")
    parser.add_argument("--check", action="store_true",
                        help="toy-size self-test of oracles and metric names")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="run the untraced set N times, report spreads")
    args = parser.parse_args(argv)
    if args.check:
        return check(contract)
    if args.aa:
        return aa(contract, args.aa, args.seed, args.seconds)
    if args.workload:
        return single(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in names:
        for trace in ([0, 1] if args.trace else [0]):
            status |= spawn(name, args.seed, args.seconds, trace,
                            quiet=False)["returncode"]
    return status


# ------------------------------------------------------------------ one run


def single(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import runner

    result = runner.run(name, seed, seconds, trace)
    runner.write_results(result)
    print_result(result)
    print(runner.result_line(result))
    return 0


def print_result(result: Dict[str, Any]) -> None:
    kind = "per-layer ledger (traced)" if result["trace"] else "end to end"
    print(f"== {result['workload']} seed={result['seed']} {kind}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6f} {metric['unit']}")
    if result["top_layers"]:
        print("  top layers: " + ", ".join(result["top_layers"]))
    if result["absent_seams"]:
        print("  seams not found (not traced): "
              + ", ".join(result["absent_seams"]))
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def spawn(name: str, seed: int, seconds: float, trace: int,
          quiet: bool = True) -> Dict[str, Any]:
    """Run one workload in a fresh process; parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not quiet:
        print("\n".join(lines[:-1]))
    outcome: Dict[str, Any] = {"returncode": proc.returncode}
    if proc.returncode == 0 and lines:
        outcome.update(json.loads(lines[-1]))
        outcome["returncode"] = 0 if outcome["correct"] else 1
    return outcome


# -------------------------------------------------------------------- check


def check(contract: Dict[str, Any]) -> int:
    """Every workload at toy size, traced and untraced, against the contract."""
    from perfbench import runner
    from perfbench.workloads import WORKLOADS

    started = time.perf_counter()
    problems: List[str] = []
    names = [w["name"] for w in contract["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads declared {sorted(names)} != "
                        f"implemented {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = runner.run(name, seed=5, seconds=0.0, trace=trace,
                                toy=True, max_ops=2, deployments=1)
            want = {m["name"]: m["unit"] for m in contract[section]}
            have = {k: m["unit"] for k, m in result["metrics"].items()}
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: "
                                f"{result['failures'] or 'no metrics'}")
            for where, stray in (("declared, not emitted", set(want) - set(have)),
                                 ("emitted, not declared", set(have) - set(want))):
                if stray:
                    problems.append(f"{name} {section} {where}: "
                                    + ", ".join(sorted(stray)))
            for metric in sorted(set(want) & set(have)):
                if want[metric] != have[metric]:
                    problems.append(f"{name} {section}: {metric} unit "
                                    f"{have[metric]!r} != {want[metric]!r}")
            if trace:
                shares = sum(m["value"] for k, m in result["metrics"].items()
                             if k.endswith(".share")
                             and k.split(".")[0] in runner.LAYERS)
                if abs(shares - 1.0) > 0.02:
                    problems.append(f"{name}: layer shares sum to {shares:.3f}")
            print(f"check {name} trace={int(trace)}: "
                  f"{result['attempted']} ops, {result['failed']} failed")
    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"check: {'FAILED' if problems else 'ok'} in {elapsed:.1f}s")
    return 1 if problems else 0


# ----------------------------------------------------------------------- aa


def aa(contract: Dict[str, Any], repeats: int, seed: int, seconds: float) -> int:
    """Same code, ``repeats`` fresh processes per workload, a new seed each.

    The spread of a metric is the distance between the first and third
    quartile of its values as a share of their median — what the driver
    computes.  A metric whose spread exceeds its bound cannot resolve a
    regression of that size: it is *unresolved*, never *unchanged*.
    """
    from perfbench import runner

    bounds = {m["name"]: m for m in contract["end_to_end"]}
    path = os.path.join(runner.RESULTS_DIR, "aa.json")
    previous: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as earlier:
            previous = json.load(earlier).get("medians", {})
    values: Dict[str, Dict[str, List[float]]] = {}
    failed = 0
    for rep in range(repeats):
        for workload in (w["name"] for w in contract["workloads"]):
            outcome = spawn(workload, seed + rep, seconds, trace=0)
            if outcome["returncode"] != 0:
                failed += 1
                print(f"aa: {workload} seed {seed + rep} FAILED")
                continue
            for name, metric in outcome["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    name, []).append(metric["value"])
    report: Dict[str, Any] = {"repeats": repeats, "seed": seed,
                              "seconds": seconds, "failed_runs": failed,
                              "medians": {}, "rows": [], "claim": None}
    print(f"{'workload':<18} {'metric':<16} {'min':>12} {'median':>12} "
          f"{'max':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload, metrics in values.items():
        for name, series in metrics.items():
            mid = statistics.median(series)
            spread = 0.0
            if len(series) >= 2 and mid:
                q1, _q2, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(mid)
            bound = bounds[name]["bound"]
            verdict = "steady" if spread <= bound / 3 else \
                "wide" if spread <= bound else "unresolved"
            before = previous.get(workload, {}).get(name)
            if before and verdict != "unresolved":
                change = (mid - before) / before
                if bounds[name]["better"] == "higher":
                    change = -change
                verdict += (f", {'worse' if change > bound else 'unchanged'} "
                            f"vs previous ({change:+.1%})")
            print(f"{workload:<18} {name:<16} {min(series):>12.5g} {mid:>12.5g} "
                  f"{max(series):>12.5g} {spread:>7.1%} {bound:>6.0%}  {verdict}")
            report["medians"].setdefault(workload, {})[name] = mid
            report["rows"].append({"workload": workload, "metric": name,
                                   "values": series, "median": mid,
                                   "spread": spread, "bound": bound,
                                   "verdict": verdict})
    os.makedirs(runner.RESULTS_DIR, exist_ok=True)
    with open(path, "w") as out:
        json.dump(report, out, indent=1)
    return 1 if failed else 0
