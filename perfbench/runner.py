"""One benchmark run: one workload, one seed, one process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the per-layer ledger: a short untraced pass first
(so tracing overhead is a measured number, not a guess), then the same ops
with :mod:`perfbench.trace` installed, then the isolated layer timings.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import micro
from perfbench.calibrate import calibrate, speed_factor
from perfbench.trace import LAYERS, SPAN_LAYERS, Tracer
from perfbench.workloads import (MONITOR_STATEMENTS, WORKLOADS, OpClock,
                                 OpResult, OracleMismatch, Workload,
                                 process_cpu_s, process_peak_rss_mb)

#: Calibrations averaged at each boundary of a set-up (before the build,
#: between load slices, after the last): a slice is one short sample, so its
#: speed factor must not hang on one noisy reading.
SETUP_CALIBRATIONS = 2
#: Deployment ``i`` of a run is generated from ``seed * SEED_STRIDE + i``.
SEED_STRIDE = 1000
#: A run measures at least this many ops however slow the host is.
MIN_OPS = 3
#: Per-op watchdog: a hung op is a failed op, not a hung benchmark.
OP_WATCHDOG_S = 60
#: Share of ``--seconds`` a traced run spends on its untraced pass: half,
#: because tracing overhead is the difference of the two passes' medians.
UNTRACED_SHARE = 0.5

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


class OpTimeout(Exception):
    """The per-op watchdog fired."""


def _on_alarm(_signum: int, _frame: Any) -> None:
    raise OpTimeout(f"op exceeded the {OP_WATCHDOG_S}s watchdog")


@dataclass
class Sample:
    """One correct op: what it measured, in raw host time."""

    wall_s: float
    speed: float
    result: OpResult
    #: Peak RSS of the benchmark process and its node processes so far.
    peak_rss_mb: float = 0.0
    #: Per-op deltas of the workload's counters, CPU seconds included.
    deltas: Dict[str, float] = field(default_factory=dict)
    #: Traced runs: per span layer, raw self seconds and how many spans
    #: closed in it / directly beneath it; seam counters; root duration.
    span_self_s: Dict[str, float] = field(default_factory=dict)
    span_closed: Dict[str, int] = field(default_factory=dict)
    span_children: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    root_s: float = 0.0
    #: Reference-host self seconds per layer, tracing overhead removed
    #: (filled in by :func:`charge_span_costs`).
    self_s: Dict[str, float] = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failures.append(why)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------- one op


def run_op(workload: Workload, tally: Tally, tracer: Optional[Tracer] = None,
           keep_spans: bool = False) -> Optional[Sample]:
    """Run one op under the watchdog; ``None`` when it failed."""
    tally.attempted += 1
    clock = OpClock(tracer)
    if tracer is not None:
        counters_before = _counters(workload)
        tracer.begin_op(keep_spans)
    signal.alarm(OP_WATCHDOG_S)
    try:
        result = workload.op(clock)
    except (OracleMismatch, OpTimeout) as exc:
        tally.fail(f"{type(exc).__name__}: {exc}")
        return None
    except Exception as exc:  # noqa: BLE001 — an op that raises is a failed op
        tally.fail(f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        return None
    finally:
        signal.alarm(0)
        if tracer is not None:
            root_s = tracer.end_op()
    sample = Sample(clock.wall_s, 1.0, result, peak_rss_mb(workload))
    if tracer is not None:
        after = _counters(workload)
        sample.deltas = {key: after[key] - counters_before[key] for key in after}
        sample.span_self_s = dict(zip(SPAN_LAYERS, tracer.self_s))
        sample.span_closed = dict(zip(SPAN_LAYERS, tracer.closed))
        sample.span_children = dict(zip(SPAN_LAYERS, tracer.children))
        sample.counts = dict(tracer.counts)
        sample.root_s = root_s
    return sample


def peak_rss_mb(workload: Workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(process_peak_rss_mb(pid) for pid in workload.child_pids())


def _counters(workload: Workload) -> Dict[str, float]:
    counters = workload.counters()
    pids = workload.child_pids()
    for index, pid in enumerate(pids):
        counters[f"node.cpu.{index}"] = process_cpu_s(pid)
    counters["client.cpu_s"] = time.process_time()
    return counters


def measure_ops(workload: Workload, seconds: float, tally: Tally,
                tracer: Optional[Tracer] = None,
                max_ops: Optional[int] = None) -> List[Sample]:
    """One untimed warm-up op, then calibrated ops until ``seconds`` are up."""
    run_op(workload, tally)  # caches fill, lazy set-up finishes
    samples: List[Sample] = []
    ran = 0
    calib = calibrate()
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        sample = run_op(workload, tally, tracer,
                        keep_spans=tracer is not None and not samples)
        ran += 1
        after = calibrate()
        if sample is not None:
            sample.speed = speed_factor(calib, after)
            samples.append(sample)
        calib = after
        if max_ops is not None and ran >= max_ops:
            break
        # Stop when less than half a typical iteration is left.
        typical = (time.perf_counter() - (deadline - seconds)) / ran
        if ran >= MIN_OPS and time.perf_counter() + typical / 2 >= deadline:
            break
    return samples


# -------------------------------------------------------------- set-up pass


@dataclass
class SetupStats:
    setup_s: List[float] = field(default_factory=list)
    raw_setup_s: List[float] = field(default_factory=list)
    load_rows_per_s: List[float] = field(default_factory=list)


def _calibration_point() -> float:
    return statistics.fmean(calibrate() for _ in range(SETUP_CALIBRATIONS))


def timed_setup(workload: Workload, tally: Tally, stats: SetupStats) -> None:
    """Build, then load slice by slice, each calibrated; verify the load."""
    gc.collect()
    before = _calibration_point()
    start = time.perf_counter()
    workload.build()
    build_raw = time.perf_counter() - start
    before_slice = _calibration_point()
    setup_s = build_raw * speed_factor(before, before_slice)
    load_raw = 0.0
    for rows, wall in workload.load():
        after_slice = _calibration_point()
        speed = speed_factor(before_slice, after_slice)
        setup_s += wall * speed
        load_raw += wall
        stats.load_rows_per_s.append(rows / (wall * speed))
        before_slice = after_slice
    stats.setup_s.append(setup_s)
    stats.raw_setup_s.append(build_raw + load_raw)
    try:
        workload.verify_load()
    except OracleMismatch as exc:
        tally.fail(f"load: {exc}")


# ------------------------------------------------------------- untraced run


def deployment_clock(workload: Workload, sample: Sample) -> float:
    """Factor turning the deployment's clock into the reported one.

    Simulated seconds are reported as they are; a real cluster's clock is
    host time and becomes reference-host seconds like any other wall clock.
    """
    return sample.speed if workload.host_clock else 1.0


def end_to_end(workload: Workload, samples: List[Sample],
               setup: SetupStats) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, by the names ``BENCHMARK.json`` declares."""
    return {
        "setup_s": (median(setup.setup_s), "s"),
        "op_wall_s": (median([s.wall_s * s.speed for s in samples]), "s"),
        "t_last_s": (median([s.result.t_last_s * deployment_clock(workload, s)
                             for s in samples]), "s"),
        "traffic_mb": (median([s.result.traffic_mb for s in samples]), "MB"),
        "load_rows_per_s": (median(setup.load_rows_per_s), "1/s"),
        "peak_rss_mb": (max(s.peak_rss_mb for s in samples), "MB"),
    }


# --------------------------------------------------------------- traced run


def percentile_beyond(values: List[float], beyond: int = 10) -> Tuple[float, float]:
    """The highest percentile with ``beyond`` samples past it: (pct, value).

    Falls back to the median when the sample is too small to support more.
    """
    ordered = sorted(values)
    index = len(ordered) - beyond - 1
    if index <= (len(ordered) - 1) // 2:
        return 50.0, median(ordered)
    return 100.0 * index / (len(ordered) - 1), ordered[index]


def charge_span_costs(untraced: List[Sample], traced: List[Sample],
                      tracer: Tracer) -> Tuple[float, float]:
    """Fill ``Sample.self_s``: layer self time with the tracing cost removed.

    The overhead is measured, not modelled: traced minus untraced median op
    wall, divided evenly over the spans of an op.  Each span's cost is then
    split between its own layer and its parent's in the ratio a no-op span
    shows (``Tracer.costs``).  Returns ``(overhead_share, cost_per_span_s)``.
    """
    plain = median([s.wall_s * s.speed for s in untraced])
    overhead = median([s.root_s * s.speed for s in traced]) - plain
    spans = median([float(sum(s.span_closed.values())) for s in traced])
    inside, outside = tracer.costs
    # A span costs at least what a no-op span does and, from what the
    # simulated workloads show (2-4x), well under ten times that — whatever
    # the noise in the two medians says when an op has only a few spans.
    noop = inside + outside
    cost = min(max(noop, overhead / spans), 10 * noop) if spans else 0.0
    own = inside / (inside + outside) if inside + outside else 1.0
    for s in traced:
        s.self_s = {
            layer: max(0.0, s.span_self_s[layer] * s.speed - cost * (
                own * s.span_closed[layer]
                + (1 - own) * s.span_children[layer]))
            for layer in SPAN_LAYERS}
        s.self_s["gateway"] = s.self_s["gateway.rpc"] + s.self_s["gateway.pump"]
    return (overhead / plain if plain else 0.0), cost


def ledger(workload: Workload, untraced: List[Sample], traced: List[Sample],
           setup: SetupStats, tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, by the names ``BENCHMARK.json`` declares."""
    overhead_share, span_cost_s = charge_span_costs(untraced, traced, tracer)

    def per_op(read: Callable[[Sample], float]) -> float:
        return median([read(s) for s in traced])

    def counted(key: str) -> float:
        return per_op(lambda s: s.counts.get(key, 0.0))

    def delta(key: str) -> float:
        return per_op(lambda s: s.deltas.get(key, 0.0))

    def ratio(top: Callable[[Sample], float], bottom: Callable[[Sample], float]) -> float:
        return per_op(lambda s: top(s) / bottom(s) if bottom(s) else 0.0)

    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.share"] = (
            per_op(lambda s: s.self_s[layer]
                   / sum(s.self_s[each] for each in LAYERS)), "share")
        # The gateway's seconds are reported per seam (rpc, pump) below.
        if layer != "gateway":
            name = "sql.plan_s" if layer == "sql" else f"{layer}.self_s"
            out[name] = (per_op(lambda s: s.self_s[layer]), "s")

    for key, unit in (("simulator.events", "count"), ("network.sends", "count"),
                      ("network.deliveries", "count"),
                      ("network.drops", "count"), ("network.bytes", "B"),
                      ("provider.put_bounces", "count")):
        out[key] = (delta(key), unit)
    out["simulator.timers_scheduled"] = (counted("simulator.timers_scheduled"),
                                         "count")
    for dht in ("can", "chord"):
        out[f"{dht}.keys"] = (
            per_op(lambda s: s.counts.get(f"{dht}.keys", 0.0)
                   + s.counts.get(f"{dht}.scalar_lookups", 0.0)), "count")
        out[f"{dht}.lookups"] = (
            per_op(lambda s: s.counts.get(f"{dht}.batch_lookups", 0.0)
                   + s.counts.get(f"{dht}.scalar_lookups", 0.0)), "count")
        out[f"{dht}.hops_per_key"] = (
            ratio(lambda s: s.deltas.get(f"{dht}.hops", 0.0),
                  lambda s: s.deltas.get(f"{dht}.hop_keys", 0.0)), "hops")
    out["multicast.floods"] = (counted("multicast.floods"), "count")
    for key in ("put_items", "renewals", "get_keys"):
        out[f"provider.{key}"] = (counted(f"provider.{key}"), "count")
    out["provider.gets_failed"] = (
        per_op(lambda s: float(s.result.gets_failed)), "count")
    for key in ("stores", "retrieves", "expired"):
        out[f"storage.{key}"] = (counted(f"storage.{key}"), "count")
    out["storage.items_per_retrieve"] = (
        ratio(lambda s: s.counts.get("storage.retrieved_items", 0.0),
              lambda s: s.counts.get("storage.retrieves", 0.0)), "items")
    out["executor.rows_scanned"] = (counted("storage.scanned_items"), "count")
    # Everything put into the DHT that is not a renewal: rehash fragments and
    # aggregation partials on the query workloads, the fresh batch on
    # ``sim_publish_chord``.
    out["executor.rows_shipped"] = (
        per_op(lambda s: s.counts.get("provider.put_items", 0.0)
               - s.counts.get("provider.renewals", 0.0)), "count")
    out["executor.rows_out"] = (
        per_op(lambda s: float(s.result.result_rows)), "count")
    for name, _sql, _options in MONITOR_STATEMENTS:
        out[f"monitor.stmt_{name}_s"] = (
            median([s.result.parts_s.get(name, 0.0) * s.speed
                    for s in untraced]), "s")
    out["gateway.rpc_s"] = (
        per_op(lambda s: s.self_s["gateway.rpc"]), "s")
    out["gateway.pump_s"] = (
        per_op(lambda s: s.self_s["gateway.pump"]), "s")
    out["gateway.frames"] = (counted("gateway.frames"), "count")
    # Responsiveness, on the deployment's clock and from the untraced pass.
    # Not end-to-end metrics: on the real cluster they are 40 ms latencies
    # set by how the OS schedules five processes on two cores.
    out["client.ttfr_s"] = (
        median([s.result.t_first_s * deployment_clock(workload, s)
                for s in untraced]), "s")
    out["client.t_30th_s"] = (
        median([s.result.t_kth_s * deployment_clock(workload, s)
                for s in untraced]), "s")

    def node_cpu(s: Sample) -> List[float]:
        return [v for k, v in s.deltas.items() if k.startswith("node.cpu.")]

    out["node.cpu_s"] = (per_op(lambda s: sum(node_cpu(s))), "s")
    out["node.cpu_max_share"] = (
        ratio(lambda s: max(node_cpu(s), default=0.0),
              lambda s: sum(node_cpu(s))), "share")
    out["client.cpu_s"] = (delta("client.cpu_s"), "s")

    plain = [s.wall_s * s.speed for s in untraced]
    out["raw.op_wall_s"] = (median([s.wall_s for s in untraced]), "s")
    out["raw.setup_s"] = (median(setup.raw_setup_s), "s")
    out["host.speed"] = (median([s.speed for s in untraced + traced]), "x")
    pct, value = percentile_beyond(plain)
    out["op_wall_p_hi"] = (pct, "%")
    out["op_wall_p_hi_s"] = (value, "s")
    out["trace.overhead_share"] = (overhead_share, "share")
    out["trace.spans"] = (
        per_op(lambda s: float(sum(s.span_closed.values()))), "count")
    out["trace.span_cost_us"] = (span_cost_s * 1e6, "us")
    out["trace.absent_seams"] = (float(len(tracer.absent)), "count")
    out.update(micro.layer_timings(workload.name))
    return out


def top_layers(metrics: Dict[str, Tuple[float, str]], n: int = 3) -> List[str]:
    shares = sorted(((metrics[f"{layer}.share"][0], layer) for layer in LAYERS),
                    reverse=True)
    return [f"{layer} {share:.0%}" for share, layer in shares[:n]]


# ------------------------------------------------------------------ driver


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        max_ops: Optional[int] = None,
        deployments: Optional[int] = None) -> Dict[str, Any]:
    """Run one workload; returns the result object plus human-facing extras."""
    tally = Tally()
    setup = SetupStats()
    tracer = Tracer()
    metrics: Dict[str, Tuple[float, str]] = {}
    survivors: List[int] = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)

    def measured(workload: Workload, share: float,
                 traced: bool = False) -> List[Sample]:
        """Set one deployment up, measure ops on it, take it down."""
        try:
            timed_setup(workload, tally, setup)
            return measure_ops(workload, seconds * share, tally,
                               tracer if traced else None, max_ops)
        finally:
            workload.teardown()
            survivors.extend(workload.survivors())

    try:
        if trace:
            # Both passes run the same seed: their difference is the tracer.
            workload = WORKLOADS[name](seed * SEED_STRIDE, toy)
            untraced = measured(workload, UNTRACED_SHARE)
            tracer.install()
            traced = measured(workload, 1 - UNTRACED_SHARE, traced=True)
            if untraced and traced:
                metrics = ledger(workload, untraced, traced, setup, tracer)
        else:
            count = deployments or WORKLOADS[name].deployments
            samples: List[Sample] = []
            for index in range(count):
                workload = WORKLOADS[name](seed * SEED_STRIDE + index, toy)
                samples += measured(workload, 1.0 / count)
            if samples:
                metrics = end_to_end(workload, samples, setup)
    finally:
        tracer.uninstall()
        signal.signal(signal.SIGALRM, previous)
    if survivors:
        tally.fail(f"node processes survived teardown: {survivors}")
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": not tally.failures and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": min(len(tally.failures), max(tally.attempted, 1)),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
        "failures": tally.failures[:5],
        "top_layers": top_layers(metrics) if trace and metrics else [],
        # This benchmark defines the yardstick; it claims no gain.
        "claim": None,
        "absent_seams": tracer.absent,
        "spans": tracer.kept_spans,
    }


def write_results(result: Dict[str, Any]) -> None:
    """``results/<workload>.json`` plus the kept op's spans when traced."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans = result.pop("spans")
    suffix = "_traced" if result["trace"] else ""
    with open(os.path.join(RESULTS_DIR, f"{result['workload']}{suffix}.json"),
              "w") as out:
        json.dump(result, out, indent=1, sort_keys=True)
    if result["trace"]:
        with open(os.path.join(RESULTS_DIR, f"trace_{result['workload']}.json"),
                  "w") as out:
            json.dump({"columns": ["name", "layer", "start_s", "end_s", "parent"],
                       "spans": spans}, out)


def result_line(result: Dict[str, Any]) -> str:
    """The one JSON object the driver reads off the last line of stdout."""
    return json.dumps({key: result[key]
                       for key in ("correct", "attempted", "failed", "metrics")})

