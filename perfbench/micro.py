"""Isolated timings of layers the in-process trace cannot see inside.

Sketch updates happen inside executor operators, and the wire codec and the
socket transport run inside the node *processes* of ``tcp_join`` — so each is
timed here on its own, with a fixed amount of work, next to the workload it
matters for.  Every other workload reports these metrics as 0: the layer does
not run there.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from perfbench.calibrate import calibrate, speed_factor

Metrics = Dict[str, Tuple[float, str]]
Values = Dict[str, float]

#: Every metric this module can emit, with its unit.
UNITS = {"sketches.hll_adds_per_s": "1/s", "sketches.kll_adds_per_s": "1/s",
         "sketches.merge_us": "us", "wire.encode_mb_s": "MB/s",
         "wire.decode_mb_s": "MB/s", "wire.frames_per_s": "1/s",
         "real.rtt_us": "us", "real.mb_s": "MB/s"}

REPEATS = 5


def _calibrated_median(work: Callable[[], Any]) -> float:
    """Median wall of ``work()`` over ``REPEATS``, in reference-host seconds."""
    samples = []
    before = calibrate()
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        raw = time.perf_counter() - start
        after = calibrate()
        samples.append(raw * speed_factor(before, after))
        before = after
    return statistics.median(samples)


# ----------------------------------------------------------------- sketches


def sketch_timings() -> Values:
    from repro.sketches import HyperLogLog, KLLSketch

    adds = 20_000
    values = [f"10.0.{i // 256}.{i % 256}" for i in range(adds)]
    numbers = [(i * 7919) % 3600 + 0.5 for i in range(adds)]

    def fill(sketch: Any, items: List[Any]) -> Any:
        add = sketch.add
        for item in items:
            add(item)
        return sketch

    hll_s = _calibrated_median(lambda: fill(HyperLogLog(), values))
    kll_s = _calibrated_median(lambda: fill(KLLSketch(), numbers))
    partials = [fill(HyperLogLog(), values[i::64]) for i in range(64)]

    def merge_all() -> None:
        root = HyperLogLog()
        for partial in partials:
            root.merge(partial)

    merge_s = _calibrated_median(merge_all)
    return {
        "sketches.hll_adds_per_s": adds / hll_s,
        "sketches.kll_adds_per_s": adds / kll_s,
        "sketches.merge_us": merge_s / len(partials) * 1e6,
    }


# --------------------------------------------------------------------- wire


def recorded_put_chunk() -> Any:
    """A real fig-3 ``prov.put_chunk`` message, recorded off a toy deployment."""
    from repro.core.query import JoinStrategy
    from repro.harness.experiment import PierNetwork, SimulationConfig
    from repro.net.node import Node
    from repro.workloads.generator import JoinWorkload, WorkloadConfig

    recorded: List[Any] = []
    original = Node.deliver

    def deliver(self: Any, message: Any) -> None:
        if message.protocol == "prov.put_chunk":
            recorded.append(message)
        original(self, message)

    workload = JoinWorkload(WorkloadConfig(num_nodes=8, s_tuples_per_node=40,
                                           seed=1))
    pier = PierNetwork(SimulationConfig(num_nodes=8, seed=1))
    pier.load_relation(workload.r_relation, workload.r_by_node)
    pier.load_relation(workload.s_relation, workload.s_by_node)
    Node.deliver = deliver  # type: ignore[method-assign]
    try:
        pier.client(catalog=workload.catalog()).query(
            workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)).fetchall()
    finally:
        Node.deliver = original  # type: ignore[method-assign]
    if not recorded:
        raise RuntimeError("the fig-3 join sent no prov.put_chunk message")
    return max(recorded, key=lambda message: message.payload_bytes)


def wire_timings() -> Values:
    from repro.net.wire import FrameDecoder, encode_frame, message_to_wire

    body = message_to_wire(recorded_put_chunk())
    frame = encode_frame(body)
    frames = 400
    stream = frame * frames
    megabytes = len(stream) / 1e6

    def encode() -> None:
        for _ in range(frames):
            encode_frame(body)

    def decode() -> None:
        decoder = FrameDecoder()
        decoded = 0
        for offset in range(0, len(stream), 65536):  # recv-sized reads
            decoded += len(decoder.feed(stream[offset:offset + 65536]))
        if decoded != frames:
            raise RuntimeError(f"decoded {decoded} of {frames} frames")

    encode_s = _calibrated_median(encode)
    decode_s = _calibrated_median(decode)
    return {
        "wire.encode_mb_s": megabytes / encode_s,
        "wire.decode_mb_s": megabytes / decode_s,
        "wire.frames_per_s": frames / (encode_s + decode_s),
    }


# --------------------------------------------------------------------- real


def real_timings() -> Values:
    """Two in-process ``RealTransport``s on loopback: ping-pong, then a stream."""
    from repro.net.message import Message
    from repro.net.node import Node
    from repro.net.real import RealTransport

    round_trips = 300
    bulk_messages, bulk_bytes = 200, 16_384
    blob = "x" * bulk_bytes

    async def scenario() -> Tuple[float, float]:
        left, right = RealTransport(0), RealTransport(1)
        nodes = [Node(0, left), Node(1, right)]
        left.attach_node(nodes[0])
        right.attach_node(nodes[1])
        _, left_port = await left.start()
        _, right_port = await right.start()
        left.update_peers({1: ("127.0.0.1", right_port)})
        right.update_peers({0: ("127.0.0.1", left_port)})
        pongs = asyncio.Event()
        received = asyncio.Event()
        state = {"pongs": 0, "bulk": 0}

        def on_ping(node: Node, message: Message) -> None:
            node.send(message.src, "bench.pong")

        def on_pong(node: Node, message: Message) -> None:
            state["pongs"] += 1
            pongs.set()

        def on_bulk(node: Node, message: Message) -> None:
            state["bulk"] += 1
            if state["bulk"] == bulk_messages:
                received.set()

        nodes[1].register_handler("bench.ping", on_ping)
        nodes[0].register_handler("bench.pong", on_pong)
        nodes[1].register_handler("bench.bulk", on_bulk)
        try:
            nodes[0].send(1, "bench.ping")  # opens both pooled connections
            await asyncio.wait_for(pongs.wait(), 10.0)
            start = time.perf_counter()
            for _ in range(round_trips):
                pongs.clear()
                nodes[0].send(1, "bench.ping")
                await asyncio.wait_for(pongs.wait(), 10.0)
            rtt_s = (time.perf_counter() - start) / round_trips
            start = time.perf_counter()
            for _ in range(bulk_messages):
                nodes[0].send(1, "bench.bulk", payload=blob,
                              payload_bytes=bulk_bytes)
            await asyncio.wait_for(received.wait(), 30.0)
            bulk_s = time.perf_counter() - start
        finally:
            await left.close()
            await right.close()
        return rtt_s, bulk_s

    rtts, bulks = [], []
    before = calibrate()
    for _ in range(3):
        rtt_s, bulk_s = asyncio.run(scenario())
        after = calibrate()
        speed = speed_factor(before, after)
        rtts.append(rtt_s * speed)
        bulks.append(bulk_s * speed)
        before = after
    rtt_s, bulk_s = statistics.median(rtts), statistics.median(bulks)
    return {
        "real.rtt_us": rtt_s * 1e6,
        "real.mb_s": bulk_messages * bulk_bytes / 1e6 / bulk_s,
    }


# ---------------------------------------------------------------- dispatch


def layer_timings(workload: str) -> Metrics:
    """The isolated timings that belong to ``workload``; 0 for the others."""
    values: Values = {}
    if workload == "sim_monitor_chord":
        values.update(sketch_timings())
    if workload == "tcp_join":
        values.update(wire_timings())
        values.update(real_timings())
    return {name: (values.get(name, 0.0), unit) for name, unit in UNITS.items()}
