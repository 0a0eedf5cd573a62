"""Mergeable sketches: bounded-size approximate aggregation partials.

Exact ``COUNT(DISTINCT)`` over millions of publishers ships every value to
the root of the aggregation tree; the sketches here replace those unbounded
partial states with summaries bounded by the dense size of their
configuration — and, for the HLL registers and the count-min grid,
proportional to the set registers / non-zero cells below it — that merge
associatively, so they flow through PIER's ``__pier_*`` soft-state partials
and hierarchical combiners unchanged:

* :class:`HyperLogLog` — distinct counting (``APPROX COUNT(DISTINCT x)``);
* :class:`TopKSketch` — count-min + candidate heap heavy hitters
  (``APPROX_TOP_K(x, k)``);
* :class:`KLLSketch` — quantiles (``APPROX_PERCENTILE(x, p)``).

All three share the seeded 64-bit :func:`hash64` so every node of a
deployment — simulated or real-TCP — computes identical register indexes,
and the :func:`sketch_to_bytes` / :func:`sketch_from_bytes` codec used both
by aggregate payloads and the wire layer's dedicated ext type.  The sized
payloads are canonical: a pure function of the sketch's contents, never of
its add/merge history.
"""

from repro.sketches.base import (
    DEFAULT_SEED,
    MAX_SKETCH_BYTES,
    SKETCH_TYPES,
    SketchBase,
    decode_value,
    encode_value,
    hash64,
    register_sketch,
    sketch_from_bytes,
    sketch_to_bytes,
)
from repro.sketches.hll import DEFAULT_LOG2M, HyperLogLog
from repro.sketches.kll import DEFAULT_KLL_K, KLLSketch
from repro.sketches.topk import DEFAULT_DEPTH, DEFAULT_K, DEFAULT_WIDTH, TopKSketch

__all__ = [
    "DEFAULT_DEPTH",
    "DEFAULT_K",
    "DEFAULT_KLL_K",
    "DEFAULT_LOG2M",
    "DEFAULT_SEED",
    "DEFAULT_WIDTH",
    "MAX_SKETCH_BYTES",
    "SKETCH_TYPES",
    "SketchBase",
    "HyperLogLog",
    "KLLSketch",
    "TopKSketch",
    "decode_value",
    "encode_value",
    "hash64",
    "register_sketch",
    "sketch_from_bytes",
    "sketch_to_bytes",
]
