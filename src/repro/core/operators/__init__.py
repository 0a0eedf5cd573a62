"""Aggregation of the dataflow (paper Section 3.3).

Scans, selections, projections and joins run as lowered chunk kernels
(:mod:`repro.core.opgraph`, :mod:`repro.core.executor`); what lives here is
the part of the dataflow that keeps state across rows —
:class:`GroupByAggregate` and its mergeable aggregate states, used for
partial aggregation at the sources, merging at combiners and group owners,
and grouping at the initiator.  The row-at-a-time push operators the engine
started with are the reference under ``tests/reference/``.
"""

from repro.core.operators.aggregate import (
    AGGREGATE_FUNCTIONS,
    AggregateState,
    GroupByAggregate,
    make_aggregate,
)

__all__ = [
    "GroupByAggregate",
    "AggregateState",
    "AGGREGATE_FUNCTIONS",
    "make_aggregate",
]
