"""Aggregation operators of the push-based dataflow (paper Section 3.3).

PIER's operators *push*: a producer emits rows into an explicit intermediate
queue and consumers drain it.  Scans, selections, projections and joins run
as lowered chunk kernels and slotted-row closures (:mod:`repro.core.opgraph`,
:mod:`repro.core.executor`); what lives here is the part of the dataflow that
keeps state across rows — :class:`GroupByAggregate` and its mergeable
aggregate states, used for partial aggregation at the sources, merging at
combiners and group owners, and grouping at the initiator — on the small
:class:`Operator` base it shares with the row-at-a-time reference operators
under ``tests/reference/``.
"""

from repro.core.operators.base import Operator, OutputQueue, chain
from repro.core.operators.aggregate import (
    AGGREGATE_FUNCTIONS,
    AggregateState,
    GroupByAggregate,
    make_aggregate,
)

__all__ = [
    "Operator",
    "OutputQueue",
    "chain",
    "GroupByAggregate",
    "AggregateState",
    "AGGREGATE_FUNCTIONS",
    "make_aggregate",
]
