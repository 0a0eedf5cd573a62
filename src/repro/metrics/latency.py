"""Result-latency metrics: time to the k-th and last result tuple.

The paper's scalability figures report the time to the 30th result tuple
("a bit after the first ... and well before the last") and the strategy
comparison reports the time to the last tuple.  These helpers summarise a
:class:`repro.core.executor.QueryHandle` accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The k used throughout the paper's scale-up figures.
PAPER_KTH_TUPLE = 30


@dataclass(frozen=True)
class LatencySummary:
    """Latency summary of one query execution."""

    result_count: int
    time_to_first: Optional[float]
    time_to_kth: Optional[float]
    time_to_last: Optional[float]
    k: int

    def as_row(self) -> dict:
        """Plain-dict form for report tables."""
        return {
            "results": self.result_count,
            "t_first_s": self.time_to_first,
            f"t_{self.k}th_s": self.time_to_kth,
            "t_last_s": self.time_to_last,
        }


def summarize_latency(handle, k: int = PAPER_KTH_TUPLE) -> LatencySummary:
    """Summarise a query handle's arrival times.

    If fewer than ``k`` results arrived, ``time_to_kth`` falls back to the
    time of the last result (the paper's small-scale points have the same
    property: with two nodes there are fewer than 30 results only for tiny
    workloads, and the curve still plots the final arrival).
    """
    time_to_kth = handle.time_to_kth(k)
    if time_to_kth is None:
        time_to_kth = handle.time_to_last()
    return LatencySummary(
        result_count=handle.result_count,
        time_to_first=handle.time_to_kth(1),
        time_to_kth=time_to_kth,
        time_to_last=handle.time_to_last(),
        k=k,
    )

