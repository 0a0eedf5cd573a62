"""Closed-form harness models from the paper's Sections 5.3 and 5.6.

* A single computation node in an ``n``-node network must receive
  ``D·(n-m)/(n·m)`` bytes of selected data on average, where ``D`` is the
  data passing the selections and ``m`` the number of computation nodes
  (Section 5.3); the required downlink bandwidth follows from the desired
  response time.
* Under churn a lost tuple stays missing for half its refresh period on
  average, which gives the expected recall (Section 5.6).

The overlay-routing and join-strategy decompositions (Sections 3.1.1 and
5.5.1) live in the optimizer layer, :mod:`repro.core.costmodel`.
"""

from __future__ import annotations

__all__ = [
    "selected_data_bytes",
    "inbound_bytes_per_computation_node",
    "required_downlink_mbps",
    "expected_recall",
]


# ---------------------------------------------------------------------------
# Section 5.3: centralised vs. distributed provisioning


def selected_data_bytes(total_bytes: float, selectivity: float) -> float:
    """Bytes of base data passing the selection predicates (the paper's D)."""
    return total_bytes * selectivity


def inbound_bytes_per_computation_node(selected_bytes: float, num_nodes: int,
                                       computation_nodes: int) -> float:
    """Average bytes each computation node must receive over the network.

    ``D/m`` of the selected data lands on each of the ``m`` computation
    nodes, of which a fraction ``m/n`` is expected to already be local; hence
    the ``(n - m) / n`` factor.
    """
    if computation_nodes <= 0:
        raise ValueError("need at least one computation node")
    if num_nodes <= 0:
        raise ValueError("need at least one node")
    local_fraction = min(1.0, computation_nodes / num_nodes)
    return (selected_bytes / computation_nodes) * (1.0 - local_fraction)


def required_downlink_mbps(selected_bytes: float, num_nodes: int,
                           computation_nodes: int, response_time_s: float) -> float:
    """Downlink bandwidth (Mbps) a computation node needs to answer in time."""
    if response_time_s <= 0:
        raise ValueError("response time must be positive")
    per_node = inbound_bytes_per_computation_node(
        selected_bytes, num_nodes, computation_nodes
    )
    return per_node * 8.0 / response_time_s / 1_000_000


# ---------------------------------------------------------------------------
# Section 5.6: expected recall under churn


def expected_recall(failure_rate_per_min: float, refresh_period_s: float,
                    num_nodes: int) -> float:
    """The paper's back-of-the-envelope recall estimate.

    A fraction ``rate/n`` of nodes fails per minute; each lost tuple stays
    missing for half the refresh period on average, so the expected fraction
    of unavailable live tuples is ``(rate/n) · (refresh/2) / 60``.
    """
    if num_nodes <= 0:
        raise ValueError("need at least one node")
    unavailable = (failure_rate_per_min / num_nodes) * (refresh_period_s / 2.0) / 60.0
    return max(0.0, 1.0 - unavailable)
