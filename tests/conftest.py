"""Shared fixtures and helpers for the PIER reproduction test suite."""

from __future__ import annotations

import pytest

from repro.harness import PierNetwork, SimulationConfig
from repro.workloads import JoinWorkload, WorkloadConfig


def build_pier(num_nodes: int = 16, **config_overrides) -> PierNetwork:
    """Construct a small simulated PIER deployment for tests."""
    config = SimulationConfig(num_nodes=num_nodes, seed=7, **config_overrides)
    return PierNetwork(config)


def build_workload(num_nodes: int = 16, s_tuples_per_node: int = 2,
                   **overrides) -> JoinWorkload:
    """Construct the benchmark workload scaled for tests."""
    config = WorkloadConfig(
        num_nodes=num_nodes, s_tuples_per_node=s_tuples_per_node, seed=11, **overrides
    )
    return JoinWorkload(config)


def load_join_tables(pier: PierNetwork, workload: JoinWorkload) -> None:
    """Fast-load both benchmark tables into the deployment."""
    pier.load_relation(workload.r_relation, workload.r_by_node)
    pier.load_relation(workload.s_relation, workload.s_by_node)


class FakeGateway:
    """Answers ``status`` and swallows ``store``: no socket, no cluster."""

    def __init__(self):
        self.stored = []

    def rpc(self, method, **arguments):
        if method == "status":
            return {"ready": True, "address": 0, "dead": [],
                    "config": {"dht": "can", "can_dimensions": 4, "seed": 7},
                    "nodes": {str(a): ("127.0.0.1", 1) for a in range(4)}}
        assert method == "store"
        self.stored.extend(arguments["items"])
        return {}


@pytest.fixture
def small_pier() -> PierNetwork:
    """A 16-node full-mesh CAN deployment."""
    return build_pier(16)


@pytest.fixture
def small_workload() -> JoinWorkload:
    """A benchmark workload sized for a 16-node deployment."""
    return build_workload(16)


@pytest.fixture
def loaded_pier(small_pier, small_workload):
    """A 16-node deployment with R and S already loaded."""
    load_join_tables(small_pier, small_workload)
    return small_pier, small_workload
