"""Shared fixtures and helpers for the PIER reproduction test suite."""

from __future__ import annotations

import gc
import socket
from collections import Counter
from unittest import mock

import pytest

from repro.harness import PierNetwork, SimulationConfig
from repro.net.wire import FrameDecoder
from repro.remote import SOCKET_TIMEOUT_S, GatewayConnection
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


class _LoopbackSocket:
    """The socket of a :class:`FakeGateway`: every frame sent is answered."""

    def __init__(self, gateway):
        self.gateway = gateway

    def sendall(self, data):
        (request,) = FrameDecoder().feed(data)
        self.gateway.answer(request)

    def settimeout(self, timeout):
        pass

    def close(self):
        pass


class FakeGateway(GatewayConnection):
    """A gateway without a socket: answers ``status``, acknowledges ``store``.

    Requests take the real send / await pair, so every frame is encoded
    under the frame limit; the fake answers each at once, and the reply
    waits in ``_responses`` until it is awaited.  ``frames`` keeps every
    ``store`` request, ``stored`` the items they carried, one dict each,
    and ``log`` (shareable between fakes) every send and await in order.
    A gateway made with ``refuse=True`` answers ``store`` with an error.
    """

    def __init__(self, address=0, log=None, refuse=False):
        self.address = address
        self.log = [] if log is None else log
        self.refuse = refuse
        self.frames = []
        self.stored = []
        with mock.patch.object(socket, "create_connection",
                               lambda *args, **kwargs: _LoopbackSocket(self)):
            super().__init__("fake", address)

    def answer(self, request):
        self.log.append(("send", self.address, request["op"]))
        response = {"t": "res", "id": request["id"], "ok": True}
        if request["op"] == "status":
            response.update(
                ready=True, address=self.address, dead=[],
                config={"dht": "can", "can_dimensions": 4, "seed": 7},
                nodes={str(a): ("127.0.0.1", 1) for a in range(4)})
        else:
            assert request["op"] == "store"
            self.frames.append(request)
            if self.refuse:
                response.update(ok=False, error="refused", code="internal")
            else:
                self.stored.extend(
                    {"namespace": chunk["namespace"], "resource_id": resource_id,
                     "value": value, "key": key}
                    for chunk in request["chunks"]
                    for resource_id, value, key in zip(
                        chunk["resource_ids"], chunk["values"], chunk["keys"]))
        self._responses[request["id"]] = response

    def await_response(self, request_id, op, timeout_s=SOCKET_TIMEOUT_S):
        self.log.append(("await", self.address, op))
        return super().await_response(request_id, op, timeout_s)


@pytest.fixture
def collector_off():
    """Collector disabled; cyclic garbage is kept in ``gc.garbage`` to name."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def assert_no_cycles(step: str) -> None:
    """``gc.collect()`` finds nothing; on failure, name the types it found."""
    found = gc.collect()
    leaked = Counter(type(obj).__qualname__ for obj in gc.garbage)
    gc.garbage.clear()
    assert found == 0, f"{step} left {found} cyclic objects: {leaked.most_common(12)}"


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
