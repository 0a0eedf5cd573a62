"""Both event loops run inside one collector scope, and leave no trace.

``repro.net.transport.collector_scope`` raises the cyclic collector's
thresholds for a ``Simulator`` run and a node process's ``asyncio.run``:

* the caller's thresholds come back on return, also when a callback raises,
  and a caller's threshold above the scope's is never lowered;
* a collector the caller disabled (``gc.disable()`` or a gen-0 threshold of
  0) stays disabled inside and after a run;
* a re-entrant ``run`` raises before it touches the thresholds;
* a cursor waits inside the scope, so the steps of one fetch share it;
* ``python -m repro.node`` runs its loop inside the scope.
"""

from __future__ import annotations

import asyncio
import gc
import sys

import pytest

from repro import node as node_main
from repro.exceptions import SimulationError
from repro.net.simulator import Simulator
from repro.net.transport import COLLECTOR_THRESHOLDS
from tests.conftest import build_pier, build_workload, load_join_tables

DEFAULTS = (700, 10, 10)


@pytest.fixture(autouse=True)
def caller_collector():
    """The test's collector settings are put back, whatever it did."""
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(*DEFAULTS)
    gc.enable()
    yield
    gc.set_threshold(*thresholds)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def run_recording(run_name, *, raises=False):
    """``(inside, after)``: the collector's ``(enabled, thresholds)`` from
    inside one callback of a fresh simulator's ``run_name``, and after it."""
    sim = Simulator()
    seen = []

    def callback():
        seen.append((gc.isenabled(), gc.get_threshold()))
        if raises:
            raise RuntimeError("callback failed")

    sim.schedule(1.0, callback)
    if raises:
        with pytest.raises(RuntimeError):
            getattr(sim, run_name)()
    else:
        getattr(sim, run_name)()
    return seen[0], (gc.isenabled(), gc.get_threshold())


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("run_name", ["run", "run_until_idle"])
def test_a_run_raises_the_thresholds_and_restores_the_callers(run_name, raises):
    inside, after = run_recording(run_name, raises=raises)
    assert inside == (True, COLLECTOR_THRESHOLDS)
    assert after == (True, DEFAULTS)


@pytest.mark.parametrize("run_name", ["run", "run_until_idle"])
def test_a_callers_higher_threshold_is_never_lowered(run_name):
    caller = (COLLECTOR_THRESHOLDS[0] * 4, 1, COLLECTOR_THRESHOLDS[2] * 5)
    gc.set_threshold(*caller)
    inside, after = run_recording(run_name)
    assert inside == (True, (caller[0], COLLECTOR_THRESHOLDS[1], caller[2]))
    assert after == (True, caller)


@pytest.mark.parametrize("run_name", ["run", "run_until_idle"])
def test_a_disabled_collector_stays_disabled(run_name):
    gc.disable()
    assert run_recording(run_name) == ((False, DEFAULTS), (False, DEFAULTS))
    gc.enable()
    gc.set_threshold(0)
    assert run_recording(run_name) == ((True, (0, 10, 10)), (True, (0, 10, 10)))


def test_a_reentrant_run_leaves_the_thresholds_untouched():
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError, match="not re-entrant"):
            sim.run()
        seen.append(gc.get_threshold())

    sim.schedule(1.0, reenter)
    sim.run()
    assert seen == [COLLECTOR_THRESHOLDS]
    assert gc.get_threshold() == DEFAULTS


def test_a_cursor_waits_inside_the_scope():
    pier, workload = build_pier(8), build_workload(8)
    load_join_tables(pier, workload)
    seen = []
    wait = pier.wait

    def recording_wait(until):
        seen.append(gc.get_threshold())
        return wait(until)

    cursor = pier.client(catalog=workload.catalog()).sql(
        "SELECT R.pkey, S.pkey FROM R, S WHERE R.num1 = S.pkey")
    pier.wait = recording_wait
    assert cursor.fetch(sys.maxsize)
    assert len(seen) > 1 and set(seen) == {COLLECTOR_THRESHOLDS}
    assert gc.get_threshold() == DEFAULTS
    cursor.close()


def test_the_node_process_runs_its_loop_inside_the_scope(monkeypatch):
    seen = []

    def recording_run(coroutine):
        seen.append(gc.get_threshold())
        coroutine.close()

    monkeypatch.setattr(asyncio, "run", recording_run)
    assert node_main.main(["--listen", "127.0.0.1:0"]) == 0
    assert seen == [COLLECTOR_THRESHOLDS]
    assert gc.get_threshold() == DEFAULTS
