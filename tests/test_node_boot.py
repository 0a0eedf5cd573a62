"""What a node process loads at boot, and that it dies with its harness.

``repro/__init__.py`` binds its public names on first use (PEP 562) and the
``repro.core`` / ``repro.net`` / ``repro.dht`` packages re-export nothing, so
``python -m repro.node`` imports the modules a node runs and none of the
client, the SQL front end, the harness or the simulator.  These tests run
each check in a fresh interpreter, where nothing else has been imported.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.dht.provider import DHTItem
from repro.net.message import Message
from repro.net.wire import FrameDecoder, encode_frame, message_to_wire, pack

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: The environment of every fresh interpreter: this checkout's ``src/`` first.
ENV = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))

#: Modules (and, with a trailing dot, packages) a node process must not load.
NOT_IN_A_NODE = (
    "repro.client", "repro.remote", "repro.core.sql", "repro.core.sql.",
    "repro.core.costmodel", "repro.core.catalog", "repro.core.continuous",
    "repro.harness", "repro.harness.", "repro.workloads", "repro.workloads.",
    "repro.net.simulator", "repro.net.network", "repro.net.links",
    "repro.net.stats", "repro.net.topology", "repro.net.transit_stub",
    "repro.net.cluster",
)
#: How many ``repro`` modules ``import repro.node`` loads.
NODE_MODULES = 37

LIST_REPRO_MODULES = (
    "sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))")


def python(code: str, stdin: str = "") -> str:
    """Run ``code`` in a fresh interpreter on ``src/``; return its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def forbidden(modules) -> list:
    return [m for m in modules
            if any(m == f or (f.endswith(".") and m.startswith(f)) for f in NOT_IN_A_NODE)]


def test_a_node_imports_only_the_modules_it_runs():
    modules = json.loads(python(
        f"import json, sys, repro.node; print(json.dumps({LIST_REPRO_MODULES}))"))
    assert forbidden(modules) == []
    assert len(modules) <= NODE_MODULES, modules


def test_node_help_exits_zero():
    proc = subprocess.run([sys.executable, "-m", "repro.node", "--help"],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


# ------------------------------------------------------------ lazy exports


def test_every_export_is_the_defining_modules_object():
    for name in repro.__all__[1:]:  # all but __version__
        value = getattr(repro, name)
        assert getattr(sys.modules[value.__module__], value.__qualname__) is value, name


def test_dir_covers_all_and_unknown_names_raise():
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError, match="no_such_export"):
        repro.no_such_export  # noqa: B018
    assert not hasattr(repro, "PierClientt")


def test_import_repro_loads_nothing_and_from_import_still_works():
    out = python(
        "import json, sys, repro\n"
        f"bare = {LIST_REPRO_MODULES}\n"
        "from repro import JoinStrategy, PierNetwork, SimulationConfig\n"
        "print(json.dumps([bare, JoinStrategy.__module__, PierNetwork.__name__,\n"
        "                  SimulationConfig.__module__]))")
    assert json.loads(out) == [["repro"], "repro.core.query", "PierNetwork",
                               "repro.harness.experiment"]


# ------------------------------------------------------ wire in a lean node


def test_a_lean_process_decodes_query_and_item_frames():
    """ext 5/6 name ``repro.*`` classes by module path, which wire resolves
    with ``importlib``; a node whose packages re-export nothing decodes the
    same values this process does, and loads no module it does not run."""
    from tests.test_wire_codec import planned_query

    query = planned_query()
    multicast = message_to_wire(Message(0, 1, "mc.flood", {
        "id": (0, 17), "origin": 0,
        "entries": [{"namespace": "__pier_queries__",
                     "resource_id": query.query_id, "item": query}]}))
    reply = {"t": "reply", "id": 3, "items": [
        DHTItem("ns", 7, 2**40, {"pkey": 7, "pad": "x"}, publisher=2, size_bytes=99),
        DHTItem("ns", ("composite", 9), 5, (1, 2.5, "slotted"))]}
    frames = encode_frame(multicast) + encode_frame(reply)
    out = python(
        "import json, sys, repro.node\n"
        "from repro.net.wire import FrameDecoder, pack\n"
        "frames = FrameDecoder().feed(bytes.fromhex(sys.stdin.read()))\n"
        "item = frames[0]['payload']['entries'][0]['item']\n"
        f"print(json.dumps([[pack(f).hex() for f in frames], {LIST_REPRO_MODULES},\n"
        "                  type(item).__name__, type(frames[1]['items'][0]).__name__,\n"
        "                  item.strategy.name]))",
        stdin=frames.hex())
    packed, modules, query_class, item_class, strategy = json.loads(out)
    assert packed == [pack(frame).hex() for frame in FrameDecoder().feed(frames)]
    assert (query_class, item_class) == ("QuerySpec", "DHTItem")
    assert strategy == query.strategy.name
    assert forbidden(modules) == []


# --------------------------------------------------- nodes die with harness


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie nobody has reaped yet counts as dead."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="PR_SET_PDEATHSIG is Linux-only")
def test_nodes_die_when_their_harness_is_killed():
    harness = subprocess.Popen(
        [sys.executable, "-c",
         "import time\n"
         "from repro.harness.realcluster import LocalCluster\n"
         "cluster = LocalCluster(2)\n"
         "print(*(proc.pid for proc in cluster.processes), flush=True)\n"
         "time.sleep(60)\n"],
        env=ENV, stdout=subprocess.PIPE, text=True)
    pids = []
    try:
        pids = [int(pid) for pid in harness.stdout.readline().split()]
        assert len(pids) == 2
        harness.kill()
        harness.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids)), pids
    finally:
        harness.kill()
        harness.wait()
        harness.stdout.close()
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)
