"""pierlint (repro.analysis) tests.

Three layers:

* fixture modules with *known* violations per rule family, asserting the
  exact finding locations (rule id, line, detail);
* clean fixtures asserting no false positives on the sanctioned patterns
  (virtual clocks, seeded RNGs, sorted iteration, balanced teardown);
* the full ``src/`` tree run, asserting it matches the committed baseline
  exactly — both directions: no new findings, no stale entries.  This is
  the test that fails when a shipped fix (e.g. ``Provider.off_multicast``)
  is reverted.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, assign_keys, build_rules
from repro.analysis.baseline import Baseline, triage
from repro.analysis.framework import Analyzer

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "pierlint-baseline.json"


def write_fixture(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_rules(tmp_path: Path, families=None):
    return analyze_paths([tmp_path], families, scoped=False)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ------------------------------------------------------------- determinism


class TestDeterminismRules:
    def test_wall_clock_flagged_with_location(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            import time

            def refresh(self):
                started = time.time()
                return started
        """)
        findings = by_rule(run_rules(tmp_path, ["determinism"]), "PL101")
        assert len(findings) == 1
        assert findings[0].line == 4
        assert findings[0].detail == "time.time"
        assert findings[0].scope == "refresh"

    def test_datetime_now_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)
        findings = by_rule(run_rules(tmp_path, ["determinism"]), "PL101")
        assert [f.line for f in findings] == [4]

    def test_global_random_flagged_seeded_instance_ok(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            import random

            def pick(items):
                return random.choice(items)

            def pick_seeded(items, seed):
                rng = random.Random(seed)
                return rng.choice(items)
        """)
        findings = by_rule(run_rules(tmp_path, ["determinism"]), "PL102")
        assert len(findings) == 1
        assert findings[0].line == 4
        assert findings[0].detail == "random.choice"

    def test_set_iteration_feeding_send_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def flood(self, neighbours, payload):
                pending = set(neighbours)
                for address in pending:
                    self.node.send(address, "mc.flood", payload)
        """)
        findings = by_rule(run_rules(tmp_path, ["determinism"]), "PL103")
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_dict_keys_iteration_feeding_put_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def publish(self, groups):
                for namespace in groups.keys():
                    self.provider.put(namespace, 1, None, {}, lifetime=30.0)
        """)
        assert len(by_rule(run_rules(tmp_path, ["determinism"]), "PL103")) == 1

    def test_sorted_iteration_not_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def flood(self, neighbours, payload):
                for address in sorted(set(neighbours)):
                    self.node.send(address, "mc.flood", payload)

            def harmless(self, neighbours):
                total = 0
                for address in set(neighbours):
                    total += address  # no sends: order invisible
                return total
        """)
        assert run_rules(tmp_path, ["determinism"]) == []


# -------------------------------------------------------------------- wire


class TestWireRules:
    def test_send_without_handler_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            class Service:
                PROTOCOL_PING = "svc.ping"

                def poke(self, dst):
                    self.node.send(dst, self.PROTOCOL_PING)
        """)
        findings = by_rule(run_rules(tmp_path, ["wire"]), "PL201")
        assert len(findings) == 1
        assert findings[0].line == 5
        assert findings[0].detail == "svc.ping"

    def test_registered_and_sent_clean(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            class Service:
                PROTOCOL_PING = "svc.ping"

                def __init__(self, node):
                    node.register_handler(self.PROTOCOL_PING, self._on_ping)

                def poke(self, dst):
                    self.node.send(dst, self.PROTOCOL_PING)
        """)
        findings = run_rules(tmp_path, ["wire"])
        assert by_rule(findings, "PL201") == []
        assert by_rule(findings, "PL202") == []

    def test_subclass_override_resolves_cross_module(self, tmp_path):
        # Base sends self.PROTOCOL_X; only the subclass registers its
        # override.  Must NOT flag: runtime dispatch uses the subclass value.
        write_fixture(tmp_path, "base.py", """\
            class Routing:
                PROTOCOL_ROUTE = "base.route"

                def forward(self, dst, payload):
                    self.node.send(dst, self.PROTOCOL_ROUTE, payload)
        """)
        write_fixture(tmp_path, "impl.py", """\
            class CanRouting:
                PROTOCOL_ROUTE = "can.route"

                def __init__(self, node):
                    node.register_handler(self.PROTOCOL_ROUTE, self._on_route)
        """)
        assert by_rule(run_rules(tmp_path, ["wire"]), "PL201") == []

    def test_dead_registration_warned(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            class Service:
                def __init__(self, node):
                    node.register_handler("svc.orphan", self._on_orphan)
        """)
        findings = by_rule(run_rules(tmp_path, ["wire"]), "PL202")
        assert len(findings) == 1
        assert findings[0].severity == "warning"

    def test_slots_write_outside_init_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            class Envelope:
                __slots__ = ("dst", "hops")

                def __init__(self, dst):
                    self.dst = dst
                    self.hops = 0

                def bump(self):
                    self.hops += 1
        """)
        findings = by_rule(run_rules(tmp_path, ["wire"]), "PL203")
        assert len(findings) == 1
        assert findings[0].line == 9
        assert "hops" in findings[0].message


# --------------------------------------------------------------- softstate


class TestSoftStateRules:
    def test_unbalanced_on_new_data_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def watch(self, namespace, callback):
                self.provider.on_new_data(namespace, callback)
        """)
        findings = by_rule(run_rules(tmp_path, ["softstate"]), "PL301")
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_balanced_on_new_data_clean(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def watch(self, namespace, callback):
                self.provider.on_new_data(namespace, callback)

            def teardown(self, namespace, callback):
                self.provider.off_new_data(namespace, callback)
        """)
        assert by_rule(run_rules(tmp_path, ["softstate"]), "PL301") == []

    def test_unbalanced_subscribe_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def join_group(self, group, handler):
                self.multicast.subscribe(group, handler)
        """)
        assert len(by_rule(run_rules(tmp_path, ["softstate"]), "PL302")) == 1

    def test_discarded_periodic_handle_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def start(self):
                self.node.schedule_periodic(30.0, self.sweep)
        """)
        findings = by_rule(run_rules(tmp_path, ["softstate"]), "PL303")
        assert [f.detail for f in findings] == [
            "discarded-handle", "no-cancel-in-module"]

    def test_stored_and_cancelled_timer_clean(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def start(self):
                self.timer = self.node.schedule_periodic(30.0, self.sweep)

            def close(self):
                self.timer.cancel()
        """)
        assert by_rule(run_rules(tmp_path, ["softstate"]), "PL303") == []

    def test_put_without_lifetime_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def publish(self, ns, rid, value):
                self.provider.put(ns, rid, None, value)

            def publish_with_lifetime(self, ns, rid, value):
                self.provider.put(ns, rid, None, value, lifetime=120.0)

            def publish_positional(self, ns, rid, value):
                self.provider.put(ns, rid, None, value, 120.0)
        """)
        findings = by_rule(run_rules(tmp_path, ["softstate"]), "PL304")
        assert len(findings) == 1
        assert findings[0].line == 2


# ----------------------------------------------------------------- asyncio


class TestAsyncioRules:
    def test_unawaited_coroutine_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            class Server:
                async def drain(self):
                    pass

                async def close(self):
                    self.drain()
        """)
        findings = by_rule(run_rules(tmp_path, ["asyncio"]), "PL401")
        assert len(findings) == 1
        assert findings[0].line == 6

    def test_awaited_coroutine_clean(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            class Server:
                async def drain(self):
                    pass

                async def close(self):
                    await self.drain()
        """)
        assert run_rules(tmp_path, ["asyncio"]) == []

    def test_dropped_create_task_flagged_stored_ok(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def kick(self, loop, coro, tracked):
                loop.create_task(coro)

            def kick_tracked(self, loop, coro):
                self.task = loop.create_task(coro)
        """)
        findings = by_rule(run_rules(tmp_path, ["asyncio"]), "PL402")
        assert len(findings) == 1
        assert findings[0].line == 2


# -------------------------------------------------------------- exceptions


class TestExceptionRules:
    def test_bare_except_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def fetch(self):
                try:
                    return self.request()
                except:
                    return None
        """)
        findings = by_rule(run_rules(tmp_path, ["exceptions"]), "PL501")
        assert [f.line for f in findings] == [4]

    def test_swallowed_exception_flagged(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def retry(self):
                try:
                    self.request()
                except Exception:
                    pass
        """)
        assert len(by_rule(run_rules(tmp_path, ["exceptions"]), "PL502")) == 1

    def test_handled_exception_clean(self, tmp_path):
        write_fixture(tmp_path, "mod.py", """\
            def retry(self):
                try:
                    self.request()
                except Exception:
                    self.failed += 1
                except ValueError:
                    pass
        """)
        assert run_rules(tmp_path, ["exceptions"]) == []


# ------------------------------------------------------- clean fixture


CLEAN_MODULE = """\
class Service:
    PROTOCOL_TICK = "svc.tick"

    def __init__(self, node, seed):
        import random
        self.rng = random.Random(seed)
        node.register_handler(self.PROTOCOL_TICK, self._on_tick)
        self.timer = node.schedule_periodic(5.0, self._sweep)
        self.provider.on_new_data("ns", self._on_new)

    def tick(self, neighbours):
        for address in sorted(neighbours):
            self.node.send(address, self.PROTOCOL_TICK)

    def publish(self, ns, rid, value):
        self.provider.put(ns, rid, None, value, lifetime=60.0)

    def close(self):
        self.timer.cancel()
        self.provider.off_new_data("ns", self._on_new)

    def guard(self):
        try:
            self.tick([])
        except ValueError:
            self.failures += 1
"""


def test_clean_fixture_has_no_findings(tmp_path):
    write_fixture(tmp_path, "clean.py", CLEAN_MODULE)
    assert run_rules(tmp_path) == []


# ------------------------------------------------- framework behaviours


def test_duplicate_findings_get_ordinal_keys(tmp_path):
    write_fixture(tmp_path, "mod.py", """\
        def retry(self):
            try:
                self.request()
            except Exception:
                pass
            try:
                self.request()
            except Exception:
                pass
    """)
    findings = run_rules(tmp_path, ["exceptions"])
    keys = [key for key, _ in assign_keys(findings)]
    assert len(keys) == 2
    assert keys[0] + "#2" == keys[1]


def test_baseline_round_trip(tmp_path):
    write_fixture(tmp_path, "mod.py", """\
        def retry(self):
            try:
                self.request()
            except Exception:
                pass
    """)
    keyed = assign_keys(run_rules(tmp_path, ["exceptions"]))
    baseline = Baseline(path=tmp_path / "baseline.json")
    baseline.write(keyed)
    loaded = Baseline.load(tmp_path / "baseline.json")
    result = triage(keyed, loaded)
    assert result.new == []
    assert len(result.suppressed) == 1
    assert result.stale_keys == []
    # removing the offending code turns the entry stale
    result = triage([], loaded)
    assert len(result.stale_keys) == 1


def test_scoped_run_skips_out_of_scope_modules(tmp_path):
    # Same violating source, but under a path no determinism scope matches.
    pkg = tmp_path / "repro" / "metrics"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "import time\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8")
    analyzer = Analyzer(build_rules(["determinism"]), scoped=True)
    assert analyzer.run([tmp_path]) == []


def test_syntax_error_reported_not_crash(tmp_path):
    write_fixture(tmp_path, "broken.py", "def broken(:\n")
    analyzer = Analyzer(build_rules(["exceptions"]), scoped=False)
    findings = analyzer.run([tmp_path])
    assert findings == []
    assert len(analyzer.project.errors) == 1


# ------------------------------------------------------- full-tree gate


def test_full_src_run_matches_committed_baseline():
    """The committed tree is clean: every finding baselined, no stale keys.

    This is the regression gate for the shipped fixes — reverting
    Provider.off_multicast, the stored sweep-timer handle, or the
    real-transport close() logging makes this test (and the CI
    static-analysis job) fail with a NEW finding.
    """
    findings = analyze_paths([SRC])
    keyed = assign_keys(findings)
    baseline = Baseline.load(BASELINE)
    result = triage(keyed, baseline)
    assert result.new == [], [f"{f.location()} {f.rule} {f.message}"
                              for _, f in result.new]
    assert result.stale_keys == []


def test_cli_full_run_exits_zero_with_json(tmp_path):
    out = tmp_path / "pierlint.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src",
         "--baseline", str(BASELINE), "--strict-baseline",
         "--json", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["summary"]["new"] == 0
    assert payload["summary"]["parse_errors"] == 0
    assert payload["summary"]["scanned_modules"] > 50


def test_cli_diff_mode_restricts_reporting(tmp_path):
    # Diff against HEAD: only changed files may produce findings; on a
    # clean checkout this exits 0 either way, but the flag must not crash
    # and must report a (possibly empty) subset of the full run.
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "--diff", "HEAD",
         "--baseline", str(BASELINE)],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_rejects_unknown_family():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "--rules", "nope"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert "unknown rule families" in proc.stderr


# ------------------------------------------- shipped-fix regression tests


def test_reverting_off_multicast_balance_is_caught(tmp_path):
    """A provider module with on_multicast's subscribe but no unsubscribe
    anywhere reproduces the pre-fix asymmetry and must be flagged."""
    write_fixture(tmp_path, "provider_like.py", """\
        class Provider:
            def on_multicast(self, namespace, handler):
                self.multicast_service.subscribe(namespace, handler)
    """)
    assert len(by_rule(run_rules(tmp_path, ["softstate"]), "PL302")) == 1


def test_reverting_sweep_timer_handle_is_caught(tmp_path):
    write_fixture(tmp_path, "provider_like.py", """\
        class Provider:
            def __init__(self, node, sweep_period_s):
                if sweep_period_s > 0:
                    node.schedule_periodic(sweep_period_s, self._sweep)
    """)
    details = [f.detail
               for f in by_rule(run_rules(tmp_path, ["softstate"]), "PL303")]
    assert "discarded-handle" in details


@pytest.mark.parametrize("family,expected", [
    ("determinism", {"PL101", "PL102", "PL103"}),
    ("wire", {"PL201", "PL202", "PL203"}),
    ("softstate", {"PL301", "PL302", "PL303", "PL304"}),
    ("asyncio", {"PL401", "PL402"}),
    ("exceptions", {"PL501", "PL502"}),
])
def test_rule_catalogue_covers_family(family, expected):
    from repro.analysis.rules import RULE_DOCS
    assert expected <= set(RULE_DOCS)
