"""PL3xx — soft-state balance rules.

Everything published into the DHT is soft state: it expires unless renewed,
and every continuous-query subscription (``on_new_data``, multicast
``subscribe``, periodic timers) holds node-side state until an explicit
teardown releases it.  The PR 2 leak — executor dataflows kept alive by
``newData`` callbacks nobody unregistered — is the defect class these rules
pin down mechanically:

* **PL301** — a module calls ``.on_new_data(...)`` but never calls
  ``.off_new_data(...)``: the subscription can never be released.
* **PL302** — a module calls ``.subscribe(...)`` (multicast groups) but
  never ``.unsubscribe(...)``.
* **PL303** — a ``schedule_periodic(...)`` whose handle is discarded (bare
  expression statement), or a module holding periodic timers with no
  ``.cancel()`` reachable anywhere in it.
* **PL304** — a DHT publish (``put`` / ``put_batch`` / ``put_chunk``) that
  does not thread an explicit ``lifetime``: relying on the provider default
  turns a deliberate soft-state decision into an accident.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.framework import (
    ModuleInfo,
    Rule,
    ScopeStack,
    call_attr,
    has_argument,
)

#: publish method → index of its first positional ``lifetime`` argument.
PUT_LIFETIME_INDEX = {
    "put": 4,                # (namespace, resource_id, instance_id, value, lifetime)
    "put_batch": 2,          # (namespace, entries, lifetime)
    "put_chunk": 3,          # (namespace, resource_ids, values, lifetime)
}

#: modules that implement the provider/storage layer itself — their internal
#: delegation legitimately forwards lifetimes positionally or via dicts.
IMPLEMENTATION_MODULES = (
    "repro/dht/provider.py",
    "repro/dht/storage.py",
)


class SoftStateRule(Rule):
    family = "softstate"
    scope_patterns = (
        "repro/core/*",
        "repro/core/*/*",
        "repro/dht/*",
        "repro/harness/*",
        "repro/workloads/*",
        "repro/client.py",
    )

    def check_module(self, info: ModuleInfo) -> None:
        visitor = _SoftStateVisitor(self, info)
        visitor.visit(info.tree)
        visitor.report_module_balance()


class _SoftStateVisitor(ScopeStack):
    def __init__(self, rule: SoftStateRule, info: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.info = info
        self.on_new_data: List[Tuple[ast.AST, str]] = []
        self.off_new_data = 0
        self.subscribes: List[Tuple[ast.AST, str]] = []
        self.unsubscribes = 0
        self.periodic_handles: List[Tuple[ast.AST, str]] = []
        self.cancels = 0

    # ------------------------------------------------------------- visits

    def visit_Expr(self, node: ast.Expr) -> None:
        # A bare-statement schedule_periodic discards its handle: nothing
        # can ever cancel that timer.
        if (isinstance(node.value, ast.Call)
                and call_attr(node.value) == "schedule_periodic"):
            self.rule.report(
                self.info, node, "PL303",
                "schedule_periodic handle is discarded — the timer can "
                "never be cancelled from a teardown path",
                detail="discarded-handle", scope=self.scope)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        attr = call_attr(node)
        if attr == "on_new_data" and self._is_method_call(node):
            self.on_new_data.append((node, self.scope))
        elif attr == "off_new_data" and self._is_method_call(node):
            self.off_new_data += 1
        elif attr == "subscribe" and self._is_method_call(node):
            self.subscribes.append((node, self.scope))
        elif attr == "unsubscribe" and self._is_method_call(node):
            self.unsubscribes += 1
        elif attr == "schedule_periodic" and self._is_method_call(node):
            self.periodic_handles.append((node, self.scope))
        elif attr == "cancel":
            self.cancels += 1
        elif attr in PUT_LIFETIME_INDEX and self._is_method_call(node):
            self._check_put_lifetime(node, attr)
        self.generic_visit(node)

    # ------------------------------------------------------------ helpers

    @staticmethod
    def _is_method_call(node: ast.Call) -> bool:
        return isinstance(node.func, ast.Attribute)

    def _is_definition_module(self) -> bool:
        return self.info.module in IMPLEMENTATION_MODULES

    def _check_put_lifetime(self, node: ast.Call, attr: str) -> None:
        if self._is_definition_module():
            return
        if has_argument(node, "lifetime", PUT_LIFETIME_INDEX[attr]):
            return
        self.rule.report(
            self.info, node, "PL304",
            f"DHT publish .{attr}(...) without an explicit lifetime — "
            f"soft-state lifetimes must be a deliberate per-callsite choice",
            detail=f"{attr}-no-lifetime", scope=self.scope)

    # ------------------------------------------------- module-level balance

    def report_module_balance(self) -> None:
        if self.on_new_data and not self.off_new_data:
            node, scope = self.on_new_data[0]
            self.rule.report(
                self.info, node, "PL301",
                f"module subscribes via on_new_data ({len(self.on_new_data)} "
                f"site(s)) but never calls off_new_data — the newData "
                f"callback leaks past query teardown",
                detail="on_new_data-unbalanced", scope=scope)
        if self.subscribes and not self.unsubscribes:
            node, scope = self.subscribes[0]
            self.rule.report(
                self.info, node, "PL302",
                f"module subscribes to multicast groups "
                f"({len(self.subscribes)} site(s)) but never calls "
                f"unsubscribe — group membership leaks",
                detail="subscribe-unbalanced", scope=scope)
        if self.periodic_handles and not self.cancels:
            node, scope = self.periodic_handles[0]
            self.rule.report(
                self.info, node, "PL303",
                f"module schedules periodic timers "
                f"({len(self.periodic_handles)} site(s)) but contains no "
                f".cancel() call — no teardown path can stop them",
                detail="no-cancel-in-module", scope=scope)
