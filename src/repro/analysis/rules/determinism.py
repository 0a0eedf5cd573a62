"""PL1xx — determinism rules for simulator-reachable modules.

The discrete-event simulator promises bit-identical replays and the CI
three-mode equivalence gates depend on it: every node of a simulated
deployment shares one virtual clock and one seeded RNG, and anything that
feeds a message send or DHT put must iterate in a deterministic order.
These rules guard the three ways new code breaks that promise:

* **PL101** — wall-clock reads (``time.time``, ``datetime.now``…).  Virtual
  time is ``self.now`` / ``network.timers.now``; a wall-clock read differs
  between runs and between the simulator and the real transport.
* **PL102** — module-level ``random.*`` calls.  The global RNG is unseeded
  (or seeded by someone else); deterministic components own a
  ``random.Random(seed)`` instance.
* **PL103** — iterating an unordered collection (``set``/``frozenset``
  construction, set algebra, ``dict.keys()``) in a loop whose body sends
  messages or publishes DHT state.  Python sets hash-order their elements,
  so two identical deployments emit the sends in different orders.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from repro.analysis.framework import (
    ModuleInfo,
    Rule,
    ScopeStack,
    call_attr,
    call_name,
)

#: Dotted call names that read the wall clock.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

#: Calls on the *module* ``random`` (the process-global unseeded RNG).
GLOBAL_RANDOM_PREFIX = "random."
#: ``random.Random(...)`` / ``random.SystemRandom(...)`` construct a private
#: instance and are the sanctioned pattern.
RANDOM_FACTORIES = {"random.Random", "random.SystemRandom", "random.seed"}

#: Set-producing method calls (set algebra keeps hash order).
SET_ALGEBRA_METHODS = {
    "intersection", "union", "difference", "symmetric_difference",
}

#: ``.keys()``-style views: unordered across nodes when the dicts were
#: populated in different orders.
DICT_VIEW_METHODS = {"keys"}

#: Calls that make loop order observable on the network.
EFFECT_CALLS = {
    "send", "put", "put_batch", "put_chunk", "multicast", "multicast_batch",
    "store", "store_batch",
}


class DeterminismRule(Rule):
    family = "determinism"
    scope_patterns = (
        "repro/core/*",
        "repro/core/*/*",
        "repro/dht/*",
        "repro/net/simulator.py",
    )

    def check_module(self, info: ModuleInfo) -> None:
        _DeterminismVisitor(self, info).visit(info.tree)


class _DeterminismVisitor(ScopeStack):
    def __init__(self, rule: DeterminismRule, info: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.info = info
        #: names assigned from set-like expressions, per enclosing function.
        self._set_names: Dict[int, Set[str]] = {}

    # -- per-function set tracking ---------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        self._set_names[id(node)] = set()
        try:
            super()._visit_function(node)
        finally:
            self._set_names.pop(id(node), None)

    def _current_set_names(self) -> Optional[Set[str]]:
        if self._set_names:
            return next(reversed(self._set_names.values()))
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        names = self._current_set_names()
        if names is not None and self._is_set_like(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        self.generic_visit(node)

    # -- PL101 / PL102 ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None:
            if name in WALL_CLOCK_CALLS:
                self.rule.report(
                    self.info, node, "PL101",
                    f"wall-clock read {name}() in a simulator-reachable "
                    f"module; use the virtual clock (node/timers .now)",
                    detail=name, scope=self.scope)
            elif (name.startswith(GLOBAL_RANDOM_PREFIX)
                    and name not in RANDOM_FACTORIES):
                self.rule.report(
                    self.info, node, "PL102",
                    f"call to the process-global RNG ({name}); deterministic "
                    f"components must own a seeded random.Random instance",
                    detail=name, scope=self.scope)
        self.generic_visit(node)

    # -- PL103 ------------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered_iter(node.iter):
            effect = self._first_effect_call(node.body)
            if effect is not None:
                iter_desc = self._describe_iter(node.iter)
                self.rule.report(
                    self.info, node, "PL103",
                    f"iterating {iter_desc} feeds {effect}(); set/dict-view "
                    f"order is nondeterministic across runs — sort first",
                    detail=f"{iter_desc}->{effect}", scope=self.scope)
        self.generic_visit(node)

    def _is_set_like(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("set", "frozenset"):
                return True
            attr = call_attr(node)
            if attr in SET_ALGEBRA_METHODS:
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
            # ``a & b`` / ``a - b`` over tracked set names
            names = self._current_set_names() or set()
            left = node.left.id if isinstance(node.left, ast.Name) else None
            right = node.right.id if isinstance(node.right, ast.Name) else None
            return left in names or right in names
        return False

    def _is_unordered_iter(self, node: ast.AST) -> bool:
        if self._is_set_like(node):
            return True
        if isinstance(node, ast.Call) and call_attr(node) in DICT_VIEW_METHODS:
            return True
        if isinstance(node, ast.Name):
            names = self._current_set_names()
            return names is not None and node.id in names
        return False

    def _describe_iter(self, node: ast.AST) -> str:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            attr = call_attr(node)
            if attr in DICT_VIEW_METHODS:
                return f".{attr}()"
            return f"{call_name(node) or attr}()"
        if isinstance(node, ast.Name):
            return f"set {node.id!r}"
        return "an unordered collection"

    def _first_effect_call(self, body: list) -> Optional[str]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    attr = call_attr(node)
                    if attr in EFFECT_CALLS:
                        return attr
        return None
