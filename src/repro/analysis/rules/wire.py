"""PL2xx — wire-protocol conformance rules.

Every payload that crosses the network is dispatched by a protocol string
(``Message.protocol``) to a handler registered on the destination node, and
``Node.deliver`` *raises* on an unknown protocol — so a sent type with no
registered handler is a latent crash on the receiving node.  These are
cross-module properties no unit test sees locally:

* **PL201** — a send names a protocol string that no module ever registers
  a handler for.
* **PL202** — a handler is registered for a protocol no send site ever
  names (dead dispatch table entry, or the send forgot the constant).
* **PL203** — a class declaring ``__slots__`` writes attributes outside
  ``__init__``/``__post_init__``/``__setstate__``.  Slots classes here are
  in-flight envelopes (``Message``) and codec state; post-construction
  mutation breaks the "messages are immutable once sent" contract the
  simulator's zero-copy local delivery relies on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.analysis.framework import (
    ModuleInfo,
    Project,
    Rule,
    ScopeStack,
    call_attr,
    keyword_arg,
    resolve_string_candidates,
)

#: Methods whose first argument registers a protocol handler.
REGISTER_METHODS = {"register_handler", "replace_handler"}
BOUNCE_REGISTER_METHODS = {"register_bounce_handler"}
#: ``Node.send(dst, protocol, ...)`` — protocol is the 2nd positional;
#: ``PierNode._send_to_members(protocol, ...)`` sends to every other member.
SEND_PROTOCOL_INDEX = {"send": 1, "_send_to_members": 0}
#: ``Message(src, dst, protocol, ...)`` — protocol is the 3rd positional.
MESSAGE_CTORS = {"Message": 2}

#: Methods allowed to write ``self.<attr>`` in a ``__slots__`` class.
SLOTS_INIT_METHODS = {"__init__", "__post_init__", "__setstate__", "__new__"}


@dataclass
class _ProtocolSite:
    protocols: Tuple[str, ...]
    info: ModuleInfo
    node: ast.AST
    scope: str
    expr: str


class WireConformanceRule(Rule):
    family = "wire"
    scope_patterns = ("repro/*", "repro/*/*", "*")

    def __init__(self) -> None:
        super().__init__()
        self._sends: List[_ProtocolSite] = []
        self._registrations: List[_ProtocolSite] = []
        self._bounce_registrations: List[_ProtocolSite] = []

    # ------------------------------------------------------------ collect

    def check_module(self, info: ModuleInfo) -> None:
        _WireVisitor(self, info).visit(info.tree)
        self._check_slots_classes(info)

    # ------------------------------------------------------- cross-module

    def finish(self, project: Project) -> None:
        registered: Set[str] = set()
        for site in self._registrations:
            registered.update(site.protocols)
        sent: Set[str] = set()
        for site in self._sends:
            sent.update(site.protocols)

        # A site's protocol expression resolves to a *candidate set* (all
        # subclass overrides of the constant).  It is conformant when any
        # candidate matches — the runtime value is one of them.
        for site in self._sends:
            if registered.isdisjoint(site.protocols):
                shown = "/".join(sorted(site.protocols))
                self.report(
                    site.info, site.node, "PL201",
                    f"protocol {shown!r} is sent here but no module "
                    f"registers a handler for it — Node.deliver will "
                    f"raise on arrival",
                    detail=shown, scope=site.scope)
        for site in self._registrations:
            if sent.isdisjoint(site.protocols):
                shown = "/".join(sorted(site.protocols))
                self.report(
                    site.info, site.node, "PL202",
                    f"handler registered for protocol {shown!r} but "
                    f"no send site names it (dead dispatch entry?)",
                    detail=shown, scope=site.scope,
                    severity="warning")
        for site in self._bounce_registrations:
            if sent.isdisjoint(site.protocols) \
                    and registered.isdisjoint(site.protocols):
                shown = "/".join(sorted(site.protocols))
                self.report(
                    site.info, site.node, "PL202",
                    f"bounce handler registered for protocol "
                    f"{shown!r} that nothing sends or handles",
                    detail=f"bounce:{shown}", scope=site.scope,
                    severity="warning")

    # ----------------------------------------------------------- PL203

    def _check_slots_classes(self, info: ModuleInfo) -> None:
        for class_name, klass in info.slots_classes.items():
            for method in klass.body:
                if not isinstance(method,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in SLOTS_INIT_METHODS:
                    continue
                for node in ast.walk(method):
                    target = self._self_attr_write(node)
                    if target is not None:
                        self.report(
                            info, node, "PL203",
                            f"__slots__ class {class_name} writes "
                            f"self.{target} outside __init__ "
                            f"(in {method.name}); slotted envelopes must be "
                            f"init-complete and immutable in flight",
                            detail=f"{class_name}.{method.name}:{target}",
                            scope=f"{class_name}.{method.name}")

    @staticmethod
    def _self_attr_write(node: ast.AST) -> Optional[str]:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                return target.attr
        return None


class _WireVisitor(ScopeStack):
    def __init__(self, rule: WireConformanceRule, info: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.info = info

    def visit_Call(self, node: ast.Call) -> None:
        attr = call_attr(node)
        if attr in REGISTER_METHODS or attr in BOUNCE_REGISTER_METHODS:
            self._record_registration(node, attr)
        elif attr in SEND_PROTOCOL_INDEX and isinstance(node.func,
                                                        ast.Attribute):
            self._record_protocol_use(node, SEND_PROTOCOL_INDEX[attr],
                                      self.rule._sends)
        elif isinstance(node.func, ast.Name):
            name = node.func.id
            if name in SEND_PROTOCOL_INDEX:
                self._record_protocol_use(node, SEND_PROTOCOL_INDEX[name],
                                          self.rule._sends)
            elif name in MESSAGE_CTORS:
                self._record_protocol_use(node, MESSAGE_CTORS[name],
                                          self.rule._sends)
        self.generic_visit(node)

    def _record_registration(self, node: ast.Call, attr: str) -> None:
        if not node.args:
            return
        protocols = resolve_string_candidates(node.args[0], self.info,
                                              self.rule_project())
        if protocols is None:
            return
        bucket = (self.rule._bounce_registrations
                  if attr in BOUNCE_REGISTER_METHODS
                  else self.rule._registrations)
        bucket.append(_ProtocolSite(
            protocols=tuple(sorted(protocols)), info=self.info, node=node,
            scope=self.scope, expr=attr))

    def _record_protocol_use(self, node: ast.Call, index: int,
                             bucket: List[_ProtocolSite]) -> None:
        expr: Optional[ast.expr] = None
        if len(node.args) > index:
            expr = node.args[index]
        else:
            expr = keyword_arg(node, "protocol")
        if expr is None:
            return
        protocols = resolve_string_candidates(expr, self.info,
                                              self.rule_project())
        if protocols is None:
            return
        bucket.append(_ProtocolSite(
            protocols=tuple(sorted(protocols)), info=self.info, node=node,
            scope=self.scope, expr=call_attr(node) or "?"))

    def rule_project(self) -> Optional[Project]:
        # Resolution falls back to the whole-project constant map for
        # cross-class references like ``RoutingLayer.PROTOCOL_ROUTE_BATCH``.
        return self.rule.project
