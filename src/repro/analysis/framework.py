"""pierlint core: findings, rules, module facts, and the two-pass analyzer.

The engine is deliberately small.  A run has two phases:

1. **Module pass** — every file is parsed once into a :class:`ModuleInfo`
   (AST plus a handful of pre-extracted facts rules share: class-level
   string constants, ``__slots__`` classes, ``async def`` names).  Each
   rule's :meth:`Rule.check_module` visits the modules inside its scope and
   emits local findings.
2. **Project pass** — rules that need cross-module facts (the wire-protocol
   conformance family) implement :meth:`Rule.finish`, which runs after
   every module has been seen and may emit findings anywhere in the tree.

Findings carry a *stable key* — ``rule:module:scope:detail[#n]`` — that
does not contain line numbers, so the committed baseline survives edits
that merely shift code up or down a file.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    family: str
    path: str          #: path as given on the command line (for display)
    module: str        #: canonical module-relative path, e.g. ``repro/dht/can.py``
    line: int
    col: int
    message: str
    scope: str         #: enclosing ``Class.method`` (or ``<module>``)
    detail: str        #: short stable descriptor used in the baseline key
    severity: str = SEVERITY_ERROR

    def base_key(self) -> str:
        """Baseline identity *without* the duplicate-occurrence ordinal."""
        return f"{self.rule}:{self.module}:{self.scope}:{self.detail}"

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self, key: str) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "family": self.family,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "scope": self.scope,
            "key": key,
        }


@dataclass
class ModuleInfo:
    """One parsed source file plus the shared facts rules keep re-deriving."""

    path: Path                 #: absolute filesystem path
    display: str               #: path for human output (as discovered)
    module: str                #: canonical module-relative path (posix)
    tree: ast.Module
    #: ``ClassName.CONST`` and bare ``CONST`` string constants → value.
    str_constants: Dict[str, str] = field(default_factory=dict)
    #: class qualname → ClassDef node, for classes declaring ``__slots__``.
    slots_classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: names (bare and ``Class.method``) defined with ``async def``.
    async_defs: Dict[str, ast.AsyncFunctionDef] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, display: str, module: str) -> "ModuleInfo":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        info = cls(path=path, display=display, module=module, tree=tree)
        info._extract_facts()
        return info

    def _extract_facts(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                self._extract_class_facts(node)
            elif isinstance(node, ast.AsyncFunctionDef):
                self.async_defs.setdefault(node.name, node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (isinstance(target, ast.Name)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)):
                    self.str_constants.setdefault(target.id, node.value.value)

    def _extract_class_facts(self, klass: ast.ClassDef) -> None:
        has_slots = False
        for stmt in klass.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__slots__":
                    has_slots = True
                elif (isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    self.str_constants.setdefault(target.id, stmt.value.value)
                    self.str_constants.setdefault(
                        f"{klass.name}.{target.id}", stmt.value.value)
            elif isinstance(stmt, ast.AsyncFunctionDef):
                self.async_defs.setdefault(stmt.name, stmt)
                self.async_defs.setdefault(f"{klass.name}.{stmt.name}", stmt)
        if has_slots:
            self.slots_classes[klass.name] = klass


class Rule:
    """Base class for one rule family (a handful of related checks)."""

    #: Short id prefix, e.g. ``PL1``; individual findings use ``PL101``…
    family = "generic"
    #: fnmatch patterns over :attr:`ModuleInfo.module` this rule applies to.
    scope_patterns: Tuple[str, ...] = ("*",)

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        #: set by the analyzer before the module pass; rules may consult the
        #: whole-project fact tables (e.g. cross-module string constants).
        self.project: Optional["Project"] = None

    # -- scope ------------------------------------------------------------

    def in_scope(self, info: ModuleInfo, *, scoped: bool = True) -> bool:
        if not scoped:
            return True
        return any(fnmatch.fnmatch(info.module, pattern)
                   for pattern in self.scope_patterns)

    # -- phases -----------------------------------------------------------

    def check_module(self, info: ModuleInfo) -> None:
        """Per-module pass.  Override; call :meth:`report` for each hit."""

    def finish(self, project: "Project") -> None:
        """Cross-module pass, after every module was seen.  Optional."""

    # -- reporting --------------------------------------------------------

    def report(self, info: ModuleInfo, node: ast.AST, rule: str, message: str,
               detail: str, scope: str, severity: str = SEVERITY_ERROR) -> None:
        self.findings.append(Finding(
            rule=rule,
            family=self.family,
            path=info.display,
            module=info.module,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            scope=scope,
            detail=detail,
            severity=severity,
        ))


class ScopeStack(ast.NodeVisitor):
    """Visitor that tracks the enclosing ``Class.method`` qualifier.

    Nested (closure) functions report the *outermost* enclosing function —
    that is the name a reader greps for, and it keeps baseline keys stable
    when a closure is renamed or inlined.
    """

    def __init__(self) -> None:
        self._classes: List[str] = []
        self._functions: List[str] = []

    @property
    def scope(self) -> str:
        parts: List[str] = []
        if self._classes:
            parts.append(self._classes[-1])
        if self._functions:
            parts.append(self._functions[0])
        return ".".join(parts) if parts else "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._classes.pop()

    def _visit_function(self, node: ast.AST) -> None:
        self._functions.append(getattr(node, "name", "<lambda>"))
        try:
            self.generic_visit(node)
        finally:
            self._functions.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


# ----------------------------------------------------------- AST utilities


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """Dotted name of the called object, if statically nameable."""
    return dotted_name(call.func)


def call_attr(call: ast.Call) -> Optional[str]:
    """The final attribute of a method call (``x.y.put`` → ``put``)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def resolve_string_candidates(node: ast.AST, info: ModuleInfo,
                              project: Optional["Project"] = None,
                              ) -> Optional[frozenset]:
    """All string values an expression may take, modelling subclass overrides.

    A literal resolves to itself.  ``SomeClass.CONST`` resolves to that
    class's value when known.  ``self.CONST`` / ``cls.CONST`` / bare
    ``CONST`` resolve to *every* value any scanned class assigns to an
    attribute of that name — a base class sending ``self.PROTOCOL_X``
    dispatches, at runtime, on whichever subclass value is live, and the
    conformance rules must not flag the base-class default as unhandled.
    Returns ``None`` when the expression is not statically resolvable.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return frozenset((node.value,))
    attr: Optional[str] = None
    if isinstance(node, ast.Attribute):
        owner = dotted_name(node.value)
        if owner not in ("self", "cls") and owner is not None:
            qualified = f"{owner}.{node.attr}"
            value = info.str_constants.get(qualified)
            if value is None and project is not None:
                value = project.str_constants.get(qualified)
            if value is not None:
                return frozenset((value,))
        attr = node.attr
    elif isinstance(node, ast.Name):
        attr = node.id
    if attr is None:
        return None
    candidates = set()
    if project is not None:
        candidates.update(project.attr_values.get(attr, ()))
    value = info.str_constants.get(attr)
    if value is not None:
        candidates.add(value)
    return frozenset(candidates) if candidates else None


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def has_argument(call: ast.Call, name: str, positional_index: int) -> bool:
    """Whether the call binds ``name`` (as keyword or by position)."""
    if keyword_arg(call, name) is not None:
        return True
    if any(kw.arg is None for kw in call.keywords):  # **kwargs: assume bound
        return True
    return len(call.args) > positional_index


# ----------------------------------------------------------------- project


class Project:
    """Everything the analyzer learned about the scanned tree."""

    def __init__(self) -> None:
        self.modules: List[ModuleInfo] = []
        #: merged constant map (last writer wins is fine: names are unique
        #: per class and the per-module map is consulted first).
        self.str_constants: Dict[str, str] = {}
        #: bare attribute name → every string value some class assigns it
        #: (the subclass-override model for ``self.CONST`` resolution).
        self.attr_values: Dict[str, set] = {}
        self.errors: List[str] = []

    def add(self, info: ModuleInfo) -> None:
        self.modules.append(info)
        for name, value in info.str_constants.items():
            self.str_constants.setdefault(name, value)
            bare = name.rsplit(".", 1)[-1]
            self.attr_values.setdefault(bare, set()).add(value)


def canonical_module(path: Path) -> str:
    """Module-relative posix path: anchored at the ``repro`` package when
    the file lives inside one, else just the file name (fixture trees)."""
    parts = path.parts
    for anchor in ("repro",):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return path.name


def iter_python_files(paths: Sequence[Path]) -> Iterable[Tuple[Path, str]]:
    """Yield ``(absolute_path, display_path)`` for every .py under ``paths``."""
    for given in paths:
        root = given.resolve()
        if root.is_file():
            yield root, str(given)
        elif root.is_dir():
            for found in sorted(root.rglob("*.py")):
                try:
                    display = str(given / found.relative_to(root))
                except ValueError:  # pragma: no cover - symlink escape
                    display = str(found)
                yield found, display


class Analyzer:
    """Run a set of rules over a file tree and collect findings."""

    def __init__(self, rules: Sequence[Rule], *, scoped: bool = True,
                 report_only: Optional[Sequence[str]] = None) -> None:
        self.rules = list(rules)
        self.scoped = scoped
        #: when set (``--diff``), only findings whose module path is in this
        #: set are reported; *facts* are still collected tree-wide so the
        #: cross-module rules stay sound.
        self.report_only = set(report_only) if report_only is not None else None
        self.project = Project()

    def run(self, paths: Sequence[Path]) -> List[Finding]:
        for path, display in iter_python_files(paths):
            module = canonical_module(path)
            try:
                info = ModuleInfo.parse(path, display, module)
            except SyntaxError as exc:
                self.project.errors.append(f"{display}: {exc}")
                continue
            self.project.add(info)
        for rule in self.rules:
            rule.project = self.project
        for info in self.project.modules:
            for rule in self.rules:
                if rule.in_scope(info, scoped=self.scoped):
                    rule.check_module(info)
        for rule in self.rules:
            rule.finish(self.project)
        findings = [f for rule in self.rules for f in rule.findings]
        if self.report_only is not None:
            findings = [f for f in findings if f.module in self.report_only]
        findings.sort(key=lambda f: (f.module, f.line, f.col, f.rule))
        return findings


def assign_keys(findings: Sequence[Finding]) -> List[Tuple[str, Finding]]:
    """Attach stable keys, disambiguating duplicates with ``#n`` ordinals.

    Findings must already be in deterministic (sorted) order so ordinals
    are assigned consistently between runs.
    """
    seen: Dict[str, int] = {}
    keyed: List[Tuple[str, Finding]] = []
    for finding in findings:
        base = finding.base_key()
        count = seen.get(base, 0)
        seen[base] = count + 1
        keyed.append((base if count == 0 else f"{base}#{count + 1}", finding))
    return keyed
