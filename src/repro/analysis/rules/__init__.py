"""pierlint rule registry: one entry per rule family."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.analysis.framework import Rule
from repro.analysis.rules.asyncio_hygiene import AsyncioHygieneRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.softstate import SoftStateRule
from repro.analysis.rules.wire import WireConformanceRule

#: family name → rule class, in reporting order.
RULE_FAMILIES: Dict[str, Type[Rule]] = {
    "determinism": DeterminismRule,
    "wire": WireConformanceRule,
    "softstate": SoftStateRule,
    "asyncio": AsyncioHygieneRule,
    "exceptions": ExceptionDisciplineRule,
}

#: finding-id prefix → one-line description (for ``--list-rules``).
RULE_DOCS = {
    "PL101": "wall-clock read in a simulator-reachable module",
    "PL102": "process-global random.* call (unseeded RNG)",
    "PL103": "unordered set/dict-view iteration feeding sends or DHT puts",
    "PL201": "protocol sent but no handler registered anywhere",
    "PL202": "handler registered for a protocol nothing sends",
    "PL203": "__slots__ class mutated outside __init__",
    "PL301": "on_new_data without off_new_data in the module",
    "PL302": "multicast subscribe without unsubscribe in the module",
    "PL303": "periodic timer without a cancel()/teardown path",
    "PL304": "DHT put without an explicit soft-state lifetime",
    "PL401": "coroutine called but never awaited",
    "PL402": "create_task/ensure_future handle dropped",
    "PL501": "bare except:",
    "PL502": "except Exception: pass in a request/retry lane",
}


def build_rules(families: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the selected rule families (all of them by default)."""
    selected = list(families) if families else list(RULE_FAMILIES)
    unknown = [name for name in selected if name not in RULE_FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown rule families {unknown}; known: {sorted(RULE_FAMILIES)}"
        )
    return [RULE_FAMILIES[name]() for name in selected]
