"""Reference semantics the engine is tested against (not engine code).

* :mod:`tests.reference.operators` — row-at-a-time dict operators
  (``ListScan``, ``Selection``, ``Qualify``, ``SymmetricHashJoin``,
  ``Projection``, ``Collector``, ``Tee``) and the dict helpers they use;
* :mod:`tests.reference.evaluator` — a *centralised* evaluator of a
  ``QuerySpec`` built from them: no DHT, no network, no chunks.
"""

from tests.reference.evaluator import (
    all_rows,
    build_local_filter_pipeline,
    evaluate_query,
    row_multiset,
)
from tests.reference.operators import (
    Collector,
    ListScan,
    Projection,
    Qualify,
    Selection,
    SymmetricHashJoin,
    Tee,
    merge_rows,
    project_row,
    qualify,
)

__all__ = [
    "evaluate_query",
    "build_local_filter_pipeline",
    "all_rows",
    "row_multiset",
    "ListScan",
    "Selection",
    "Projection",
    "Qualify",
    "SymmetricHashJoin",
    "Collector",
    "Tee",
    "qualify",
    "project_row",
    "merge_rows",
]
