"""Reference semantics the engine is tested against (not engine code).

* :mod:`tests.reference.expressions` — ``evaluate(expression, row)``, an
  expression tree walked over one dict row: the meaning the engine's chunk
  kernels (``compile_vector``) are checked against;
* :mod:`tests.reference.operators` — row-at-a-time dict operators
  (``ListScan``, ``Selection``, ``Qualify``, ``SymmetricHashJoin``,
  ``Projection``, ``Collector``, ``Tee``) on the push-based ``Operator`` /
  ``OutputQueue`` / ``chain`` boxes, and the dict helpers they use;
* :mod:`tests.reference.aggregate` — ``RowGroupBy``, the group-by fed one
  dict row at a time (the fold the engine's chunk folds and partial merges
  replaced);
* :mod:`tests.reference.evaluator` — a *centralised* evaluator of a
  ``QuerySpec`` built from them: no DHT, no network, no chunks;
* :mod:`tests.reference.probe` — the per-arrival symmetric-hash-join probe
  (one candidate scan per fragment) the chunk probe kernel replaced;
* :mod:`tests.reference.storage` — the flat-index storage manager (one
  triple-keyed dict, ordered key-set indexes, ``has_instance``) the
  namespace-partitioned store replaced;
* :mod:`tests.reference.load` — the per-row fast load (one key, one owner
  and one ``store`` per row; one ``HyperLogLog.add`` per distinct value) the
  one-pass ``PierNetwork.load_relation`` replaced;
* :mod:`tests.reference.naming` — key derivation as one SHA-1 over the whole
  f-string, which the prefix-state hashing must match bit for bit.
"""

from tests.reference.aggregate import RowGroupBy
from tests.reference.evaluator import (
    all_rows,
    build_local_filter_pipeline,
    evaluate_query,
    row_multiset,
)
from tests.reference.expressions import evaluate
from tests.reference.operators import (
    Collector,
    ListScan,
    Operator,
    OutputQueue,
    Projection,
    Qualify,
    Selection,
    SymmetricHashJoin,
    Tee,
    chain,
    merge_rows,
    project_row,
    qualify,
)
from tests.reference.probe import PerArrivalProbe

__all__ = [
    "evaluate",
    "evaluate_query",
    "build_local_filter_pipeline",
    "all_rows",
    "row_multiset",
    "PerArrivalProbe",
    "RowGroupBy",
    "ListScan",
    "Selection",
    "Projection",
    "Qualify",
    "SymmetricHashJoin",
    "Collector",
    "Tee",
    "Operator",
    "OutputQueue",
    "chain",
    "qualify",
    "project_row",
    "merge_rows",
]
