"""perfbench: the repository's one fixed performance yardstick.

Four closed-loop workloads, end-to-end metrics in calibrated
reference-host seconds, and an outside-in per-layer ledger; the contract
with the driver is ``BENCHMARK.json`` at the repository root and the design
is written up in ``perfbench/README.md``.
"""

from perfbench.calibrate import REF_S, calibrate

__all__ = ["REF_S", "calibrate"]
