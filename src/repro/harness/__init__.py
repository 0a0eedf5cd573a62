"""Experiment harness: simulated PIER deployments and the paper's experiments.

:class:`PierNetwork` assembles a stabilised simulated deployment from a
:class:`SimulationConfig` (with a :class:`ChurnConfig` for failure injection)
and opens :class:`repro.client.PierClient` sessions on it; queries run
through their cursors.  ``overlay`` builds the same overlays for real
clusters, ``analytical`` holds the paper's closed-form models and
``reporting`` formats result tables.
"""

from repro.harness.experiment import ChurnConfig, PierNetwork, SimulationConfig
from repro.harness.overlay import OwnerLocator, build_local_routing
from repro.harness import analytical
from repro.harness.reporting import format_table, format_series

__all__ = [
    "ChurnConfig",
    "SimulationConfig",
    "PierNetwork",
    "OwnerLocator",
    "build_local_routing",
    "analytical",
    "format_table",
    "format_series",
]
