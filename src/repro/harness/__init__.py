"""Experiment harness: simulated PIER deployments and the paper's experiments.

:class:`PierNetwork` assembles a stabilised simulated deployment of
:mod:`repro.stack` node stacks from a :class:`SimulationConfig` (with a
:class:`ChurnConfig` for failure injection) and opens
:class:`repro.client.PierClient` sessions on it; queries run through their
cursors.  ``realcluster`` starts local clusters of node processes,
``analytical`` holds the paper's closed-form models and ``reporting``
formats result tables.
"""

from repro.harness.experiment import ChurnConfig, PierNetwork, SimulationConfig
from repro.harness import analytical
from repro.harness.reporting import format_table, format_series

__all__ = [
    "ChurnConfig",
    "SimulationConfig",
    "PierNetwork",
    "analytical",
    "format_table",
    "format_series",
]
