"""Discrete-event network simulation substrate.

The paper evaluates PIER inside a message-level simulator (fully-connected
and transit-stub topologies) and on a 64-node cluster, all sharing one code
base.  This package provides that substrate for the reproduction:

* :mod:`repro.net.simulator` — the virtual-clock event loop.
* :mod:`repro.net.message` — typed messages with wire sizes.
* :mod:`repro.net.node` — simulated hosts with protocol handler registries.
* :mod:`repro.net.topology` — latency/bandwidth models (full mesh).
* :mod:`repro.net.transit_stub` — GT-ITM-style transit-stub topology.
* :mod:`repro.net.cluster` — LAN cluster topology used for the
  "deployment" experiment (Figure 8).
* :mod:`repro.net.links` — inbound-link serialisation/queueing model.
* :mod:`repro.net.stats` — per-node and aggregate traffic accounting.
* :mod:`repro.net.failures` — failure injection and keep-alive detection.
"""
