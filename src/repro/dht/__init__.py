"""DHT substrate: routing layer, storage manager and provider.

This package mirrors the three-layer DHT decomposition of the paper's
Section 3.2:

* **Routing layer** (:mod:`repro.dht.api`, :mod:`repro.dht.can`,
  :mod:`repro.dht.chord`) — ``lookup`` (paper Table 1) over a stabilised
  overlay; ``join``/``leave`` and ``locationMapChange`` are a rebuild over
  the new address list (:func:`repro.stack.build_overlay`).  CAN is the
  primary DHT; Chord is the alternative the paper ports PIER onto as a
  validation exercise.
* **Storage manager** (:mod:`repro.dht.storage`) — per-node temporary
  storage (paper Table 2).
* **Provider** (:mod:`repro.dht.provider`) — the application-facing
  interface (paper Table 3): ``get``/``put``/``renew``/``multicast``/
  ``lscan``/``newData``, the namespace/resourceID/instanceID naming scheme
  and soft-state lifetimes, renewed by name (:mod:`repro.dht.softstate`).
"""

from repro.dht.api import RoutingLayer
from repro.dht.naming import hash_key, KEY_BITS, KEY_SPACE
from repro.dht.can import CanRouting, CanNetworkBuilder, Zone
from repro.dht.chord import ChordRouting, ChordNetworkBuilder
from repro.dht.storage import StorageManager, StoredItem
from repro.dht.provider import Provider, DHTItem
from repro.dht.softstate import RenewalAgent
from repro.dht.multicast import MulticastService

__all__ = [
    "RoutingLayer",
    "hash_key",
    "KEY_BITS",
    "KEY_SPACE",
    "CanRouting",
    "CanNetworkBuilder",
    "Zone",
    "ChordRouting",
    "ChordNetworkBuilder",
    "StorageManager",
    "StoredItem",
    "Provider",
    "DHTItem",
    "RenewalAgent",
    "MulticastService",
]
