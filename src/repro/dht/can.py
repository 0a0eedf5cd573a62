"""Content Addressable Network (CAN) routing layer.

CAN (Ratnasamy et al., SIGCOMM 2001) organises nodes over a logical
``d``-dimensional Cartesian unit space partitioned into hyper-rectangular
*zones*.  Each node owns one zone (plus possibly zones adopted from departed
neighbours), keys hash to points, and a key is stored at the node whose zone
contains its point.  Routing greedily forwards a message to the neighbour
whose zone is closest to the target point, giving ``(d/4)·n^{1/d}`` hops on
average — with the paper's choice of ``d = 2`` this is the ``n^{1/2}`` growth
visible in its scalability figures.

Two ways to stand up a CAN are provided:

* the full **join/leave protocol** (zone splitting, item hand-off, neighbour
  updates), used by tests and small experiments;
* :class:`CanNetworkBuilder.build_stabilized`, which constructs the
  partitioning and neighbour tables directly.  The paper's measurements are
  all taken "after the CAN routing stabilizes", so benchmarks use this bulk
  construction to avoid simulating thousands of sequential joins.

**Next-hop index.**  Routing does not walk :class:`Zone` objects: a node's
own zones and its live neighbours' zones are flattened to per-dimension
``(lo, hi)`` bounds (in ``neighbor_zones`` order, so distance ties break as
they always did), with the paper's ``d = 2`` unrolled.  The flat tables are
built on the first routed hop after ``zones``, ``neighbor_zones`` or the dead
set was assigned (they are :class:`~repro.dht.api.RoutingTableField`
attributes).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import RoutingError
from repro.dht.api import RoutingLayer, RoutingTableField
from repro.dht.naming import key_to_unit_coordinates
from repro.net.network import Network
from repro.net.node import Node

#: Default CAN dimensionality used throughout the paper's evaluation.
DEFAULT_DIMENSIONS = 2

_INFINITY = float("inf")


@dataclass(frozen=True)
class Zone:
    """A half-open hyper-rectangle ``[lo, hi)`` in the unit d-cube."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("zone bounds must have equal dimensionality")
        for low, high in zip(self.lo, self.hi):
            if not low < high:
                raise ValueError(f"degenerate zone bounds [{low}, {high})")

    @property
    def dimensions(self) -> int:
        """Number of coordinate dimensions."""
        return len(self.lo)

    @classmethod
    def full_space(cls, dimensions: int) -> "Zone":
        """The entire unit cube."""
        return cls(tuple([0.0] * dimensions), tuple([1.0] * dimensions))

    def contains(self, point: Sequence[float]) -> bool:
        """Whether ``point`` lies inside this zone."""
        lo = self.lo
        hi = self.hi
        return all(
            lo[dim] <= coordinate < hi[dim]
            for dim, coordinate in enumerate(point)
        )

    def volume(self) -> float:
        """Lebesgue volume of the zone."""
        volume = 1.0
        for low, high in zip(self.lo, self.hi):
            volume *= high - low
        return volume

    def extent(self, dim: int) -> float:
        """Side length along dimension ``dim``."""
        return self.hi[dim] - self.lo[dim]

    def longest_dimension(self) -> int:
        """Index of the dimension with the largest extent (ties → lowest)."""
        return max(range(self.dimensions), key=lambda dim: (self.extent(dim), -dim))

    def split(self, dim: Optional[int] = None) -> Tuple["Zone", "Zone"]:
        """Split the zone in half along ``dim`` (default: longest dimension)."""
        if dim is None:
            dim = self.longest_dimension()
        mid = (self.lo[dim] + self.hi[dim]) / 2.0
        lower_hi = list(self.hi)
        lower_hi[dim] = mid
        upper_lo = list(self.lo)
        upper_lo[dim] = mid
        return (
            Zone(self.lo, tuple(lower_hi)),
            Zone(tuple(upper_lo), self.hi),
        )

    def center(self) -> Tuple[float, ...]:
        """Geometric centre of the zone."""
        return tuple((low + high) / 2.0 for low, high in zip(self.lo, self.hi))

    def distance_to_point(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the closest point of the zone."""
        total = 0.0
        for low, high, coordinate in zip(self.lo, self.hi, point):
            if coordinate < low:
                delta = low - coordinate
            elif coordinate >= high:
                delta = coordinate - high
            else:
                delta = 0.0
            total += delta * delta
        return total ** 0.5

    def is_neighbor(self, other: "Zone") -> bool:
        """CAN adjacency: abut along exactly one dimension, overlap in the rest."""
        abutting = 0
        for dim in range(self.dimensions):
            a_lo, a_hi = self.lo[dim], self.hi[dim]
            b_lo, b_hi = other.lo[dim], other.hi[dim]
            if a_hi == b_lo or b_hi == a_lo:
                abutting += 1
            elif not (a_lo < b_hi and b_lo < a_hi):
                return False  # disjoint with a gap: cannot be neighbours
            # otherwise strictly overlapping along this dimension
        return abutting >= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ranges = ", ".join(
            f"[{low:.3f},{high:.3f})" for low, high in zip(self.lo, self.hi)
        )
        return f"Zone({ranges})"


def _freeze_zone_map(zone_map: Mapping[int, Sequence[Zone]]
                     ) -> Mapping[int, Tuple[Zone, ...]]:
    """Read-only, order-preserving snapshot of an address -> zones map."""
    return MappingProxyType(
        {address: tuple(zones) for address, zones in zone_map.items()})


def _flat_bounds(zone: Zone) -> tuple:
    """``(x_lo, x_hi, y_lo, y_hi)`` for d = 2, else ``(((lo, hi), ...),)``."""
    if len(zone.lo) == 2:
        return (zone.lo[0], zone.hi[0], zone.lo[1], zone.hi[1])
    return (tuple(zip(zone.lo, zone.hi)),)


class CanRouting(RoutingLayer):
    """CAN routing layer instance bound to one node.

    Parameters
    ----------
    node:
        Simulated host this instance runs on.
    dimensions:
        Dimensionality ``d`` of the coordinate space (paper uses 2).
    seed:
        Seed for the join-point selection of this node.
    """

    PROTOCOL_ROUTE = "can.route"
    PROTOCOL_ROUTE_BATCH = "can.route_batch"
    PROTOCOL_BATCH_LOOKUP_REPLY = "can.batch_lookup_reply"
    PROTOCOL_JOIN_REPLY = "can.join_reply"
    PROTOCOL_NEIGHBOR_UPDATE = "can.neighbor_update"
    PROTOCOL_LEAVE_HANDOFF = "can.leave_handoff"

    # The routing table: what the next-hop index is derived from.
    #: Zones this node owns (a tuple: replace it, do not edit it).
    zones = RoutingTableField(tuple)
    #: neighbour address -> zones that neighbour owns (read-only mapping).
    neighbor_zones = RoutingTableField(_freeze_zone_map)
    _dead_neighbors = RoutingTableField(frozenset)

    def __init__(self, node: Node, dimensions: int = DEFAULT_DIMENSIONS, seed: int = 0):
        super().__init__(node)
        if dimensions <= 0:
            raise ValueError("CAN dimensionality must be positive")
        self.dimensions = dimensions
        self.zones = ()
        self.neighbor_zones = {}
        self._dead_neighbors = ()
        self._rng = random.Random((seed << 20) ^ node.address)
        #: Hooks installed by the Provider for item migration on join/leave.
        self.extract_items: Optional[Callable[[Callable[[int], bool]], list]] = None
        self.install_items: Optional[Callable[[list], None]] = None

        node.register_handler(self.PROTOCOL_JOIN_REPLY, self._on_join_reply)
        node.register_handler(self.PROTOCOL_NEIGHBOR_UPDATE, self._on_neighbor_update)
        node.register_handler(self.PROTOCOL_LEAVE_HANDOFF, self._on_leave_handoff)

    # --------------------------------------------------------------- mapping

    def key_to_point(self, key: int) -> Tuple[float, ...]:
        """Map a flat DHT key to a point in the unit d-cube."""
        return key_to_unit_coordinates(key, self.dimensions)

    def _build_next_hops(self) -> Tuple[List[tuple], List[tuple]]:
        """Flatten own zones and live neighbours' zones for the routing loops.

        Rows are :func:`_flat_bounds`, neighbour rows behind their address
        and in ``neighbor_zones`` iteration order, so the first-minimum
        tie-break is the table's.
        """
        dead = self._dead_neighbors
        index = (
            [_flat_bounds(zone) for zone in self.zones],
            [
                (address, *_flat_bounds(zone))
                for address, zones in self.neighbor_zones.items()
                if address not in dead
                for zone in zones
            ],
        )
        self._next_hops = index
        return index

    def owns_point(self, point: Sequence[float]) -> bool:
        """Whether any of this node's zones contains ``point``."""
        own = (self._next_hops or self._build_next_hops())[0]
        if self.dimensions == 2:
            x, y = point
            for x_lo, x_hi, y_lo, y_hi in own:
                if x_lo <= x < x_hi and y_lo <= y < y_hi:
                    return True
            return False
        return any(
            all(low <= coordinate < high
                for (low, high), coordinate in zip(bounds, point))
            for (bounds,) in own
        )

    def neighbors(self) -> List[int]:
        return [
            address
            for address in self.neighbor_zones
            if address not in self._dead_neighbors
        ]

    def mark_neighbor_dead(self, address: int) -> None:
        """Record a detected neighbour failure; routing avoids it afterwards."""
        if address in self.neighbor_zones and address not in self._dead_neighbors:
            self._dead_neighbors = self._dead_neighbors | {address}

    def mark_neighbor_alive(self, address: int) -> None:
        """Clear a previously-detected neighbour failure."""
        if address in self._dead_neighbors:
            self._dead_neighbors = self._dead_neighbors - {address}

    # --------------------------------------------------------------- routing
    # Lookups and the join route are RoutingLayer's, over the coordinate
    # hooks below; a key's (and a joiner's) coordinate is its point.

    def _best_next_hop(self, point: Sequence[float],
                       exclude: Optional[int] = None) -> Optional[int]:
        """Neighbour whose zone is geometrically closest to the target point.

        The node the message just arrived from is avoided unless it is the
        only live neighbour, which prevents two-node ping-pong cycles.
        """
        # Squared distances: sqrt is monotone, so the argmin is unchanged.
        neighbors = (self._next_hops or self._build_next_hops())[1]
        best_address: Optional[int] = None
        best_distance = _INFINITY
        if self.dimensions == 2:
            x, y = point
            for address, x_lo, x_hi, y_lo, y_hi in neighbors:
                if x < x_lo:
                    delta = x_lo - x
                    distance = delta * delta
                elif x >= x_hi:
                    delta = x - x_hi
                    distance = delta * delta
                else:
                    distance = 0.0
                if y < y_lo:
                    delta = y_lo - y
                    distance += delta * delta
                elif y >= y_hi:
                    delta = y - y_hi
                    distance += delta * delta
                if distance < best_distance and address != exclude:
                    best_distance = distance
                    best_address = address
        else:
            for address, bounds in neighbors:
                distance = 0.0
                for (low, high), coordinate in zip(bounds, point):
                    if coordinate < low:
                        delta = low - coordinate
                        distance += delta * delta
                    elif coordinate >= high:
                        delta = coordinate - high
                        distance += delta * delta
                if distance < best_distance and address != exclude:
                    best_distance = distance
                    best_address = address
        if best_address is None and any(row[0] == exclude for row in neighbors):
            return exclude
        return best_address

    _coordinate = key_to_point
    _owns_coordinate = owns_point
    _next_hop = _best_next_hop

    # --------------------------------------------------------------- joining

    def create_network(self) -> None:
        """Become the first node of a new CAN, owning the whole space."""
        self.zones = [Zone.full_space(self.dimensions)]
        self.neighbor_zones = {}
        self.notify_location_map_change()

    def _join_coordinate(self) -> Tuple[float, ...]:
        return tuple(self._rng.random() for _ in range(self.dimensions))

    def _handle_join_request(self, payload: dict) -> None:
        """Split the local primary zone and hand half to the joining node."""
        joiner = payload["origin"]
        point = payload["coord"]
        primary_index = next(
            (i for i, zone in enumerate(self.zones) if zone.contains(point)), 0
        )
        primary = self.zones[primary_index]
        kept, given = primary.split()
        # Convention: the joiner receives the half containing its chosen
        # point, the splitter keeps the other half.
        if kept.contains(point):
            kept, given = given, kept
        previous_neighbors = {
            address: list(zones) for address, zones in self.neighbor_zones.items()
        }
        zones = list(self.zones)
        zones[primary_index] = kept
        self.zones = zones

        items: list = []
        if self.extract_items is not None:
            items = self.extract_items(lambda key: not self.owns(key))

        reply = {
            "zone": given,
            "neighbor_zones": previous_neighbors,
            "splitter": self.address,
            "splitter_zones": list(self.zones),
            "items": items,
        }
        item_bytes = sum(getattr(item, "size_bytes", 100) for item in items)
        self.node.send(
            joiner,
            self.PROTOCOL_JOIN_REPLY,
            payload=reply,
            payload_bytes=200 + item_bytes,
        )
        # The joiner becomes a neighbour of the splitter.
        self.neighbor_zones = {**self.neighbor_zones, joiner: [given]}
        self._prune_non_adjacent()
        self._broadcast_zone_update()
        self.notify_location_map_change()

    def _on_join_reply(self, node: Node, message) -> None:
        payload = message.payload
        self.zones = [payload["zone"]]
        candidate_map = dict(payload["neighbor_zones"])
        candidate_map[payload["splitter"]] = list(payload["splitter_zones"])
        self.neighbor_zones = {
            address: zones
            for address, zones in candidate_map.items()
            if address != self.address and self._adjacent_to_me(zones)
        }
        if self.install_items is not None and payload["items"]:
            self.install_items(payload["items"])
        self._broadcast_zone_update(extra_recipients=candidate_map.keys())
        self.notify_location_map_change()

    # ---------------------------------------------------------------- leaving

    def leave(self) -> None:
        """Hand all zones and items to the smallest live neighbour."""
        live = [a for a in self.neighbor_zones if a not in self._dead_neighbors]
        if not live:
            self.zones = []
            self.notify_location_map_change()
            return
        heir = min(
            live,
            key=lambda address: sum(z.volume() for z in self.neighbor_zones[address]),
        )
        items: list = []
        if self.extract_items is not None:
            items = self.extract_items(lambda key: True)
        item_bytes = sum(getattr(item, "size_bytes", 100) for item in items)
        self.node.send(
            heir,
            self.PROTOCOL_LEAVE_HANDOFF,
            payload={
                "zones": list(self.zones),
                "items": items,
                "departing": self.address,
                "neighbor_zones": dict(self.neighbor_zones),
            },
            payload_bytes=200 + item_bytes,
        )
        self.zones = []
        self.neighbor_zones = {}
        self.notify_location_map_change()

    def _on_leave_handoff(self, node: Node, message) -> None:
        payload = message.payload
        self.zones = [*self.zones, *payload["zones"]]
        neighbor_zones = dict(self.neighbor_zones)
        neighbor_zones.pop(payload["departing"], None)
        for address, zones in payload["neighbor_zones"].items():
            if address == self.address:
                continue
            if self._adjacent_to_me(zones):
                neighbor_zones[address] = zones
        self.neighbor_zones = neighbor_zones
        if self.install_items is not None and payload["items"]:
            self.install_items(payload["items"])
        self._broadcast_zone_update(
            extra_recipients=payload["neighbor_zones"].keys()
        )
        self.notify_location_map_change()

    # ----------------------------------------------------- neighbour updates

    def _adjacent_to_me(self, zones: Sequence[Zone]) -> bool:
        return any(
            mine.is_neighbor(theirs) for mine in self.zones for theirs in zones
        )

    def _prune_non_adjacent(self) -> None:
        self.neighbor_zones = {
            address: zones
            for address, zones in self.neighbor_zones.items()
            if self._adjacent_to_me(zones)
        }

    def _broadcast_zone_update(self, extra_recipients=()) -> None:
        recipients = set(self.neighbor_zones) | set(extra_recipients)
        recipients.discard(self.address)
        for address in recipients:
            self.node.send(
                address,
                self.PROTOCOL_NEIGHBOR_UPDATE,
                payload={"address": self.address, "zones": list(self.zones)},
                payload_bytes=100,
            )

    def _on_neighbor_update(self, node: Node, message) -> None:
        payload = message.payload
        address = payload["address"]
        zones = payload["zones"]
        if address == self.address:
            return
        neighbor_zones = dict(self.neighbor_zones)
        if zones and self._adjacent_to_me(zones):
            neighbor_zones[address] = zones
            self.mark_neighbor_alive(address)
        else:
            neighbor_zones.pop(address, None)
        self.neighbor_zones = neighbor_zones

    # ------------------------------------------------------------ inspection

    def total_volume(self) -> float:
        """Combined volume of the zones owned by this node."""
        return sum(zone.volume() for zone in self.zones)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CanRouting(addr={self.address}, zones={len(self.zones)}, "
            f"neighbors={len(self.neighbor_zones)})"
        )


class CanNetworkBuilder:
    """Construct a stabilised CAN over every node of a network.

    ``build_stabilized`` partitions the unit cube into one zone per node with
    balanced recursive bisection and computes neighbour tables directly, so
    no join-protocol messages are exchanged.  This mirrors the paper's
    methodology of measuring only after the overlay has stabilised.
    """

    def __init__(self, dimensions: int = DEFAULT_DIMENSIONS, seed: int = 0):
        if dimensions <= 0:
            raise ValueError("CAN dimensionality must be positive")
        self.dimensions = dimensions
        self.seed = seed
        self._built_addresses: Optional[List[int]] = None

    # ------------------------------------------------------------- partition

    def partition(self, count: int) -> List[Zone]:
        """Split the unit cube into ``count`` balanced zones."""
        if count <= 0:
            raise ValueError("need at least one node")
        zones: List[Zone] = []
        _split_zone(Zone.full_space(self.dimensions), count, 0, zones)
        return zones

    # ------------------------------------------------------------ neighbours

    @staticmethod
    def _overlaps(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> bool:
        return a_lo < b_hi and b_lo < a_hi

    def neighbor_map(self, zones: List[Zone]) -> Dict[int, List[int]]:
        """Indices of CAN neighbours for each zone (plane-sweep per dimension)."""
        neighbors: Dict[int, set] = {i: set() for i in range(len(zones))}
        for dim in range(self.dimensions):
            hi_at: Dict[float, List[int]] = {}
            lo_at: Dict[float, List[int]] = {}
            for index, zone in enumerate(zones):
                hi_at.setdefault(zone.hi[dim], []).append(index)
                lo_at.setdefault(zone.lo[dim], []).append(index)
            for boundary, left_side in hi_at.items():
                right_side = lo_at.get(boundary, [])
                for i in left_side:
                    zone_i = zones[i]
                    for j in right_side:
                        if i == j:
                            continue
                        zone_j = zones[j]
                        if all(
                            self._overlaps(
                                zone_i.lo[other], zone_i.hi[other],
                                zone_j.lo[other], zone_j.hi[other],
                            )
                            for other in range(self.dimensions)
                            if other != dim
                        ):
                            neighbors[i].add(j)
                            neighbors[j].add(i)
        return {index: sorted(adjacent) for index, adjacent in neighbors.items()}

    # ----------------------------------------------------------------- build

    def build_stabilized(self, network: Network,
                         addresses: Optional[Sequence[int]] = None
                         ) -> Dict[int, CanRouting]:
        """Install a stabilised CAN on ``addresses`` (default: every node)."""
        if addresses is None:
            addresses = list(range(network.num_nodes))
        addresses = list(addresses)
        zones = self.partition(len(addresses))
        adjacency = self.neighbor_map(zones)

        routings: Dict[int, CanRouting] = {}
        for index, address in enumerate(addresses):
            routing = CanRouting(
                network.node(address), dimensions=self.dimensions, seed=self.seed
            )
            routing.zones = [zones[index]]
            routings[address] = routing

        for index, address in enumerate(addresses):
            routing = routings[address]
            routing.neighbor_zones = {
                addresses[j]: [zones[j]] for j in adjacency[index]
            }
        self._built_addresses = addresses
        return routings

    # --------------------------------------------------------- owner lookup

    def locate_index(self, count: int, point: Sequence[float]) -> int:
        """Index (in partition order) of the zone containing ``point``.

        Walks :meth:`partition`'s recursion as a cached decision tree, without
        materialising the zones: O(log n) per point, as in
        :meth:`owners_of_keys`.
        """
        return _descend(_split_tree(self.dimensions, count), point)

    def owner_of_key(self, key: int) -> int:
        """Address of the node owning ``key`` in the last built network."""
        return self.owners_of_keys([key])[0]

    def owners_of_keys(self, keys: Sequence[int]) -> List[int]:
        """Addresses of the nodes owning ``keys``, in order, from one tree."""
        addresses = self._built_addresses
        if addresses is None:
            raise RoutingError("owner_of_key() requires build_stabilized() first")
        root = _split_tree(self.dimensions, len(addresses))
        return [addresses[_descend(root, key_to_unit_coordinates(key, self.dimensions))]
                for key in keys]


def _split_zone(zone: Zone, remaining: int, depth: int, out: List[Zone]) -> None:
    """Halve ``zone`` along ``depth % dimensions`` until each part holds one
    node, appending the parts to ``out`` in partition order."""
    if remaining == 1:
        out.append(zone)
        return
    lower, upper = zone.split(depth % zone.dimensions)
    first = (remaining + 1) // 2
    _split_zone(lower, first, depth + 1, out)
    _split_zone(upper, remaining - first, depth + 1, out)


def _descend(node: "int | tuple", point: Sequence[float]) -> int:
    """Index of the leaf of :func:`_split_tree` that holds ``point``."""
    while type(node) is tuple:
        dim, mid, lower, upper = node
        node = lower if point[dim] < mid else upper
    return node


@functools.lru_cache(maxsize=16)
def _split_tree(dimensions: int, count: int) -> "int | tuple":
    """:meth:`CanNetworkBuilder.partition` as a decision tree: a leaf is a zone's
    index, an inner node ``(dim, mid, lower, upper)`` sends points below ``mid``
    along ``dim`` to ``lower``."""
    if count <= 0:
        raise ValueError("need at least one node")
    return _split_subtree(((0.0, 1.0),) * dimensions, 0, count, 0)


def _split_subtree(bounds: tuple, offset: int, remaining: int,
                   depth: int) -> "int | tuple":
    """The subtree of :func:`_split_tree` over ``bounds``, whose zones are
    indexes ``offset`` to ``offset + remaining - 1``."""
    if remaining == 1:
        return offset
    dim = depth % len(bounds)
    lo, hi = bounds[dim]
    mid = (lo + hi) / 2.0
    first = (remaining + 1) // 2
    below = bounds[:dim] + ((lo, mid),) + bounds[dim + 1:]
    above = bounds[:dim] + ((mid, hi),) + bounds[dim + 1:]
    return (dim, mid, _split_subtree(below, offset, first, depth + 1),
            _split_subtree(above, offset + first, remaining - first, depth + 1))
