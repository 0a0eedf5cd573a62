"""Content Addressable Network (CAN) routing layer.

CAN (Ratnasamy et al., SIGCOMM 2001) organises nodes over a logical
``d``-dimensional unit **torus** partitioned into hyper-rectangular *zones*.
Each node owns its zones (one after a build; the routing code takes any
number), a key's point is its own bits (:mod:`repro.dht.naming`), and a
key is stored at the node whose zone contains its point.  Coordinates
wrap: a zone face at ``1`` meets the faces at ``0`` across the seam, so
zones on opposite edges are neighbours, and distances are measured the
short way round each axis.
Routing greedily forwards a message to the neighbour whose zone is closest
to the target point, giving ``(d/4)·n^{1/d}`` hops on average — with the
paper's choice of ``d = 2`` this is the ``n^{1/2}`` growth visible in its
scalability figures.

A multicast travels **outward** from the centre of the origin's zone: each
node forwards a copy to its live neighbours that are strictly farther from
that point (:meth:`CanRouting.broadcast_children`), so every node hears from
each strictly closer neighbour and the wave costs ``2n`` messages on a
regular 2-d grid instead of the flood's ``3n``.  A neighbour marked dead
among those children makes the node flood instead.

A CAN is stood up one way: :meth:`CanNetworkBuilder.build_stabilized`
constructs the partitioning and neighbour tables directly, as a function of
the address list.  The paper's measurements are all taken "after the CAN
routing stabilizes"; a membership change rebuilds over the new list
(:func:`repro.stack.build_overlay`).

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
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import RoutingError
from repro.dht.api import RoutingLayer, RoutingTableField
from repro.dht.naming import key_to_unit_coordinates
from repro.net.network import SimulatedNetwork
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

    def split(self, dim: int) -> Tuple["Zone", "Zone"]:
        """Split the zone in half along ``dim``."""
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
        """Euclidean distance on the unit torus from ``point`` to the zone:
        each axis is measured the short way round (across the seam at 1 = 0
        when that is shorter)."""
        total = 0.0
        for low, high, coordinate in zip(self.lo, self.hi, point):
            if coordinate < low:
                delta = min(low - coordinate, coordinate + 1.0 - high)
            elif coordinate >= high:
                delta = min(coordinate - high, low + 1.0 - coordinate)
            else:
                delta = 0.0
            total += delta * delta
        return total ** 0.5

    def is_neighbor(self, other: "Zone") -> bool:
        """CAN adjacency on the torus: the zones touch along exactly one
        dimension (directly or across the seam, where ``hi == 1`` meets
        ``lo == 0``) and overlap in every other.  Corner contact is not
        adjacency."""
        touching = 0
        for dim in range(self.dimensions):
            a_lo, a_hi = self.lo[dim], self.hi[dim]
            b_lo, b_hi = other.lo[dim], other.hi[dim]
            if a_lo < b_hi and b_lo < a_hi:
                continue  # overlapping along this dimension
            if (a_hi == b_lo or b_hi == a_lo
                    or (a_hi == 1.0 and b_lo == 0.0)
                    or (b_hi == 1.0 and a_lo == 0.0)):
                touching += 1
            else:
                return False  # a gap along this dimension
        return touching == 1

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
    """

    PROTOCOL_ROUTE_BATCH = "can.route_batch"
    PROTOCOL_BATCH_LOOKUP_REPLY = "can.batch_lookup_reply"

    # The routing table: what the next-hop index is derived from.
    #: Zones this node owns (a tuple: replace it, do not edit it).
    zones = RoutingTableField(tuple)
    #: neighbour address -> zones that neighbour owns (read-only mapping).
    neighbor_zones = RoutingTableField(_freeze_zone_map)
    _dead_neighbors = RoutingTableField(frozenset)

    def __init__(self, node: Node, dimensions: int = DEFAULT_DIMENSIONS):
        super().__init__(node)
        if dimensions <= 0:
            raise ValueError("CAN dimensionality must be positive")
        self.dimensions = dimensions
        self.zones = ()
        self.neighbor_zones = {}
        self._dead_neighbors = ()

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
    # Lookups are RoutingLayer's, over the coordinate hooks below; a key's
    # coordinate is its point.

    def _best_next_hop(self, point: Sequence[float],
                       exclude: Optional[int] = None) -> Optional[int]:
        """Neighbour whose zone is closest to the target point on the torus.

        Each axis is measured the short way round: ``min(lo - x, x + 1 - hi)``
        below a zone, ``min(x - hi, lo + 1 - x)`` above it.  The node the
        message just arrived from is avoided unless it is the only live
        neighbour, which prevents two-node ping-pong cycles.
        """
        # Rows are measured in squared distance and only a closer row pays
        # for its root: sqrt is monotone but not strictly so in floating
        # point, and two squares an ulp apart can share one root.  Comparing
        # roots keeps the first of such rows, as ``Zone.distance_to_point``
        # would.
        neighbors = (self._next_hops or self._build_next_hops())[1]
        best_address: Optional[int] = None
        best_distance = _INFINITY
        best_root = _INFINITY
        if self.dimensions == 2:
            x, y = point
            for address, x_lo, x_hi, y_lo, y_hi in neighbors:
                if x < x_lo:
                    delta = x_lo - x
                    wrap = x + 1.0 - x_hi
                    if wrap < delta:
                        delta = wrap
                    distance = delta * delta
                elif x >= x_hi:
                    delta = x - x_hi
                    wrap = x_lo + 1.0 - x
                    if wrap < delta:
                        delta = wrap
                    distance = delta * delta
                else:
                    distance = 0.0
                if y < y_lo:
                    delta = y_lo - y
                    wrap = y + 1.0 - y_hi
                    if wrap < delta:
                        delta = wrap
                    distance += delta * delta
                elif y >= y_hi:
                    delta = y - y_hi
                    wrap = y_lo + 1.0 - y
                    if wrap < delta:
                        delta = wrap
                    distance += delta * delta
                if distance < best_distance and address != exclude:
                    root = distance ** 0.5
                    if root < best_root:
                        best_distance = distance
                        best_root = root
                        best_address = address
        else:
            for address, bounds in neighbors:
                distance = 0.0
                for (low, high), coordinate in zip(bounds, point):
                    if coordinate < low:
                        delta = min(low - coordinate, coordinate + 1.0 - high)
                        distance += delta * delta
                    elif coordinate >= high:
                        delta = min(coordinate - high, low + 1.0 - coordinate)
                        distance += delta * delta
                if distance < best_distance and address != exclude:
                    root = distance ** 0.5
                    if root < best_root:
                        best_distance = distance
                        best_root = root
                        best_address = address
        if best_address is None and any(row[0] == exclude for row in neighbors):
            return exclude
        return best_address

    def _neighbor_owning(self, point: Sequence[float]) -> Optional[int]:
        """First live neighbour row whose half-open zone contains ``point``
        (the test :meth:`owns_point` applies to this node's own zones)."""
        neighbors = (self._next_hops or self._build_next_hops())[1]
        if self.dimensions == 2:
            x, y = point
            for address, x_lo, x_hi, y_lo, y_hi in neighbors:
                if x_lo <= x < x_hi and y_lo <= y < y_hi:
                    return address
            return None
        for address, bounds in neighbors:
            if all(low <= coordinate < high
                   for (low, high), coordinate in zip(bounds, point)):
                return address
        return None

    _coordinate = key_to_point
    _owns_coordinate = owns_point
    _owner_in_table = _neighbor_owning
    _next_hop = _best_next_hop

    # ------------------------------------------------------------- multicast

    def broadcast_scope(self) -> Tuple[float, ...]:
        """The origin zone's centre: a multicast travels outward from it."""
        return self.zones[0].center()

    def broadcast_children(self, scope: Optional[Sequence[float]]
                           ) -> Optional[List[Tuple[int, Optional[tuple]]]]:
        """Live neighbours strictly farther (torus distance) from the point
        ``scope`` than this node; ``None`` (flood) when one of them is marked
        dead, since the nodes beyond it may have no other closer neighbour.

        Every node but the origin has a strictly closer neighbour (greedy
        routing's step), so each receives a copy from every strictly closer
        live one.
        """
        if scope is None:
            return super().broadcast_children(None)
        here = min((zone.distance_to_point(scope) for zone in self.zones),
                   default=_INFINITY)
        dead = self._dead_neighbors
        children = []
        for address, zones in self.neighbor_zones.items():
            if min(zone.distance_to_point(scope) for zone in zones) > here:
                if address in dead:
                    return None
                children.append((address, scope))
        return children

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
    no message is exchanged.  This mirrors the paper's methodology of
    measuring only after the overlay has stabilised.
    """

    def __init__(self, dimensions: int = DEFAULT_DIMENSIONS):
        if dimensions <= 0:
            raise ValueError("CAN dimensionality must be positive")
        self.dimensions = dimensions
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
        """Indices of CAN neighbours for each zone (plane-sweep per dimension).

        The space is a torus: a ``lo == 0`` face also meets the ``hi == 1``
        faces across the seam.
        """
        neighbors: Dict[int, set] = {i: set() for i in range(len(zones))}
        for dim in range(self.dimensions):
            hi_at: Dict[float, List[int]] = {}
            lo_at: Dict[float, List[int]] = {}
            for index, zone in enumerate(zones):
                hi_at.setdefault(zone.hi[dim], []).append(index)
                lo_at.setdefault(zone.lo[dim] or 1.0, []).append(index)
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

    def build_stabilized(self, network: SimulatedNetwork,
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
            routing = CanRouting(network.node(address), dimensions=self.dimensions)
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
