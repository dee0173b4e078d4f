"""Road-network graph model.

The paper generates its mobile-node trace from a real USGS road map of the
Chamblee, GA region — "a rich mixture of expressways, arterial roads, and
collector roads" covering ~200 km^2.  That map is not redistributable, so
this package provides the same *kind* of object: a planar graph of road
segments, each tagged with a road class that determines its speed limit
and its attractiveness to traffic.  The statistical properties LIRA
depends on (road-constrained, highly skewed node density; heterogeneous
per-region speeds) come from the class mix, not from the specific map.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.geo import Point, Rect


class RoadClass(enum.Enum):
    """Functional road classes, mirroring the paper's USGS map mix.

    Each class carries a speed limit (m/s) and a relative traffic weight
    used both for routing decisions and for seeding vehicles, so that
    expressways end up densely populated and fast while collectors are
    sparse and slow — the heterogeneity LIRA exploits.
    """

    EXPRESSWAY = ("expressway", 30.0, 10.0)
    ARTERIAL = ("arterial", 16.0, 4.0)
    COLLECTOR = ("collector", 9.0, 1.0)

    def __init__(self, label: str, speed_limit: float, traffic_weight: float):
        self.label = label
        self.speed_limit = speed_limit
        self.traffic_weight = traffic_weight


@dataclass(frozen=True, slots=True)
class RoadSegment:
    """A directed-free road edge between two intersection ids."""

    a: int
    b: int
    road_class: RoadClass
    length: float

    def other_end(self, node: int) -> int:
        """The endpoint that is not ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not an endpoint of this segment")


@dataclass
class RoadNetwork:
    """A planar road graph: intersections, segments, and adjacency.

    ``nodes[i]`` is the position of intersection ``i``; ``segments[j]``
    connects two intersections; ``adjacency[i]`` lists the indices of
    segments incident to intersection ``i``.
    """

    bounds: Rect
    nodes: list[Point] = field(default_factory=list)
    segments: list[RoadSegment] = field(default_factory=list)
    adjacency: dict[int, list[int]] = field(default_factory=dict)

    def add_node(self, p: Point) -> int:
        """Add an intersection, returning its id."""
        self.nodes.append(p)
        node_id = len(self.nodes) - 1
        self.adjacency[node_id] = []
        return node_id

    def add_segment(self, a: int, b: int, road_class: RoadClass) -> int:
        """Connect intersections ``a`` and ``b``, returning the segment id."""
        if a == b:
            raise ValueError("self-loop segments are not allowed")
        length = self.nodes[a].distance_to(self.nodes[b])
        self.segments.append(RoadSegment(a, b, road_class, length))
        seg_id = len(self.segments) - 1
        self.adjacency[a].append(seg_id)
        self.adjacency[b].append(seg_id)
        return seg_id

    def segment_midpoint(self, seg_id: int) -> Point:
        seg = self.segments[seg_id]
        a, b = self.nodes[seg.a], self.nodes[seg.b]
        return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)

    def point_on_segment(self, seg_id: int, offset: float) -> Point:
        """The point ``offset`` meters from endpoint ``a`` along the segment."""
        seg = self.segments[seg_id]
        # reprolint: disable=REP010 - exact guard for a zero-length
        # segment before the offset/length division.
        if seg.length == 0.0:
            return self.nodes[seg.a]
        t = min(max(offset / seg.length, 0.0), 1.0)
        a, b = self.nodes[seg.a], self.nodes[seg.b]
        return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)

    def incident_segments(self, node: int) -> list[int]:
        """Segment ids touching intersection ``node``."""
        return self.adjacency[node]

    def segment_arrays(self) -> dict[str, np.ndarray]:
        """The segment table as a struct-of-arrays bundle.

        Keys: ``a``/``b`` (endpoint node ids, int64), ``length`` and
        ``speed_limit`` (float64), plus ``node_xy`` with shape
        ``(n_nodes, 2)``.  This is the static side of the vectorized
        fleet engine; the graph itself stays object-based.
        """
        return {
            "a": np.array([s.a for s in self.segments], dtype=np.int64),
            "b": np.array([s.b for s in self.segments], dtype=np.int64),
            "length": np.array([s.length for s in self.segments], dtype=np.float64),
            "speed_limit": np.array(
                [s.road_class.speed_limit for s in self.segments], dtype=np.float64
            ),
            "node_xy": np.array(
                [[p.x, p.y] for p in self.nodes], dtype=np.float64
            ).reshape(len(self.nodes), 2),
        }

    def adjacency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form: ``(indptr, seg_ids)``.

        ``seg_ids[indptr[v]:indptr[v + 1]]`` are the segments incident to
        intersection ``v``, in the same order as :meth:`incident_segments`.
        """
        degrees = np.array(
            [len(self.adjacency[v]) for v in range(len(self.nodes))], dtype=np.int64
        )
        indptr = np.zeros(len(self.nodes) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        seg_ids = np.fromiter(
            (s for v in range(len(self.nodes)) for s in self.adjacency[v]),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        return indptr, seg_ids

    def validate(self) -> None:
        """Raise ``ValueError`` if the graph is structurally inconsistent.

        Checks node references, adjacency symmetry, and that every
        intersection lies inside ``bounds``.
        """
        n = len(self.nodes)
        for seg in self.segments:
            if not (0 <= seg.a < n and 0 <= seg.b < n):
                raise ValueError(f"segment references unknown node: {seg}")
        for node_id, seg_ids in self.adjacency.items():
            for seg_id in seg_ids:
                seg = self.segments[seg_id]
                if node_id not in (seg.a, seg.b):
                    raise ValueError(
                        f"adjacency lists segment {seg_id} for node {node_id}, "
                        "but the node is not an endpoint"
                    )
        for i, p in enumerate(self.nodes):
            if not (
                self.bounds.x1 <= p.x <= self.bounds.x2
                and self.bounds.y1 <= p.y <= self.bounds.y2
            ):
                raise ValueError(f"node {i} at {p} lies outside bounds {self.bounds}")
