"""Base stations: the middle layer of the LIRA architecture.

Base stations broadcast the subset of shedding regions (and their update
throttlers) intersecting their coverage area to the mobile nodes they
serve.  This module provides circular-coverage stations, two placement
schemes (uniform grid and the paper's density-dependent placement, where
urban cells get smaller coverage), and the messaging-cost accounting of
Section 4.3.2 / Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Point, Rect
from repro.core.plan import SheddingPlan

#: Bytes to encode one shedding region + throttler: a square region is
#: 3 floats (x, y, side) and the throttler 1 float, 4 bytes each.
BYTES_PER_REGION = (3 + 1) * 4

#: Maximum payload of a UDP packet over Ethernet with a 1500-byte MTU,
#: the paper's yardstick for "fits in one broadcast packet".
UDP_PAYLOAD_BYTES = 1472


@dataclass(frozen=True, slots=True)
class BaseStation:
    """A base station with circular wireless coverage."""

    station_id: int
    center: Point
    radius: float

    def covers(self, p: Point) -> bool:
        """True if point ``p`` is inside the coverage disk."""
        return self.center.distance_to(p) <= self.radius


def coverage_mask(stations: list[BaseStation], plan: SheddingPlan) -> np.ndarray:
    """Boolean (stations × regions) coverage-intersection matrix.

    Entry ``[s, r]`` is True iff region ``r`` intersects station ``s``'s
    coverage disk: the disk center is clamped into each rectangle
    (``min(max(c, lo), hi)`` per axis) and the clamped distance compared
    against the radius.
    """
    x1, y1, x2, y2 = plan.rect_arrays()
    cx = np.array([s.center.x for s in stations], dtype=np.float64)[:, None]
    cy = np.array([s.center.y for s in stations], dtype=np.float64)[:, None]
    radius = np.array([s.radius for s in stations], dtype=np.float64)[:, None]
    dx = np.minimum(np.maximum(cx, x1[None, :]), x2[None, :]) - cx
    dy = np.minimum(np.maximum(cy, y1[None, :]), y2[None, :]) - cy
    return np.hypot(dx, dy) <= radius


def place_uniform_stations(bounds: Rect, radius: float) -> list[BaseStation]:
    """Tile ``bounds`` with stations of a fixed coverage radius.

    Stations sit on a square lattice with spacing ``radius·√2`` so the
    coverage disks fully cover the plane (disk circumradius of the cell).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    spacing = radius * np.sqrt(2.0)
    nx = max(1, int(np.ceil(bounds.width / spacing)))
    ny = max(1, int(np.ceil(bounds.height / spacing)))
    stations = []
    for j in range(ny):
        for i in range(nx):
            center = Point(
                bounds.x1 + (i + 0.5) * bounds.width / nx,
                bounds.y1 + (j + 0.5) * bounds.height / ny,
            )
            stations.append(
                BaseStation(station_id=len(stations), center=center, radius=radius)
            )
    return stations


def place_density_dependent_stations(
    bounds: Rect,
    node_positions: np.ndarray,
    nodes_per_station: int = 100,
    min_radius: float = 500.0,
    max_depth: int = 6,
) -> list[BaseStation]:
    """Density-dependent placement: small cells where nodes are dense.

    Mirrors the paper's observation that real deployments use small
    coverage areas in urban (dense) zones and large ones in suburbs.
    Implemented as a quad split: a cell holding more than
    ``nodes_per_station`` nodes splits into quadrants, up to
    ``max_depth`` levels or until the implied radius reaches
    ``min_radius``.  Each final cell gets one station whose radius is
    the cell circumradius.
    """
    positions = np.asarray(node_positions, dtype=np.float64)
    stations: list[BaseStation] = []

    def recurse(rect: Rect, points: np.ndarray, depth: int) -> None:
        circumradius = 0.5 * float(np.hypot(rect.width, rect.height))
        if (
            len(points) > nodes_per_station
            and depth < max_depth
            and circumradius / 2.0 >= min_radius
        ):
            for quadrant in rect.quadrants():
                mask = (
                    (points[:, 0] >= quadrant.x1)
                    & (points[:, 0] < quadrant.x2)
                    & (points[:, 1] >= quadrant.y1)
                    & (points[:, 1] < quadrant.y2)
                )
                recurse(quadrant, points[mask], depth + 1)
            return
        stations.append(
            BaseStation(
                station_id=len(stations), center=rect.center, radius=circumradius
            )
        )

    recurse(bounds, positions, 0)
    return stations


def mean_regions_per_station(
    stations: list[BaseStation], plan: SheddingPlan
) -> float:
    """Average number of shedding regions a base station must know.

    This is the paper's mobile-node-side cost metric (Table 3): every
    node stores the region subset of its current station.
    """
    if not stations:
        raise ValueError("at least one station is required")
    return float(np.mean(coverage_mask(stations, plan).sum(axis=1)))
