"""Planar points and small vector helpers.

All geometry in this package uses a simple Cartesian plane measured in
meters, matching the paper's setting of a ~200 km^2 monitoring region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable 2-D point (or vector), in meters.

    Supports the small amount of vector arithmetic the simulator needs:
    addition, subtraction, scalar multiplication, and Euclidean norms.
    """

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def norm(self) -> float:
        """Euclidean length of this point treated as a vector."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)


def midpoint(a: Point, b: Point) -> Point:
    """The point halfway between ``a`` and ``b``."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
