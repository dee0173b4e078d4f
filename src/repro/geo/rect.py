"""Axis-aligned rectangles.

Rectangles are the workhorse of the reproduction: shedding regions, range
queries, quad-tree quadrants, base-station bounding boxes, and grid cells
are all :class:`Rect` instances.  Coordinates are meters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """An immutable, axis-aligned rectangle ``[x1, x2) x [y1, y2)``.

    The half-open convention makes uniform partitionings (grids, quad-tree
    quadrants) tile the plane without double counting points on shared
    edges.  ``x1 <= x2`` and ``y1 <= y2`` are enforced at construction.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"degenerate rectangle: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @classmethod
    def from_center(cls, center: Point, width: float, height: float | None = None) -> "Rect":
        """Build a rectangle centered on ``center``.

        ``height`` defaults to ``width`` (a square, as used for the
        paper's range queries and shedding regions).
        """
        if height is None:
            height = width
        hw, hh = width / 2.0, height / 2.0
        return cls(center.x - hw, center.y - hh, center.x + hw, center.y + hh)

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def contains_xy(self, x: float, y: float) -> bool:
        """True if ``(x, y)`` lies inside (half-open on the max edges)."""
        return self.x1 <= x < self.x2 and self.y1 <= y < self.y2

    def intersects(self, other: "Rect") -> bool:
        """True if the two rectangles share any interior area."""
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` if disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.x1, other.x1),
            max(self.y1, other.y1),
            min(self.x2, other.x2),
            min(self.y2, other.y2),
        )

    def quadrants(self) -> tuple["Rect", "Rect", "Rect", "Rect"]:
        """Split into four equal quadrants (SW, SE, NW, NE order)."""
        cx, cy = (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0
        return (
            Rect(self.x1, self.y1, cx, cy),
            Rect(cx, self.y1, self.x2, cy),
            Rect(self.x1, cy, cx, self.y2),
            Rect(cx, cy, self.x2, self.y2),
        )
