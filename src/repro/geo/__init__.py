"""Planar geometry substrate (points, rectangles) used across the library."""

from repro.geo.point import Point, midpoint
from repro.geo.rect import Rect

__all__ = ["Point", "Rect", "midpoint"]
