"""Unit tests for repro.geo.rect."""

import numpy as np
import pytest

from repro.core.greedy import RegionStats
from repro.core.plan import SheddingPlan
from repro.geo import Point, Rect
from repro.server.base_station import BaseStation, coverage_mask


class TestConstruction:
    def test_rejects_inverted_x(self):
        with pytest.raises(ValueError):
            Rect(2.0, 0.0, 1.0, 1.0)

    def test_rejects_inverted_y(self):
        with pytest.raises(ValueError):
            Rect(0.0, 2.0, 1.0, 1.0)

    def test_zero_area_rect_is_allowed(self):
        r = Rect(1.0, 1.0, 1.0, 1.0)
        assert r.area == 0.0

    def test_from_center_square(self):
        r = Rect.from_center(Point(5.0, 5.0), 4.0)
        assert (r.x1, r.y1, r.x2, r.y2) == (3.0, 3.0, 7.0, 7.0)

    def test_from_center_rectangle(self):
        r = Rect.from_center(Point(0.0, 0.0), 2.0, 6.0)
        assert r.width == pytest.approx(2.0)
        assert r.height == pytest.approx(6.0)


class TestProperties:
    def test_dimensions(self):
        r = Rect(1.0, 2.0, 4.0, 8.0)
        assert r.width == 3.0
        assert r.height == 6.0
        assert r.area == 18.0

    def test_center(self):
        assert Rect(0.0, 0.0, 4.0, 2.0).center == Point(2.0, 1.0)


class TestContainment:
    def test_contains_interior_point(self, unit_rect):
        assert unit_rect.contains_xy(0.5, 0.5)

    def test_half_open_min_edge_included(self, unit_rect):
        assert unit_rect.contains_xy(0.0, 0.0)

    def test_half_open_max_edge_excluded(self, unit_rect):
        assert not unit_rect.contains_xy(1.0, 0.5)
        assert not unit_rect.contains_xy(0.5, 1.0)

    def test_contains_xy_excludes_outside_points(self, unit_rect):
        for x, y in [(1.0, 1.0), (-0.1, 0.5), (0.5, -0.1), (2.0, 2.0)]:
            assert not unit_rect.contains_xy(x, y)


class TestIntersection:
    def test_overlapping_rects_intersect(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        b = Rect(1.0, 1.0, 3.0, 3.0)
        assert a.intersects(b) and b.intersects(a)
        assert a.intersection(b) == Rect(1.0, 1.0, 2.0, 2.0)

    def test_touching_edges_do_not_intersect(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(1.0, 0.0, 2.0, 1.0)
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_disjoint_rects(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(5.0, 5.0, 6.0, 6.0)
        assert not a.intersects(b)

    def test_nested_rect_intersection_is_inner(self):
        outer = Rect(0.0, 0.0, 10.0, 10.0)
        inner = Rect(2.0, 2.0, 3.0, 3.0)
        assert outer.intersection(inner) == inner


class TestQuadrants:
    def test_quadrants_tile_the_rect(self):
        r = Rect(0.0, 0.0, 4.0, 4.0)
        quads = r.quadrants()
        assert len(quads) == 4
        assert sum(q.area for q in quads) == pytest.approx(r.area)

    def test_quadrants_are_disjoint(self):
        quads = Rect(0.0, 0.0, 2.0, 2.0).quadrants()
        for i in range(4):
            for j in range(i + 1, 4):
                assert not quads[i].intersects(quads[j])

    def test_every_interior_point_in_exactly_one_quadrant(self):
        r = Rect(0.0, 0.0, 2.0, 2.0)
        quads = r.quadrants()
        for p in [Point(0.5, 0.5), Point(1.5, 0.5), Point(1.0, 1.0), Point(0.1, 1.9)]:
            assert sum(q.contains_xy(p.x, p.y) for q in quads) == 1


def _disk_meets(rect: Rect, center: Point, radius: float) -> bool:
    """A station's coverage disk against a one-region plan over ``rect``
    (``coverage_mask`` is where disk/rectangle intersection lives)."""
    region = RegionStats(rect=rect, n=1.0, m=0.0, s=1.0)
    plan = SheddingPlan.from_regions(rect, [region], np.array([5.0]), 4)
    return bool(coverage_mask([BaseStation(0, center, radius)], plan)[0, 0])


class TestCircleIntersection:
    def test_circle_centered_inside_intersects(self, unit_rect):
        assert _disk_meets(unit_rect, Point(0.5, 0.5), 0.1)

    def test_circle_far_away_does_not(self, unit_rect):
        assert not _disk_meets(unit_rect, Point(10.0, 10.0), 1.0)

    def test_circle_touching_corner(self, unit_rect):
        # Distance from (2, 2) to corner (1, 1) is sqrt(2) ~ 1.414.
        assert _disk_meets(unit_rect, Point(2.0, 2.0), 1.5)
        assert not _disk_meets(unit_rect, Point(2.0, 2.0), 1.3)
