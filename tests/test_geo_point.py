"""Unit tests for repro.geo.point."""

import math

import pytest

from repro.geo import Point, midpoint


class TestPointArithmetic:
    def test_addition(self):
        assert Point(1.0, 2.0) + Point(3.0, 4.0) == Point(4.0, 6.0)

    def test_subtraction(self):
        assert Point(5.0, 7.0) - Point(2.0, 3.0) == Point(3.0, 4.0)

    def test_scalar_multiplication(self):
        assert Point(1.5, -2.0) * 2.0 == Point(3.0, -4.0)

    def test_scalar_multiplication_is_commutative(self):
        p = Point(1.0, 2.0)
        assert 3.0 * p == p * 3.0

    def test_points_are_immutable(self):
        p = Point(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 5.0


class TestPointMetrics:
    def test_norm_is_euclidean(self):
        assert Point(3.0, 4.0).norm() == pytest.approx(5.0)

    def test_norm_of_origin_is_zero(self):
        assert Point(0.0, 0.0).norm() == 0.0

    def test_distance_is_symmetric(self):
        a, b = Point(1.0, 1.0), Point(4.0, 5.0)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        p = Point(2.5, -1.5)
        assert p.distance_to(p) == 0.0

    def test_distance_matches_hypot(self):
        a, b = Point(-1.0, 2.0), Point(3.0, -2.0)
        assert a.distance_to(b) == pytest.approx(math.hypot(4.0, 4.0))


class TestHelpers:
    def test_midpoint(self):
        assert midpoint(Point(0.0, 0.0), Point(2.0, 4.0)) == Point(1.0, 2.0)
