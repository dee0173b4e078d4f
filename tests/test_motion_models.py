"""Tests for pluggable motion models (second-order dead reckoning)."""

import math

import numpy as np
import pytest

from repro.geo import Point
from repro.motion import DeadReckoningFleet
from repro.motion.models import (
    ModelDrivenTracker,
    SecondOrderMotionModel,
    compare_update_volume,
    make_linear_model,
    make_second_order_model,
)


def accelerating_samples(n=40, dt=1.0, accel=2.0):
    """Straight-line motion with constant acceleration."""
    samples = []
    for k in range(n):
        t = k * dt
        x = 0.5 * accel * t * t
        samples.append((t, Point(x, 0.0), Point(accel * t, 0.0)))
    return samples


class TestSecondOrderModel:
    def test_predicts_quadratically(self):
        model = SecondOrderMotionModel(
            Point(0, 0), Point(10, 0), Point(2, 0), time=0.0
        )
        p = model.predict(4.0)
        assert p.x == pytest.approx(10 * 4 + 0.5 * 2 * 16)
        assert p.y == 0.0

    def test_zero_acceleration_matches_linear(self):
        second = SecondOrderMotionModel(Point(1, 2), Point(3, 4), Point(0, 0), 0.0)
        linear = make_linear_model(0.0, Point(1, 2), Point(3, 4), None, 0.0)
        for t in (0.0, 2.5, 10.0):
            assert second.predict(t) == linear.predict(t)

    def test_deviation(self):
        model = SecondOrderMotionModel(Point(0, 0), Point(0, 0), Point(0, 0), 0.0)
        assert model.deviation(5.0, Point(3.0, 4.0)) == pytest.approx(5.0)


class TestModelDrivenTracker:
    def test_first_sample_reports(self):
        tracker = ModelDrivenTracker(0)
        assert tracker.observe(0.0, Point(0, 0), Point(1, 0), threshold=10.0)

    def test_linear_factory_matches_basic_tracker(self):
        """The linear factory is plain dead reckoning: a one-node
        :class:`DeadReckoningFleet` makes the same decisions."""
        rng = np.random.default_rng(4)
        basic = DeadReckoningFleet(1)
        basic.set_thresholds(10.0)
        model_driven = ModelDrivenTracker(0, make_linear_model)
        position = np.zeros(2)
        velocity = np.array([5.0, 0.0])
        for k in range(50):
            velocity = velocity + rng.normal(0, 1.0, 2)
            position = position + velocity
            p, v = Point(*position), Point(*velocity)
            a = basic.observe(float(k), position[None], velocity[None]).size == 1
            b = model_driven.observe(float(k), p, v, 10.0)
            assert a == b

    @pytest.mark.parametrize("threshold", [-1.0, math.nan])
    def test_rejects_negative_and_nan_threshold(self, threshold):
        """A NaN Δ used to pass the ``< 0`` check, and ``deviation > NaN``
        is false, so the node reported once and then never again."""
        tracker = ModelDrivenTracker(0)
        with pytest.raises(ValueError, match="non-negative"):
            tracker.observe(0.0, Point(0, 0), Point(100, 0), threshold)
        assert tracker.reports_sent == 0

    def test_second_order_estimates_acceleration(self):
        tracker = ModelDrivenTracker(0, make_second_order_model)
        samples = accelerating_samples()
        tracker.observe(*samples[0][:1], samples[0][1], samples[0][2], threshold=1.0)
        tracker.observe(samples[1][0], samples[1][1], samples[1][2], threshold=1e9)
        # No report on sample 1 (huge threshold): model still the initial
        # zero-acceleration one. Force a report on sample 2 and check the
        # acceleration estimate.
        tracker.observe(samples[2][0], samples[2][1], samples[2][2], threshold=-0.0)
        model = tracker.model
        assert isinstance(model, SecondOrderMotionModel)
        assert model.acceleration.x == pytest.approx(2.0, rel=1e-6)

    def test_threshold_validated(self):
        tracker = ModelDrivenTracker(0)
        with pytest.raises(ValueError):
            tracker.observe(0.0, Point(0, 0), Point(0, 0), threshold=-1.0)


class TestModelComparison:
    def test_second_order_fewer_updates_under_acceleration(self):
        """On accelerating motion the second-order model defers reports —
        the 'advanced models exist' claim, quantified."""
        counts = compare_update_volume(accelerating_samples(), threshold=5.0)
        assert counts["second-order"] < counts["linear"]

    def test_equal_on_constant_velocity(self):
        samples = [
            (float(k), Point(3.0 * k, 0.0), Point(3.0, 0.0)) for k in range(30)
        ]
        counts = compare_update_volume(samples, threshold=2.0)
        # Both models predict constant-velocity motion perfectly: one
        # initial report each.
        assert counts["linear"] == counts["second-order"] == 1

    def test_circular_motion(self):
        """On a circular track both models eventually report; neither
        model is exact, but second-order should not be worse."""
        samples = []
        radius, omega = 100.0, 0.05
        for k in range(100):
            t = float(k)
            angle = omega * t
            samples.append(
                (
                    t,
                    Point(radius * math.cos(angle), radius * math.sin(angle)),
                    Point(
                        -radius * omega * math.sin(angle),
                        radius * omega * math.cos(angle),
                    ),
                )
            )
        counts = compare_update_volume(samples, threshold=3.0)
        assert counts["second-order"] <= counts["linear"]
        assert counts["linear"] > 1  # curvature defeats linear prediction
