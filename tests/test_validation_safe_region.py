"""Tests for the safe-region baseline policy."""

import numpy as np
import pytest

from repro.geo import Rect
from repro.queries import RangeQuery
from repro.shedding.safe_region import SafeRegionPolicy
from repro.shedding.safe_region import distance_to_rect_boundary


class TestDistanceToRectBoundary:
    RECT = Rect(10.0, 10.0, 20.0, 20.0)

    def test_outside_points(self):
        d = distance_to_rect_boundary(np.array([[25.0, 15.0]]), self.RECT)
        assert d[0] == pytest.approx(5.0)
        d = distance_to_rect_boundary(np.array([[25.0, 25.0]]), self.RECT)
        assert d[0] == pytest.approx(np.hypot(5.0, 5.0))

    def test_inside_points(self):
        d = distance_to_rect_boundary(np.array([[12.0, 15.0]]), self.RECT)
        assert d[0] == pytest.approx(2.0)  # nearest edge x1=10

    def test_on_boundary(self):
        d = distance_to_rect_boundary(np.array([[10.0, 15.0]]), self.RECT)
        assert d[0] == pytest.approx(0.0)


class TestSafeRegionPolicy:
    QUERIES = [
        RangeQuery(0, Rect(100.0, 100.0, 300.0, 300.0)),
        RangeQuery(1, Rect(700.0, 700.0, 900.0, 900.0)),
    ]

    def test_inside_query_gets_delta_min(self):
        policy = SafeRegionPolicy(self.QUERIES, delta_min=5.0)
        thresholds = policy.thresholds_for(np.array([[200.0, 200.0]]))
        assert thresholds[0] == 5.0

    def test_far_nodes_get_large_thresholds(self):
        policy = SafeRegionPolicy(self.QUERIES, delta_min=5.0, slack=0.5)
        # (500, 500): nearest boundary is (300,300) or (700,700), distance
        # = hypot(200, 200) ~ 283 -> threshold ~ 141.
        thresholds = policy.thresholds_for(np.array([[500.0, 500.0]]))
        assert thresholds[0] == pytest.approx(0.5 * np.hypot(200, 200), rel=1e-6)

    def test_threshold_grows_with_distance(self):
        policy = SafeRegionPolicy(self.QUERIES)
        near = policy.thresholds_for(np.array([[310.0, 200.0]]))[0]
        far = policy.thresholds_for(np.array([[550.0, 200.0]]))[0]
        assert far > near

    def test_cap_applies(self):
        policy = SafeRegionPolicy(self.QUERIES, delta_cap=50.0)
        thresholds = policy.thresholds_for(np.array([[500.0, 500.0]]))
        assert thresholds[0] == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SafeRegionPolicy([])
        with pytest.raises(ValueError):
            SafeRegionPolicy(self.QUERIES, slack=0.0)
        with pytest.raises(ValueError):
            SafeRegionPolicy(self.QUERIES, delta_min=10.0, delta_cap=5.0)

    def test_safety_invariant_under_movement(self, rng):
        """A node moving less than its threshold cannot have entered or
        left any query: the defining property of safe regions."""
        policy = SafeRegionPolicy(self.QUERIES, delta_min=1.0, slack=0.5)
        positions = rng.uniform(0, 1000, size=(300, 2))
        thresholds = policy.thresholds_for(positions)
        # Random displacement strictly shorter than the threshold.
        angles = rng.uniform(0, 2 * np.pi, 300)
        steps = thresholds * 0.99
        moved = positions + np.column_stack(
            [steps * np.cos(angles), steps * np.sin(angles)]
        )

        def memberships(pts):
            return [
                set(q.evaluate(pts).tolist()) for q in self.QUERIES
            ]

        before, after = memberships(positions), memberships(moved)
        # Nodes outside all queries with threshold > delta_min must still
        # be outside after a sub-threshold move.
        for q_before, q_after in zip(before, after):
            entered = np.array(sorted(set(q_after) - set(q_before)))
            if entered.size:
                # Any entries must come from nodes at the minimum
                # threshold (inside-query accuracy class), never from
                # far nodes with relaxed thresholds.
                assert np.all(thresholds[entered] <= policy.delta_min + 1e-9)

    def test_cq_accurate_but_snapshot_poor(self, tiny_scenario):
        """The related-work trade-off: excellent CQ accuracy with few
        updates, but poor whole-population (snapshot) accuracy."""
        from repro.motion import DeadReckoningFleet
        from repro.index import NodeTable

        trace = tiny_scenario.trace
        policy = SafeRegionPolicy(
            tiny_scenario.queries, delta_min=tiny_scenario.delta_min
        )
        fleet = DeadReckoningFleet(trace.num_nodes)
        table = NodeTable(trace.num_nodes)
        for tick in range(trace.num_ticks):
            t = tick * trace.dt
            positions = trace.positions[tick]
            fleet.set_thresholds(policy.thresholds_for(positions))
            senders = fleet.observe(t, positions, trace.velocities[tick])
            table.ingest(t, senders, positions[senders], trace.velocities[tick][senders])
        t_final = (trace.num_ticks - 1) * trace.dt
        believed = table.predict(t_final)
        true = trace.positions[-1]
        errors = np.linalg.norm(believed - true, axis=1)
        thresholds = policy.thresholds_for(true)
        relaxed = thresholds > 2 * tiny_scenario.delta_min
        if relaxed.any() and (~relaxed).any():
            # Whole-population error is much worse for far (relaxed) nodes.
            assert errors[relaxed].mean() > errors[~relaxed].mean()
