"""Tests for the trajectory archive and snapshot/historic queries."""

import numpy as np
import pytest

from repro.geo import Rect
from repro.history import (
    HistoricalRangeQuery,
    SnapshotQuery,
    TrajectoryStore,
    snapshot_position_error,
)


def record_one(store, t, node_id, x, y, vx=0.0, vy=0.0):
    store.record(
        t,
        np.array([node_id]),
        np.array([[x, y]], dtype=float),
        np.array([[vx, vy]], dtype=float),
    )


class TestTrajectoryStore:
    def test_reconstructs_active_model(self):
        store = TrajectoryStore(1)
        record_one(store, 0.0, 0, 0.0, 0.0, vx=1.0)
        record_one(store, 10.0, 0, 0.0, 0.0, vx=-1.0)
        # Before the second report, the first model extrapolates.
        assert store.believed_position(0, 5.0) == pytest.approx((5.0, 0.0))
        # After it, the new model takes over.
        assert store.believed_position(0, 15.0) == pytest.approx((-5.0, 0.0))

    def test_exactly_at_report_time_uses_new_model(self):
        store = TrajectoryStore(1)
        record_one(store, 0.0, 0, 0.0, 0.0, vx=1.0)
        record_one(store, 10.0, 0, 100.0, 100.0)
        assert store.believed_position(0, 10.0) == pytest.approx((100.0, 100.0))

    def test_before_first_report_is_none(self):
        store = TrajectoryStore(2)
        record_one(store, 5.0, 0, 1.0, 1.0)
        assert store.believed_position(0, 4.9) is None
        assert store.believed_position(1, 100.0) is None

    def test_snapshot_mixes_known_and_unknown(self):
        store = TrajectoryStore(3)
        record_one(store, 0.0, 1, 7.0, 8.0)
        snap = store.believed_snapshot(1.0)
        assert np.isnan(snap[0]).all()
        assert snap[1].tolist() == [7.0, 8.0]
        assert np.isnan(snap[2]).all()

    def test_out_of_order_reports_rejected(self):
        store = TrajectoryStore(1)
        record_one(store, 10.0, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            record_one(store, 5.0, 0, 1.0, 1.0)

    def test_counters(self):
        store = TrajectoryStore(2)
        record_one(store, 0.0, 0, 0.0, 0.0)
        record_one(store, 1.0, 0, 1.0, 1.0)
        record_one(store, 1.0, 1, 2.0, 2.0)
        assert store.total_reports == 3
        assert store.reports_for(0) == 2
        assert store.first_report_time(1) == 1.0
        assert store.first_report_time(0) == 0.0

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            TrajectoryStore(0)

    @pytest.mark.parametrize(
        "ids, shape",
        [
            ([-1, 2], (2, 2)),  # wraps past the time-order check
            ([1, 3], (2, 2)),
            ([0.5, 1.5], (2, 2)),
            ([1, 2], (2,)),
            ([1, 2], (1, 2)),
            ([1, 2], (2, 3)),
        ],
    )
    def test_bad_batch_rejected_before_anything_is_written(self, ids, shape):
        store = TrajectoryStore(3)
        record_one(store, 0.0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            store.record(1.0, ids, np.zeros(shape), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            store.record(1.0, ids, np.zeros((2, 2)), np.zeros(shape))
        assert store.total_reports == 1
        record_one(store, 2.0, 2, 5.0, 5.0)
        snap = store.believed_snapshot(3.0)
        assert snap[0].tolist() == [1.0, 1.0] and snap[2].tolist() == [5.0, 5.0]
        assert np.isnan(snap[1]).all()


class TestSnapshotQuery:
    def test_evaluates_against_past_belief(self):
        store = TrajectoryStore(2)
        record_one(store, 0.0, 0, 10.0, 10.0, vx=1.0)
        record_one(store, 0.0, 1, 90.0, 90.0)
        q = SnapshotQuery(Rect(0, 0, 50, 50), time=20.0)
        assert q.evaluate(store).tolist() == [0]  # believed at (30, 10)

    def test_unknown_nodes_excluded(self):
        store = TrajectoryStore(2)
        record_one(store, 10.0, 0, 5.0, 5.0)
        q = SnapshotQuery(Rect(0, 0, 50, 50), time=5.0)  # before any report
        assert q.evaluate(store).size == 0

    def test_truth_evaluation(self):
        q = SnapshotQuery(Rect(0, 0, 10, 10), time=0.0)
        truth = q.evaluate_truth(np.array([[5.0, 5.0], [50.0, 50.0]]))
        assert truth.tolist() == [0]


class TestHistoricalRangeQuery:
    def test_catches_node_passing_through(self):
        store = TrajectoryStore(1)
        # Node crosses the window [40, 60] around t=5 and leaves.
        record_one(store, 0.0, 0, 0.0, 50.0, vx=10.0)
        q = HistoricalRangeQuery(
            Rect(40.0, 40.0, 60.0, 60.0), t_start=0.0, t_end=10.0, n_samples=11
        )
        assert q.evaluate(store).tolist() == [0]
        # A snapshot at the end would miss it.
        end_snap = SnapshotQuery(Rect(40.0, 40.0, 60.0, 60.0), time=10.0)
        assert end_snap.evaluate(store).size == 0

    def test_node_never_inside_not_returned(self):
        store = TrajectoryStore(1)
        record_one(store, 0.0, 0, 0.0, 0.0, vy=1.0)
        q = HistoricalRangeQuery(Rect(50, 50, 60, 60), 0.0, 10.0)
        assert q.evaluate(store).size == 0

    def test_single_sample(self):
        q = HistoricalRangeQuery(Rect(0, 0, 1, 1), 5.0, 9.0, n_samples=1)
        assert q.sample_times().tolist() == [5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            HistoricalRangeQuery(Rect(0, 0, 1, 1), 10.0, 5.0)
        with pytest.raises(ValueError):
            HistoricalRangeQuery(Rect(0, 0, 1, 1), 0.0, 1.0, n_samples=0)

    def test_truth_from_trace(self, small_trace):
        rect = Rect(
            small_trace.bounds.x1,
            small_trace.bounds.y1,
            small_trace.bounds.x1 + small_trace.bounds.width / 2,
            small_trace.bounds.y2,
        )
        q = HistoricalRangeQuery(rect, 0.0, 50.0, n_samples=6)
        def tick_of(t):
            return min(int(t / small_trace.dt), small_trace.num_ticks - 1)

        truth = q.evaluate_truth(small_trace, tick_of)
        # Sanity: subset of the population, and matches a manual check.
        manual = set()
        for t in q.sample_times():
            pos = small_trace.positions[tick_of(float(t))]
            manual.update(np.flatnonzero(
                (pos[:, 0] >= rect.x1) & (pos[:, 0] < rect.x2)
                & (pos[:, 1] >= rect.y1) & (pos[:, 1] < rect.y2)
            ).tolist())
        assert set(truth.tolist()) == manual


class TestSnapshotErrorBound:
    def test_error_bounded_by_threshold_plus_fairness(self, small_trace):
        """The fairness guarantee, end to end: with every node dead-
        reckoning at delta <= D, the historical reconstruction error at
        any archived instant is <= D."""
        from repro.motion import DeadReckoningFleet

        delta = 25.0
        store = TrajectoryStore(small_trace.num_nodes)
        fleet = DeadReckoningFleet(small_trace.num_nodes)
        fleet.set_thresholds(delta)
        for tick in range(small_trace.num_ticks):
            t = tick * small_trace.dt
            senders = fleet.observe(
                t, small_trace.positions[tick], small_trace.velocities[tick]
            )
            store.record(
                t,
                senders,
                small_trace.positions[tick][senders],
                small_trace.velocities[tick][senders],
            )
        for tick in (3, small_trace.num_ticks // 2, small_trace.num_ticks - 1):
            t = tick * small_trace.dt
            err = snapshot_position_error(store, small_trace.positions[tick], t)
            assert err <= delta + 1e-9

    def test_all_unknown_is_nan(self):
        store = TrajectoryStore(2)
        assert np.isnan(snapshot_position_error(store, np.zeros((2, 2)), 0.0))
