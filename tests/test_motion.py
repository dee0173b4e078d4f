"""Unit tests for dead reckoning (linear models, tracker, fleet).

The one-node tracker is :class:`ModelDrivenTracker` with its default
linear model: dead reckoning decision for decision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Point
from repro.motion import DeadReckoningFleet, LinearMotionModel
from repro.motion.dead_reckoning import DEVIATION_BLOCK
from repro.motion.models import ModelDrivenTracker


class TestLinearMotionModel:
    def test_predicts_linearly(self):
        model = LinearMotionModel(Point(0.0, 0.0), Point(2.0, -1.0), time=10.0)
        assert model.predict(15.0) == Point(10.0, -5.0)

    def test_prediction_at_report_time_is_position(self):
        model = LinearMotionModel(Point(3.0, 4.0), Point(1.0, 1.0), time=7.0)
        assert model.predict(7.0) == Point(3.0, 4.0)

    def test_deviation(self):
        model = LinearMotionModel(Point(0.0, 0.0), Point(1.0, 0.0), time=0.0)
        assert model.deviation(4.0, Point(4.0, 3.0)) == pytest.approx(3.0)


class TestDeadReckoningTracker:
    def test_first_observation_always_reports(self):
        tracker = ModelDrivenTracker(node_id=1)
        assert tracker.observe(0.0, Point(0, 0), Point(1, 0), threshold=100.0)
        assert tracker.node_id == 1 and tracker.reports_sent == 1

    def test_no_report_while_prediction_holds(self):
        tracker = ModelDrivenTracker(0)
        tracker.observe(0.0, Point(0, 0), Point(1, 0), threshold=5.0)
        # Moving exactly as predicted: no report.
        assert not tracker.observe(10.0, Point(10, 0), Point(1, 0), threshold=5.0)

    def test_report_when_deviation_exceeds_threshold(self):
        tracker = ModelDrivenTracker(0)
        tracker.observe(0.0, Point(0, 0), Point(1, 0), threshold=5.0)
        # Actual position deviates 6 m laterally from the prediction.
        assert tracker.observe(10.0, Point(10, 6), Point(1, 0), threshold=5.0)
        assert tracker.reports_sent == 2

    def test_deviation_exactly_at_threshold_does_not_report(self):
        tracker = ModelDrivenTracker(0)
        tracker.observe(0.0, Point(0, 0), Point(0, 0), threshold=5.0)
        assert not tracker.observe(1.0, Point(5.0, 0.0), Point(0, 0), threshold=5.0)

    def test_negative_threshold_rejected(self):
        tracker = ModelDrivenTracker(0)
        with pytest.raises(ValueError):
            tracker.observe(0.0, Point(0, 0), Point(0, 0), threshold=-1.0)

    def test_nan_threshold_rejected(self):
        """``deviation > NaN`` is false: after its first report the node
        would never report again."""
        tracker = ModelDrivenTracker(0)
        with pytest.raises(ValueError):
            tracker.observe(0.0, Point(0, 0), Point(0, 0), threshold=float("nan"))

    def test_infinite_threshold_accepted(self):
        """``inf`` parks a node: one report to install a model, then silence."""
        tracker = ModelDrivenTracker(0)
        assert tracker.observe(0.0, Point(0, 0), Point(0, 0), threshold=np.inf)
        assert not tracker.observe(1.0, Point(1e9, 0), Point(0, 0), threshold=np.inf)

    def test_larger_threshold_fewer_reports(self, rng):
        """Monotonicity of the update volume in delta — the premise of f."""
        t_ticks, dt = 60, 1.0
        # A wandering node: velocity jitters each tick.
        velocity = np.array([5.0, 0.0])
        position = np.array([0.0, 0.0])
        history = []
        for _ in range(t_ticks):
            velocity += rng.normal(0.0, 1.0, 2)
            position = position + velocity * dt
            history.append((position.copy(), velocity.copy()))
        counts = []
        for threshold in (1.0, 10.0, 50.0):
            tracker = ModelDrivenTracker(0)
            sent = 0
            for tick, (pos, vel) in enumerate(history):
                if tracker.observe(tick * dt, Point(*pos), Point(*vel), threshold):
                    sent += 1
            counts.append(sent)
        assert counts[0] >= counts[1] >= counts[2]


class TestDeadReckoningFleet:
    def test_all_nodes_report_initially(self):
        fleet = DeadReckoningFleet(5)
        fleet.set_thresholds(10.0)
        senders = fleet.observe(0.0, np.zeros((5, 2)), np.zeros((5, 2)))
        assert sorted(senders) == [0, 1, 2, 3, 4]

    def test_no_reports_when_static_within_threshold(self):
        fleet = DeadReckoningFleet(3)
        fleet.set_thresholds(10.0)
        pos = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        fleet.observe(0.0, pos, np.zeros((3, 2)))
        senders = fleet.observe(5.0, pos + 0.5, np.zeros((3, 2)))
        assert senders.size == 0

    def test_only_deviating_nodes_report(self):
        fleet = DeadReckoningFleet(3)
        fleet.set_thresholds(np.array([1.0, 1.0, 100.0]))
        pos = np.zeros((3, 2))
        fleet.observe(0.0, pos, np.zeros((3, 2)))
        moved = pos.copy()
        moved[:, 0] = 5.0  # everyone moves 5 m
        senders = fleet.observe(1.0, moved, np.zeros((3, 2)))
        assert sorted(senders) == [0, 1]  # node 2's threshold absorbs it

    def test_matches_scalar_tracker(self, rng):
        """Fleet and per-node tracker must implement the same protocol."""
        n, ticks = 4, 30
        thresholds = np.array([2.0, 5.0, 10.0, 20.0])
        positions = np.cumsum(rng.normal(0, 3.0, (ticks, n, 2)), axis=0)
        velocities = rng.normal(0, 1.0, (ticks, n, 2))
        fleet = DeadReckoningFleet(n)
        fleet.set_thresholds(thresholds)
        trackers = [ModelDrivenTracker(i) for i in range(n)]
        for tick in range(ticks):
            t = tick * 1.0
            fleet_senders = set(map(int, fleet.observe(t, positions[tick], velocities[tick])))
            tracker_senders = set()
            for i, tracker in enumerate(trackers):
                if tracker.observe(
                    t,
                    Point(*positions[tick, i]),
                    Point(*velocities[tick, i]),
                    thresholds[i],
                ):
                    tracker_senders.add(i)
            assert fleet_senders == tracker_senders

    def test_report_counting(self):
        fleet = DeadReckoningFleet(2)
        fleet.set_thresholds(1.0)
        fleet.observe(0.0, np.zeros((2, 2)), np.zeros((2, 2)))
        fleet.observe(1.0, np.full((2, 2), 50.0), np.zeros((2, 2)))
        assert fleet.total_reports == 4

    def test_rejects_negative_thresholds(self):
        fleet = DeadReckoningFleet(2)
        with pytest.raises(ValueError):
            fleet.set_thresholds(np.array([1.0, -2.0]))

    @pytest.mark.parametrize(
        "thresholds",
        [float("nan"), np.full(3, np.nan), np.array([1.0, np.nan, np.inf])],
        ids=["scalar", "array", "one-element"],
    )
    def test_rejects_nan_thresholds(self, thresholds):
        """``deviation > NaN`` is false: the row would never report again."""
        fleet = DeadReckoningFleet(3)
        fleet.set_thresholds(2.0)
        with pytest.raises(ValueError):
            fleet.set_thresholds(thresholds)
        assert fleet.thresholds.tolist() == [2.0, 2.0, 2.0]

    def test_infinite_thresholds_accepted(self):
        """``inf`` is how the systems loop parks inactive nodes."""
        fleet = DeadReckoningFleet(2)
        fleet.set_thresholds(np.array([np.inf, 1.0]))
        fleet.observe(0.0, np.zeros((2, 2)), np.zeros((2, 2)))
        senders = fleet.observe(1.0, np.full((2, 2), 1e9), np.zeros((2, 2)))
        assert senders.tolist() == [1]

    def test_rejects_bad_shapes(self):
        fleet = DeadReckoningFleet(2)
        with pytest.raises(ValueError):
            fleet.observe(0.0, np.zeros((3, 2)), np.zeros((3, 2)))

    def test_node_models_snapshot(self):
        fleet = DeadReckoningFleet(2)
        fleet.set_thresholds(1.0)
        pos = np.array([[1.0, 2.0], [3.0, 4.0]])
        vel = np.array([[0.1, 0.2], [0.3, 0.4]])
        fleet.observe(7.0, pos, vel)
        sent_pos, sent_vel, sent_time = fleet.node_models()
        np.testing.assert_array_equal(sent_pos, pos)
        np.testing.assert_array_equal(sent_vel, vel)
        np.testing.assert_array_equal(sent_time, [7.0, 7.0])


# ----------------------------------------------------------------------
# The in-place deviation kernel vs the broadcast + norm form it replaced
# ----------------------------------------------------------------------

_coordinate = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, 5e-324]),
)


def _reference_deviation(fleet, t, positions):
    sent_pos, sent_vel, sent_time = fleet.node_models()
    predicted = sent_pos + sent_vel * (t - sent_time)[:, None]
    return np.linalg.norm(predicted - positions, axis=1)


class TestDeviationKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        odd=st.lists(st.tuples(st.integers(0, 99), _coordinate, _coordinate), max_size=6),
        parked=st.lists(st.integers(0, 99), max_size=4),
    )
    def test_observe_matches_the_broadcast_form(self, n, seed, odd, parked):
        """Same deviations bit for bit (NaN where NaN) and the same senders,
        over fleets with ``inf`` thresholds, rows without a model (the
        first tick), no rows at all, and non-finite or huge coordinates."""
        rng = np.random.default_rng(seed)
        fleet = DeadReckoningFleet(n)
        has_model = np.zeros(n, dtype=bool)
        with np.errstate(all="ignore"):
            for tick in range(4):
                size = fleet.n_nodes
                thresholds = rng.choice([0.0, 0.5, 3.0, 40.0], size)
                thresholds[[k % size for k in parked if size]] = np.inf
                fleet.set_thresholds(thresholds)
                positions = np.cumsum(rng.normal(0.0, 4.0, (size, 2)), axis=0)
                velocities = rng.normal(0.0, 2.0, (size, 2))
                for row, px, vx in odd:
                    if size and row % 4 == tick:
                        positions[row % size, row % 2] = px
                        velocities[row % size, (row + 1) % 2] = vx
                t = 1.5 * tick + float(rng.uniform(0.0, 1.0))
                want = _reference_deviation(fleet, t, positions)
                got = fleet.deviation(t, positions)
                assert got.shape == (size,)
                assert np.array_equal(got, want, equal_nan=True)
                expected = np.flatnonzero(~has_model | (want > fleet.thresholds))
                assert np.array_equal(fleet.observe(t, positions, velocities), expected)
                has_model[expected] = True

    @pytest.mark.parametrize(
        "n",
        [0, 1, DEVIATION_BLOCK - 1, DEVIATION_BLOCK, DEVIATION_BLOCK + 1, 2 * DEVIATION_BLOCK + 3],
    )
    def test_blocks_match_the_broadcast_form(self, n):
        """Fleets around the block size: the same bits as the unblocked
        form and the same senders, with the odd coordinates on the rows
        either side of every block edge, and ``deviation`` changes no
        state of the fleet."""
        rng = np.random.default_rng(n)
        fleet = DeadReckoningFleet(n)
        has_model = np.zeros(n, dtype=bool)
        odd = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, 5e-324])
        edges = np.append(np.arange(0, n, DEVIATION_BLOCK), n)[:, None] + [-1, 0, 1]
        rows = edges[(edges >= 0) & (edges < n)]
        with np.errstate(all="ignore"):
            for tick in range(4):
                fleet.set_thresholds(rng.choice([0.0, 0.5, 3.0, 40.0, np.inf], n))
                positions = rng.normal(0.0, 4.0, (n, 2)) + 1e3 * tick
                velocities = rng.normal(0.0, 2.0, (n, 2))
                positions[rows, tick % 2] = rng.choice(odd, rows.size)
                velocities[rows, (tick + 1) % 2] = rng.choice(odd, rows.size)
                t = 1.5 * tick + float(rng.uniform(0.0, 1.0))
                want = _reference_deviation(fleet, t, positions)
                state = (*fleet.node_models(), fleet.thresholds.copy(), fleet.total_reports)
                got = fleet.deviation(t, positions)
                assert np.array_equal(got, want, equal_nan=True)
                after = (*fleet.node_models(), fleet.thresholds, fleet.total_reports)
                for before, now in zip(state, after):
                    assert np.array_equal(before, now, equal_nan=True)
                expected = np.flatnonzero(~has_model | (want > fleet.thresholds))
                assert np.array_equal(fleet.observe(t, positions, velocities), expected)
                has_model[expected] = True

    def test_observe_takes_the_callers_deviation(self):
        """A deviation handed to ``observe`` is the one the sender test
        reads; a wrongly shaped one is refused before any state moves."""
        fleet = DeadReckoningFleet(3)
        positions = np.zeros((3, 2))
        velocities = np.ones((3, 2))
        fleet.observe(0.0, positions, velocities)
        fleet.set_thresholds(1.0)
        moved = positions + 5.0
        with pytest.raises(ValueError):
            fleet.observe(1.0, moved, velocities, deviation=np.zeros(2))
        assert fleet.total_reports == 3
        senders = fleet.observe(1.0, moved, velocities, deviation=np.array([0.0, 2.0, 1.0]))
        assert senders.tolist() == [1]
