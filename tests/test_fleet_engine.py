"""Tests for the vectorized fleet trace engine.

The fleet engine must be bit-reproducible for a fixed seed and
statistically equivalent to the object-based reference path: same
seeding distribution, same speed law, same traffic-weighted turn
distribution, and the same dead-reckoning report rates the reduction
measurement depends on.
"""

import numpy as np
import pytest

from repro.geo import Point, Rect
from repro.motion import DeadReckoningFleet
from repro.roadnet import RoadClass, RoadNetwork, TrafficVolumeModel
from repro.trace import FleetEngine, TraceGenerator
from repro.trace.fleet import MAX_TURNS_PER_TICK

from tests.oracles.vehicles import generate_reference_trace


@pytest.fixture(scope="module")
def engine_traces(small_scene):
    """Object and fleet traces of the same population on the same scene."""
    network, traffic = small_scene

    run = dict(duration=300.0, dt=10.0, warmup=50.0)
    fleet = TraceGenerator(network, traffic, n_vehicles=300, seed=3).generate(**run)
    return generate_reference_trace(network, traffic, 300, seed=3, **run), fleet


def star_network() -> tuple[RoadNetwork, TrafficVolumeModel]:
    """A hub with four spokes of mixed road classes (no hotspots)."""
    net = RoadNetwork(bounds=Rect(0.0, 0.0, 2000.0, 2000.0))
    center = net.add_node(Point(1000.0, 1000.0))
    for p in (
        Point(1000.0, 1900.0),
        Point(1900.0, 1000.0),
        Point(1000.0, 100.0),
        Point(100.0, 1000.0),
    ):
        net.add_segment(center, net.add_node(p), RoadClass.COLLECTOR)
    # Promote two spokes so turn weights differ: expressway 10, arterial 4.
    segs = net.segments
    net.segments = [
        RoadSegment_replace(segs[0], RoadClass.EXPRESSWAY),
        RoadSegment_replace(segs[1], RoadClass.ARTERIAL),
        segs[2],
        segs[3],
    ]
    return net, TrafficVolumeModel(network=net)


def RoadSegment_replace(seg, road_class):
    from repro.roadnet.graph import RoadSegment

    return RoadSegment(seg.a, seg.b, road_class, seg.length)


class TestDeterminism:
    def test_bit_reproducible_across_runs(self, small_scene):
        network, traffic = small_scene
        a = TraceGenerator(network, traffic, 120, seed=11).generate(
            150.0, 10.0, warmup=20.0
        )
        b = TraceGenerator(network, traffic, 120, seed=11).generate(
            150.0, 10.0, warmup=20.0
        )
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)

    def test_seeds_differ(self, small_scene):
        network, traffic = small_scene
        a = TraceGenerator(network, traffic, 120, seed=11).generate(
            150.0, 10.0
        )
        b = TraceGenerator(network, traffic, 120, seed=12).generate(
            150.0, 10.0
        )
        assert not np.array_equal(a.positions, b.positions)

    def test_unknown_engine_rejected(self, small_scene):
        """There is one trace engine: the switch is not an argument any more."""
        network, traffic = small_scene
        with pytest.raises(TypeError, match="engine"):
            TraceGenerator(network, traffic, 10, engine="gpu")


class TestTraceValidity:
    def test_positions_within_bounds(self, engine_traces):
        _, fleet = engine_traces
        b = fleet.bounds
        xs, ys = fleet.positions[:, :, 0], fleet.positions[:, :, 1]
        assert (xs >= b.x1).all() and (xs <= b.x2).all()
        assert (ys >= b.y1).all() and (ys <= b.y2).all()

    def test_per_tick_displacement_bounded_by_speed(self, engine_traces):
        _, fleet = engine_traces
        deltas = np.linalg.norm(np.diff(fleet.positions, axis=0), axis=2)
        assert deltas.max() <= 30.0 * 1.05 * fleet.dt + 1e-6

    def test_vehicles_move(self, engine_traces):
        _, fleet = engine_traces
        displacement = np.linalg.norm(
            fleet.positions[-1] - fleet.positions[0], axis=1
        )
        assert displacement.mean() > 10.0


class TestStatisticalEquivalence:
    def test_mean_speed_matches_object_path(self, engine_traces):
        obj, fleet = engine_traces
        assert fleet.mean_speed() == pytest.approx(obj.mean_speed(), rel=0.05)

    def test_speed_distribution_matches(self, engine_traces):
        obj, fleet = engine_traces
        so = np.linalg.norm(obj.velocities, axis=2).ravel()
        sf = np.linalg.norm(fleet.velocities, axis=2).ravel()
        for q in (0.25, 0.5, 0.75):
            assert np.quantile(sf, q) == pytest.approx(
                np.quantile(so, q), rel=0.15, abs=0.5
            )

    def test_density_skew_matches(self, engine_traces):
        obj, fleet = engine_traces
        extent = [[obj.bounds.x1, obj.bounds.x2], [obj.bounds.y1, obj.bounds.y2]]
        co, _, _ = np.histogram2d(
            obj.positions[-1][:, 0], obj.positions[-1][:, 1], bins=8, range=extent
        )
        cf, _, _ = np.histogram2d(
            fleet.positions[-1][:, 0], fleet.positions[-1][:, 1], bins=8, range=extent
        )
        cv_obj = co.std() / co.mean()
        cv_fleet = cf.std() / cf.mean()
        assert cv_fleet > 0.5  # skewed, like the object path
        assert cv_fleet == pytest.approx(cv_obj, rel=0.35)
        # Both engines concentrate density in the same (hotspot/expressway)
        # cells.
        assert np.corrcoef(co.ravel(), cf.ravel())[0, 1] > 0.5

    def test_dead_reckoning_report_rates_match(self, engine_traces):
        obj, fleet = engine_traces

        def rate(trace, delta):
            dr = DeadReckoningFleet(trace.num_nodes)
            dr.set_thresholds(delta)
            for tick in range(trace.num_ticks):
                dr.observe(
                    tick * trace.dt, trace.positions[tick], trace.velocities[tick]
                )
            return (dr.total_reports - trace.num_nodes) / (
                trace.num_ticks * trace.num_nodes
            )

        for delta in (5.0, 25.0, 100.0):
            assert rate(fleet, delta) == pytest.approx(rate(obj, delta), rel=0.15)


class TestBatchedTurn:
    def test_turn_frequencies_match_weights(self):
        network, traffic = star_network()
        rng = np.random.default_rng(0)
        engine = FleetEngine(network, traffic, n_vehicles=1, rng=rng)
        m = 30_000
        # All vehicles arrive at the hub via the collector spoke (seg 2).
        arrived = np.zeros(m, dtype=np.int64)
        cur_seg = np.full(m, 2, dtype=np.int64)
        chosen = engine._batched_turn(arrived, cur_seg, rng)
        # Options are segs 0 (w=10), 1 (w=4), 3 (w=1); never the arrival seg.
        assert not np.any(chosen == 2)
        freq = np.bincount(chosen, minlength=4) / m
        total = 10.0 + 4.0 + 1.0
        assert freq[0] == pytest.approx(10.0 / total, abs=0.02)
        assert freq[1] == pytest.approx(4.0 / total, abs=0.02)
        assert freq[3] == pytest.approx(1.0 / total, abs=0.02)

    def test_dead_end_u_turns(self):
        network, traffic = star_network()
        rng = np.random.default_rng(0)
        engine = FleetEngine(network, traffic, n_vehicles=1, rng=rng)
        # Spoke tips (nodes 1..4) are dead ends: arrival segment is the
        # only incident one.
        arrived = np.array([1, 2, 3, 4], dtype=np.int64)
        cur_seg = np.array([0, 1, 2, 3], dtype=np.int64)
        chosen = engine._batched_turn(arrived, cur_seg, rng)
        np.testing.assert_array_equal(chosen, cur_seg)


class TestDegenerateSegments:
    def _network_with_zero_length_segment(self):
        # Segment 0 is a zero-length dead-end pair: a vehicle on it turns
        # forever without consuming time.  Segment 1 exists only so the
        # traffic model has positive sampling probabilities.
        net = RoadNetwork(bounds=Rect(0.0, 0.0, 1000.0, 1000.0))
        a = net.add_node(Point(100.0, 100.0))
        b = net.add_node(Point(100.0, 100.0))  # same position: length 0
        c = net.add_node(Point(500.0, 100.0))
        d = net.add_node(Point(900.0, 100.0))
        net.add_segment(a, b, RoadClass.COLLECTOR)
        net.add_segment(c, d, RoadClass.COLLECTOR)
        return net, TrafficVolumeModel(network=net)

    def test_fleet_step_terminates_on_zero_length_cycle(self):
        network, traffic = self._network_with_zero_length_segment()
        rng = np.random.default_rng(5)
        engine = FleetEngine(network, traffic, n_vehicles=4, rng=rng)
        # Force every vehicle onto the zero-length dead-end segment.
        engine.seg_id[:] = 0
        engine.origin_node[:] = 0
        engine.offset[:] = 0.0
        engine.step(10.0, rng)  # must return, not spin
        pos = np.empty((4, 2))
        vel = np.empty((4, 2))
        engine.record(pos, vel)
        assert np.isfinite(pos).all() and np.isfinite(vel).all()

    def test_turn_cap_is_generous_for_real_networks(self, small_scene):
        # Sanity: on a real scene the cap must never be the thing that
        # stops a tick (10 s at <= 31.5 m/s crosses only a few nodes).
        assert MAX_TURNS_PER_TICK >= 16
