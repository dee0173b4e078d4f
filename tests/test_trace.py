"""Unit tests for the trace substrate (vehicle, generator, container)."""

import numpy as np
import pytest

from repro.geo import Point, Rect
from repro.roadnet import RoadClass, RoadNetwork, TrafficVolumeModel
from repro.trace import TRACE_FORMAT_VERSION, Trace, TraceGenerator

from tests.oracles.vehicles import Vehicle


class TestVehicle:
    def test_position_lies_on_network(self, small_scene, rng):
        network, traffic = small_scene
        vehicle = Vehicle(seg_id=0, origin_node=network.segments[0].a,
                          offset=10.0, speed_factor=0.8)
        p = vehicle.position(network)
        assert network.bounds.x1 <= p.x <= network.bounds.x2
        assert network.bounds.y1 <= p.y <= network.bounds.y2

    def test_step_advances_offset(self, small_scene, rng):
        network, traffic = small_scene
        vehicle = Vehicle(seg_id=0, origin_node=network.segments[0].a,
                          offset=0.0, speed_factor=0.8)
        vehicle.step(network, traffic, dt=1.0, rng=rng)
        assert vehicle.offset > 0.0 or vehicle.seg_id != 0  # moved or turned

    def test_step_turns_at_intersection(self, small_scene, rng):
        network, traffic = small_scene
        seg = network.segments[0]
        vehicle = Vehicle(seg_id=0, origin_node=seg.a,
                          offset=seg.length - 0.1, speed_factor=1.0)
        vehicle.step(network, traffic, dt=5.0, rng=rng)
        # After crossing the intersection the origin must be the far end.
        assert vehicle.origin_node == seg.b or vehicle.origin_node == seg.a

    def test_heading_is_unit_vector(self, small_scene):
        network, _ = small_scene
        vehicle = Vehicle(seg_id=0, origin_node=network.segments[0].a,
                          offset=1.0, speed_factor=1.0)
        h = vehicle.heading(network)
        assert h.norm() == pytest.approx(1.0)

    def test_speed_respects_class_limit(self, small_scene, rng):
        network, traffic = small_scene
        vehicle = Vehicle(seg_id=0, origin_node=network.segments[0].a,
                          offset=0.0, speed_factor=1.0)
        vehicle.step(network, traffic, dt=0.5, rng=rng)
        limit = network.segments[vehicle.seg_id].road_class.speed_limit
        assert vehicle.speed <= limit * 1.05 + 1e-9

    def test_step_terminates_on_zero_length_dead_end(self, rng):
        # Regression: a zero-length segment leaves distance_left == 0, so
        # without the turn cap the `while remaining > 0` loop spins
        # forever (crossing consumes no time and the dead end U-turns
        # back onto the same segment).
        net = RoadNetwork(bounds=Rect(0.0, 0.0, 1000.0, 1000.0))
        a = net.add_node(Point(100.0, 100.0))
        b = net.add_node(Point(100.0, 100.0))  # same position: length 0
        net.add_segment(a, b, RoadClass.COLLECTOR)
        traffic = TrafficVolumeModel(network=net)
        vehicle = Vehicle(seg_id=0, origin_node=a, offset=0.0, speed_factor=1.0)
        vehicle.step(net, traffic, dt=10.0, rng=rng)  # must return
        assert vehicle.seg_id == 0
        assert vehicle.offset == 0.0


class TestTraceGenerator:
    def test_shapes(self, small_trace):
        t, n = small_trace.num_ticks, small_trace.num_nodes
        assert small_trace.positions.shape == (t, n, 2)
        assert small_trace.velocities.shape == (t, n, 2)

    def test_positions_within_bounds(self, small_trace):
        b = small_trace.bounds
        xs = small_trace.positions[:, :, 0]
        ys = small_trace.positions[:, :, 1]
        assert (xs >= b.x1).all() and (xs <= b.x2).all()
        assert (ys >= b.y1).all() and (ys <= b.y2).all()

    def test_deterministic_given_seed(self, small_scene):
        network, traffic = small_scene
        a = TraceGenerator(network, traffic, n_vehicles=50, seed=5).generate(100.0, 10.0)
        b = TraceGenerator(network, traffic, n_vehicles=50, seed=5).generate(100.0, 10.0)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_vehicles_actually_move(self, small_trace):
        displacement = np.linalg.norm(
            small_trace.positions[-1] - small_trace.positions[0], axis=1
        )
        assert displacement.mean() > 10.0

    def test_movement_consistent_with_speed(self, small_trace):
        # Per-tick displacement must not exceed max speed * dt (plus slack
        # for the within-tick speed jitter).
        deltas = np.linalg.norm(np.diff(small_trace.positions, axis=0), axis=2)
        max_speed = 30.0 * 1.05  # expressway limit with jitter
        assert deltas.max() <= max_speed * small_trace.dt + 1e-6

    def test_density_is_skewed_toward_busy_roads(self, small_scene):
        # The coefficient of variation of per-cell counts must exceed that
        # of a uniform scatter: traffic weighting concentrates vehicles.
        network, traffic = small_scene
        trace = TraceGenerator(network, traffic, n_vehicles=400, seed=8).generate(
            100.0, 10.0
        )
        counts, _, _ = np.histogram2d(
            trace.positions[0][:, 0], trace.positions[0][:, 1], bins=8
        )
        cv = counts.std() / counts.mean()
        assert cv > 0.5

    def test_rejects_nonpositive_vehicle_count(self, small_scene):
        network, traffic = small_scene
        with pytest.raises(ValueError):
            TraceGenerator(network, traffic, n_vehicles=0)

    def test_rejects_nonpositive_duration(self, small_scene):
        network, traffic = small_scene
        gen = TraceGenerator(network, traffic, n_vehicles=5)
        with pytest.raises(ValueError):
            gen.generate(duration=0.0)


class TestTraceContainer:
    def test_rejects_bad_shapes(self):
        bounds = Rect(0, 0, 10, 10)
        with pytest.raises(ValueError):
            Trace(bounds, 1.0, np.zeros((5, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError):
            Trace(bounds, 1.0, np.zeros((5, 3, 2)), np.zeros((4, 3, 2)))
        with pytest.raises(ValueError):
            Trace(bounds, 0.0, np.zeros((5, 3, 2)), np.zeros((5, 3, 2)))

    def test_snapshot_and_speeds(self, small_trace):
        snap = small_trace.snapshot(0)
        assert snap.shape == (small_trace.num_nodes, 2)
        speeds = small_trace.speeds(0)
        assert speeds.shape == (small_trace.num_nodes,)
        assert (speeds >= 0).all()

    def test_duration(self, small_trace):
        assert small_trace.duration == pytest.approx(
            small_trace.num_ticks * small_trace.dt
        )

    def test_mean_speed_positive(self, small_trace):
        assert small_trace.mean_speed() > 0.0

    def test_save_load_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        small_trace.save(path)
        loaded = Trace.load(path)
        np.testing.assert_array_equal(loaded.positions, small_trace.positions)
        np.testing.assert_array_equal(loaded.velocities, small_trace.velocities)
        assert loaded.dt == small_trace.dt
        assert loaded.bounds == small_trace.bounds

    def test_save_stamps_format_version(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        small_trace.save(path)
        with np.load(path) as data:
            assert int(data["version"][0]) == TRACE_FORMAT_VERSION

    def test_load_accepts_legacy_unversioned_files(self, small_trace, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            positions=small_trace.positions,
            velocities=small_trace.velocities,
            dt=np.array([small_trace.dt]),
            bounds=np.array([
                small_trace.bounds.x1, small_trace.bounds.y1,
                small_trace.bounds.x2, small_trace.bounds.y2,
            ]),
        )
        loaded = Trace.load(path)
        np.testing.assert_array_equal(loaded.positions, small_trace.positions)

    def test_load_rejects_future_version(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        small_trace.save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["version"] = np.array([TRACE_FORMAT_VERSION + 1], dtype=np.int64)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="format version"):
            Trace.load(path)

    def test_load_rejects_missing_fields(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        np.savez_compressed(path, positions=small_trace.positions)
        with pytest.raises(ValueError, match="missing fields"):
            Trace.load(path)

    def test_load_rejects_out_of_bounds_positions(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        bad = Trace(
            bounds=Rect(0.0, 0.0, 1.0, 1.0),  # far smaller than the data
            dt=small_trace.dt,
            positions=small_trace.positions,
            velocities=small_trace.velocities,
        )
        bad.save(path)
        with pytest.raises(ValueError, match="outside its bounds"):
            Trace.load(path)

    def test_load_rejects_non_finite_samples(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        positions = small_trace.positions.copy()
        positions[0, 0, 0] = np.nan
        Trace(
            bounds=small_trace.bounds,
            dt=small_trace.dt,
            positions=positions,
            velocities=small_trace.velocities,
        ).save(path)
        with pytest.raises(ValueError, match="non-finite"):
            Trace.load(path)
