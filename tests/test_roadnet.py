"""Unit tests for the road-network substrate (graph, generator, traffic)."""

import numpy as np
import pytest

from repro.geo import Point, Rect
from repro.roadnet import (
    Hotspot,
    RoadClass,
    RoadNetwork,
    TrafficVolumeModel,
    generate_hotspots,
    generate_road_network,
    make_default_scene,
)


class TestRoadClass:
    def test_expressways_are_fastest(self):
        assert (
            RoadClass.EXPRESSWAY.speed_limit
            > RoadClass.ARTERIAL.speed_limit
            > RoadClass.COLLECTOR.speed_limit
        )

    def test_expressways_attract_most_traffic(self):
        assert (
            RoadClass.EXPRESSWAY.traffic_weight
            > RoadClass.ARTERIAL.traffic_weight
            > RoadClass.COLLECTOR.traffic_weight
        )


class TestRoadNetworkGraph:
    def _simple_network(self) -> RoadNetwork:
        net = RoadNetwork(bounds=Rect(0.0, 0.0, 100.0, 100.0))
        a = net.add_node(Point(0.0, 0.0))
        b = net.add_node(Point(100.0, 0.0))
        c = net.add_node(Point(100.0, 100.0))
        net.add_segment(a, b, RoadClass.ARTERIAL)
        net.add_segment(b, c, RoadClass.COLLECTOR)
        return net

    def test_segment_length_is_euclidean(self):
        net = self._simple_network()
        assert net.segments[0].length == pytest.approx(100.0)

    def test_adjacency_is_symmetric(self):
        net = self._simple_network()
        assert 0 in net.adjacency[0]
        assert 0 in net.adjacency[1]
        assert 1 in net.adjacency[1]
        assert 1 in net.adjacency[2]

    def test_self_loops_rejected(self):
        net = self._simple_network()
        with pytest.raises(ValueError):
            net.add_segment(0, 0, RoadClass.COLLECTOR)

    def test_other_end(self):
        net = self._simple_network()
        seg = net.segments[0]
        assert seg.other_end(seg.a) == seg.b
        assert seg.other_end(seg.b) == seg.a
        with pytest.raises(ValueError):
            seg.other_end(99)

    def test_point_on_segment_interpolates(self):
        net = self._simple_network()
        mid = net.point_on_segment(0, 50.0)
        assert mid == Point(50.0, 0.0)

    def test_point_on_segment_clamps_offset(self):
        net = self._simple_network()
        assert net.point_on_segment(0, -10.0) == net.nodes[0]
        assert net.point_on_segment(0, 1e9) == net.nodes[1]

    def test_total_length(self):
        net = self._simple_network()
        assert sum(seg.length for seg in net.segments) == pytest.approx(200.0)

    def test_validate_passes_on_consistent_graph(self):
        self._simple_network().validate()

    def test_validate_catches_out_of_bounds_node(self):
        net = RoadNetwork(bounds=Rect(0.0, 0.0, 10.0, 10.0))
        net.add_node(Point(50.0, 0.0))
        with pytest.raises(ValueError, match="outside bounds"):
            net.validate()


class TestGenerator:
    def test_generated_network_validates(self, small_scene):
        network, _ = small_scene
        network.validate()  # should not raise

    def test_generation_is_deterministic(self):
        bounds = Rect(0.0, 0.0, 3000.0, 3000.0)
        a = generate_road_network(bounds, seed=9)
        b = generate_road_network(bounds, seed=9)
        assert a.nodes == b.nodes
        assert len(a.segments) == len(b.segments)

    def test_different_seeds_differ(self):
        bounds = Rect(0.0, 0.0, 3000.0, 3000.0)
        a = generate_road_network(bounds, seed=1)
        b = generate_road_network(bounds, seed=2)
        assert a.nodes != b.nodes

    def test_contains_all_three_road_classes(self, small_scene):
        network, _ = small_scene
        classes = {seg.road_class for seg in network.segments}
        assert classes == {RoadClass.EXPRESSWAY, RoadClass.ARTERIAL, RoadClass.COLLECTOR}

    def test_invalid_spacing_rejected(self):
        with pytest.raises(ValueError):
            generate_road_network(Rect(0, 0, 1000, 1000), collector_spacing=0.0)

    def test_default_scene_covers_200km2(self):
        network, _ = make_default_scene(side_meters=14_000.0, seed=2)
        area_km2 = network.bounds.area / 1e6
        assert area_km2 == pytest.approx(196.0)


class TestTrafficModel:
    def test_hotspot_boost_inside_and_outside(self):
        spot = Hotspot(center=Point(0.0, 0.0), radius=10.0, multiplier=5.0)
        assert spot.boost(Point(5.0, 0.0)) == 5.0
        assert spot.boost(Point(20.0, 0.0)) == 0.0

    def test_weights_scale_with_road_class(self, small_scene):
        network, _ = small_scene
        model = TrafficVolumeModel(network=network, hotspots=[])
        by_class: dict[RoadClass, list[float]] = {}
        for seg_id, seg in enumerate(network.segments):
            per_meter = model.segment_weight(seg_id) / seg.length
            by_class.setdefault(seg.road_class, []).append(per_meter)
        assert np.mean(by_class[RoadClass.EXPRESSWAY]) > np.mean(
            by_class[RoadClass.COLLECTOR]
        )

    def test_sampling_probabilities_sum_to_one(self, small_scene):
        network, traffic = small_scene
        probs = traffic.sampling_probabilities()
        assert probs.shape == (len(network.segments),)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_hotspot_raises_segment_weight(self, small_scene):
        network, _ = small_scene
        midpoint = network.segment_midpoint(0)
        no_spot = TrafficVolumeModel(network=network, hotspots=[])
        with_spot = TrafficVolumeModel(
            network=network,
            hotspots=[Hotspot(center=midpoint, radius=1.0, multiplier=3.0)],
        )
        assert with_spot.segment_weight(0) == pytest.approx(
            no_spot.segment_weight(0) * 4.0
        )

    def test_generate_hotspots_within_bounds(self):
        bounds = Rect(0.0, 0.0, 5000.0, 5000.0)
        for spot in generate_hotspots(bounds, seed=4, n_hotspots=5):
            assert bounds.contains_xy(spot.center.x, spot.center.y)

    def test_turn_weight_ignores_length(self, small_scene):
        network, traffic = small_scene
        # Two segments of the same class must have equal turn weights
        # regardless of length (absent hotspots).
        model = TrafficVolumeModel(network=network, hotspots=[])
        by_class: dict[RoadClass, set[float]] = {}
        for seg_id, seg in enumerate(network.segments):
            by_class.setdefault(seg.road_class, set()).add(model.turn_weight(seg_id))
        for weights in by_class.values():
            assert len(weights) == 1
