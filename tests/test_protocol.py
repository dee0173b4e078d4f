"""Tests for the plan-dissemination protocol (stations <-> mobile nodes)."""

import pytest

from repro.core import AnalyticReduction, LiraConfig, LiraLoadShedder
from repro.server import BaseStationNetwork, place_uniform_stations
from repro.server.base_station import BYTES_PER_REGION

from tests.oracles.system import MobileNode


@pytest.fixture(scope="module")
def plan(request):
    small_grid = request.getfixturevalue("small_grid")
    shedder = LiraLoadShedder(
        LiraConfig(l=16, alpha=16, z=0.4), AnalyticReduction(5.0, 100.0)
    )
    return shedder.adapt(small_grid)


@pytest.fixture(scope="module")
def network(plan, request):
    small_grid = request.getfixturevalue("small_grid")
    stations = place_uniform_stations(small_grid.bounds, 1200.0)
    net = BaseStationNetwork(stations)
    net.install_plan(plan)
    return net


class TestBaseStationNetwork:
    def test_every_station_gets_a_subset(self, network):
        for station in network.stations:
            subset = network.subset_for_station(station.station_id)
            assert subset.version == network.version

    def test_subset_contains_only_coverage_regions(self, network, plan):
        for station in network.stations:
            subset = network.subset_for_station(station.station_id)
            for region in subset.regions:
                assert region.rect.intersects_circle(
                    station.center, station.radius
                )

    def test_broadcast_accounting(self, plan, small_grid):
        stations = place_uniform_stations(small_grid.bounds, 1200.0)
        net = BaseStationNetwork(stations)
        subsets = net.install_plan(plan)
        expected = sum(s.payload_bytes for s in subsets.values())
        assert net.total_broadcast_bytes == expected
        assert net.total_broadcasts == len(stations)
        assert all(
            s.payload_bytes == len(s.regions) * BYTES_PER_REGION
            for s in subsets.values()
        )

    def test_reinstall_bumps_version(self, plan, small_grid):
        stations = place_uniform_stations(small_grid.bounds, 1200.0)
        net = BaseStationNetwork(stations)
        net.install_plan(plan)
        v1 = net.version
        net.install_plan(plan)
        assert net.version == v1 + 1

    def test_station_for_prefers_covering(self, network):
        for station in network.stations:
            got = network.station_for(station.center.x, station.center.y)
            assert got.covers(station.center)

    def test_requires_stations(self):
        with pytest.raises(ValueError):
            BaseStationNetwork([])

    def test_subset_before_install_raises(self, plan, small_grid):
        stations = place_uniform_stations(small_grid.bounds, 1200.0)
        net = BaseStationNetwork(stations)
        with pytest.raises(KeyError):
            net.subset_for_station(0)


class TestMobileNode:
    def test_local_lookup_matches_plan(self, network, plan, rng):
        """The whole point of the protocol: a node's locally determined
        throttler equals the server-side plan's answer."""
        node = MobileNode(node_id=0)
        bounds = plan.bounds
        for _ in range(200):
            x = rng.uniform(bounds.x1, bounds.x2 - 1e-6)
            y = rng.uniform(bounds.y1, bounds.y2 - 1e-6)
            node.observe_position(x, y, network)
            local = node.current_threshold(x, y, default=5.0)
            assert local == plan.threshold_at(x, y)

    def test_handoff_counted_and_subset_swapped(self, network, plan):
        node = MobileNode(node_id=1)
        b = plan.bounds
        node.observe_position(b.x1 + 10, b.y1 + 10, network)
        first_station = node.station_id
        node.observe_position(b.x2 - 10, b.y2 - 10, network)
        assert node.station_id != first_station
        assert node.handoffs == 1
        assert node.subset_installs == 2

    def test_no_reinstall_within_same_station_and_version(self, network, plan):
        node = MobileNode(node_id=2)
        b = plan.bounds
        node.observe_position(b.x1 + 10, b.y1 + 10, network)
        installs = node.subset_installs
        node.observe_position(b.x1 + 12, b.y1 + 12, network)
        assert node.subset_installs == installs

    def test_new_plan_version_triggers_reinstall(self, plan, small_grid):
        stations = place_uniform_stations(small_grid.bounds, 1200.0)
        net = BaseStationNetwork(stations)
        net.install_plan(plan)
        node = MobileNode(node_id=3)
        b = plan.bounds
        node.observe_position(b.x1 + 10, b.y1 + 10, network=net)
        installs = node.subset_installs
        net.install_plan(plan)  # server re-adapts
        node.observe_position(b.x1 + 10, b.y1 + 10, network=net)
        assert node.subset_installs == installs + 1

    def test_default_threshold_without_subset(self):
        node = MobileNode(node_id=4)
        assert node.current_threshold(0.0, 0.0, default=7.5) == 7.5

    def test_stored_region_count_is_small(self, network, plan):
        """The paper's scalability claim: nodes know only their station's
        handful of regions, not the full plan."""
        node = MobileNode(node_id=5)
        b = plan.bounds
        node.observe_position(b.center.x, b.center.y, network)
        assert 0 < node.stored_region_count < plan.num_regions

    def test_trace_driven_handoffs(self, network, plan, small_trace):
        """Drive a real vehicle's trajectory through the protocol."""
        node = MobileNode(node_id=6)
        mismatches = 0
        for tick in range(small_trace.num_ticks):
            x, y = small_trace.positions[tick][0]
            node.observe_position(x, y, network)
            local = node.current_threshold(x, y, default=5.0)
            if local != plan.threshold_at(x, y):
                mismatches += 1
        assert mismatches == 0


class TestFaultTolerance:
    def test_offline_node_keeps_valid_stale_thresholds(self, network, plan):
        """A node that misses broadcasts (offline / lossy link) keeps its
        stale subset; its locally determined thresholds remain within the
        plan's domain, so tracking accuracy stays bounded by delta_max."""
        node = MobileNode(node_id=10)
        b = plan.bounds
        node.observe_position(b.center.x, b.center.y, network)
        stale_installs = node.subset_installs
        # Server re-adapts twice; this node hears nothing.
        network.install_plan(plan)
        network.install_plan(plan)
        # The node keeps answering from the stale subset.
        threshold = node.current_threshold(b.center.x, b.center.y, default=5.0)
        assert 5.0 <= threshold <= 100.0
        assert node.subset_installs == stale_installs
        # On the next observation it catches up to the latest version.
        node.observe_position(b.center.x, b.center.y, network)
        assert node.subset.version == network.version

    def test_node_outside_all_regions_falls_back_conservatively(self, network):
        """Outside every stored region (coverage-edge race) the node uses
        the conservative default (delta_min): never under-reports."""
        node = MobileNode(node_id=11)
        assert node.current_threshold(1e9, 1e9, default=5.0) == 5.0

    def _two_station_net(self, plan, lost_station_id):
        """Two adjacent stations; ``lost_station_id`` never hears a
        broadcast (its downlink loses every plan install)."""
        from repro.faults import DELIVER, LOST
        from repro.geo import Point
        from repro.server.base_station import BaseStation

        b = plan.bounds
        radius = b.width / 3.0
        stations = [
            BaseStation(0, Point(b.x1 + b.width * 0.25, b.center.y), radius),
            BaseStation(1, Point(b.x1 + b.width * 0.75, b.center.y), radius),
        ]

        class _LoseOne:
            def downlink_fate(self, station_id):
                if station_id == lost_station_id:
                    return LOST, 0.0
                return DELIVER, 0.0

        return BaseStationNetwork(stations, downlink=_LoseOne()), stations

    def test_crossing_into_broadcastless_station_uses_default_delta(
        self, plan
    ):
        """Satellite regression: a node handing off to a station whose
        plan broadcast was lost must fall back to the default Δ — not
        keep applying the *previous* station's region thresholds to
        coordinates they were never computed for."""
        net, stations = self._two_station_net(plan, lost_station_id=1)
        net.install_plan(plan, t=0.0)
        b = plan.bounds
        left = (stations[0].center.x, stations[0].center.y)
        right = (stations[1].center.x, stations[1].center.y)
        node = MobileNode(node_id=12)
        node.observe_position(*left, net)
        assert node.stored_region_count > 0
        old_threshold = node.current_threshold(*left, default=3.21)
        assert old_threshold != 3.21  # resolved from a real region
        # Cross the station boundary; station 1 never got a subset.
        node.observe_position(*right, net)
        assert node.handoffs == 1
        assert node.subset is None
        assert node.current_threshold(*right, default=3.21) == 3.21
        # The stale neighbor threshold must NOT leak across the boundary.
        assert node.current_threshold(*right, default=3.21) != old_threshold

    def test_node_recovers_when_broadcast_finally_lands(self, plan):
        """After the lossy station finally receives a plan, the node's
        next observation reinstalls and thresholds match the plan."""
        net, stations = self._two_station_net(plan, lost_station_id=1)
        net.install_plan(plan, t=0.0)
        right = (stations[1].center.x, stations[1].center.y)
        node = MobileNode(node_id=13)
        node.observe_position(*right, net)
        assert node.subset is None
        # Repair the downlink; the next install reaches station 1.
        net.downlink = None
        net.install_plan(plan, t=50.0)
        node.observe_position(*right, net)
        assert node.subset is not None
        assert node.subset.version == net.version
        assert node.current_threshold(
            *right, default=3.21
        ) == plan.threshold_at(*right)
