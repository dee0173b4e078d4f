"""Unit tests for the server substrate (queue, base stations, CQ server)."""

import numpy as np
import pytest

from repro.core import LiraConfig, LiraLoadShedder
from repro.geo import Point, Rect
from repro.queries import RangeQuery
from repro.server import (
    BYTES_PER_REGION,
    UDP_PAYLOAD_BYTES,
    ArrayBoundedQueue,
    BaseStation,
    MobileCQServer,
    mean_regions_per_station,
    place_density_dependent_stations,
    place_uniform_stations,
)

from tests.oracles.system import BoundedQueue


class TestBoundedQueue:
    def test_fifo_order(self):
        q = BoundedQueue(5)
        for i in range(3):
            q.offer(i)
        assert q.poll() == 0
        assert q.poll() == 1

    def test_drops_when_full(self):
        q = BoundedQueue(2)
        assert q.offer("a") and q.offer("b")
        assert not q.offer("c")
        assert q.total_dropped == 1
        assert len(q) == 2

    def test_poll_empty_returns_none(self):
        assert BoundedQueue(1).poll() is None

    def test_poll_batch(self):
        q = BoundedQueue(10)
        for i in range(6):
            q.offer(i)
        assert q.poll_batch(4) == [0, 1, 2, 3]
        assert len(q) == 2
        assert q.poll_batch(10) == [4, 5]

    def test_drop_rate(self):
        q = BoundedQueue(1)
        q.offer(1)
        q.offer(2)
        q.offer(3)
        assert q.drop_rate() == pytest.approx(2 / 3)

    def test_drop_rate_with_no_arrivals(self):
        assert BoundedQueue(1).drop_rate() == 0.0

    def test_reset_counters_keeps_items(self):
        q = BoundedQueue(3)
        q.offer(1)
        q.reset_counters()
        assert q.total_enqueued == 0
        assert len(q) == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)
        with pytest.raises(ValueError):
            BoundedQueue(5).poll_batch(-1)

    def test_lifetime_counters_survive_reset(self):
        q = BoundedQueue(1)
        q.offer(1)
        q.offer(2)  # dropped
        q.poll()
        q.reset_counters()
        assert q.total_enqueued == q.total_dropped == 0
        assert q.lifetime_enqueued == 1
        assert q.lifetime_dropped == 1
        assert q.lifetime_dequeued == 1
        q.offer(3)
        q.offer(4)  # dropped
        assert q.lifetime_dropped == 2

    def test_drop_rate_survives_counter_reset(self):
        """Regression: drop_rate() documents "fraction of all arrivals
        dropped so far" but used to read the resettable counters, so any
        reset_counters() silently turned it into a per-period rate."""
        q = BoundedQueue(1)
        q.offer(1)
        q.offer(2)  # dropped: 1 of 2 arrivals
        assert q.drop_rate() == pytest.approx(0.5)
        q.reset_counters()
        assert q.drop_rate() == pytest.approx(0.5)  # still 1 of 2, not 0/0
        q.poll()
        q.offer(3)
        assert q.drop_rate() == pytest.approx(1 / 3)
        assert q.period_drop_rate() == 0.0  # the per-period view

    def test_array_queue_drop_rate_survives_counter_reset(self):
        """The SoA queue's drop_rate() reads its monotonic counts: all
        arrivals by default, or those since a ``(lifetime_enqueued,
        lifetime_dropped)`` mark — a period never resets the counts."""
        q = ArrayBoundedQueue(1)
        q.offer_arrays(
            np.zeros(2), np.arange(2), np.zeros((2, 2)), np.zeros((2, 2))
        )  # 1 fits, 1 drops
        assert q.drop_rate() == pytest.approx(0.5)
        mark = (q.lifetime_enqueued, q.lifetime_dropped)
        assert q.drop_rate(mark) == 0.0  # nothing arrived since the mark
        q.poll_arrays(1)
        q.offer_arrays(
            np.zeros(1), np.arange(1), np.zeros((1, 2)), np.zeros((1, 2))
        )
        assert q.drop_rate() == pytest.approx(1 / 3)
        assert q.drop_rate(mark) == 0.0


class TestBaseStations:
    def _plan(self, small_grid, reduction):
        config = LiraConfig(l=16, alpha=16, z=0.5)
        shedder = LiraLoadShedder(config, reduction)
        return shedder.adapt(small_grid)

    def test_covers(self):
        station = BaseStation(0, Point(0.0, 0.0), 100.0)
        assert station.covers(Point(50.0, 50.0))
        assert not station.covers(Point(100.0, 100.0))

    def test_uniform_placement_covers_bounds(self):
        bounds = Rect(0.0, 0.0, 5000.0, 5000.0)
        stations = place_uniform_stations(bounds, 1000.0)
        # Every corner and the center must be covered by some station.
        for p in [Point(0, 0), Point(5000, 0), Point(2500, 2500), Point(0, 5000)]:
            assert any(s.covers(p) for s in stations)

    def test_uniform_placement_smaller_radius_more_stations(self):
        bounds = Rect(0.0, 0.0, 5000.0, 5000.0)
        small = place_uniform_stations(bounds, 500.0)
        large = place_uniform_stations(bounds, 2000.0)
        assert len(small) > len(large)

    def test_density_dependent_splits_dense_areas(self, rng):
        bounds = Rect(0.0, 0.0, 8000.0, 8000.0)
        dense = rng.uniform(0, 1000, size=(500, 2))
        sparse = rng.uniform(0, 8000, size=(50, 2))
        stations = place_density_dependent_stations(
            bounds, np.vstack([dense, sparse]), nodes_per_station=50
        )
        radii_near_dense = [
            s.radius for s in stations if s.center.norm() < 2500
        ]
        radii_far = [s.radius for s in stations if s.center.norm() > 6000]
        assert min(radii_near_dense) < min(radii_far)

    def test_regions_per_station_grows_with_radius(self, small_grid, reduction):
        plan = self._plan(small_grid, reduction)
        bounds = small_grid.bounds
        small_r = place_uniform_stations(bounds, 300.0)
        large_r = place_uniform_stations(bounds, 2000.0)
        assert mean_regions_per_station(small_r, plan) < mean_regions_per_station(
            large_r, plan
        )

    def test_region_payload_is_16_bytes(self):
        # 3 floats for the square region + 1 float for the throttler.
        assert BYTES_PER_REGION == 16
        assert UDP_PAYLOAD_BYTES == 1472

    def test_empty_station_list_rejected(self, small_grid, reduction):
        plan = self._plan(small_grid, reduction)
        with pytest.raises(ValueError):
            mean_regions_per_station([], plan)


class TestMobileCQServer:
    BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)

    def _server(self, service_rate=10.0, capacity=5, n_nodes=4) -> MobileCQServer:
        queries = [RangeQuery(0, Rect(0.0, 0.0, 50.0, 50.0))]
        return MobileCQServer(
            self.BOUNDS, n_nodes, queries, service_rate, queue_capacity=capacity
        )

    def test_receive_then_process_updates_table(self):
        server = self._server()
        ids = np.array([0, 1])
        pos = np.array([[10.0, 10.0], [60.0, 60.0]])
        vel = np.zeros((2, 2))
        assert server.receive_reports(0.0, ids, pos, vel) == 2
        server.process(1.0)
        results = server.evaluate_queries(0.0)
        assert sorted(results[0]) == [0]

    def test_queue_overflow_drops(self):
        server = self._server(capacity=2)
        ids = np.arange(4)
        pos = np.zeros((4, 2))
        vel = np.zeros((4, 2))
        admitted = server.receive_reports(0.0, ids, pos, vel)
        assert admitted == 2
        assert server.queue.lifetime_dropped == 2

    def test_service_rate_limits_throughput(self):
        server = self._server(service_rate=2.0, capacity=10)
        ids = np.arange(4)
        server.receive_reports(0.0, ids, np.zeros((4, 2)), np.zeros((4, 2)))
        assert server.process(1.0) == 2  # only 2 updates/sec
        assert server.process(1.0) == 2

    def test_fractional_service_credit_carries(self):
        server = self._server(service_rate=0.5, capacity=10)
        server.receive_reports(0.0, np.array([0]), np.zeros((1, 2)), np.zeros((1, 2)))
        assert server.process(1.0) == 0  # 0.5 credit accumulated
        assert server.process(1.0) == 1  # now 1.0

    def test_unknown_nodes_not_in_results(self):
        server = self._server()
        # Only node 1 reports; node 0 must not appear anywhere.
        server.receive_reports(
            0.0, np.array([1]), np.array([[10.0, 10.0]]), np.zeros((1, 2))
        )
        server.process(1.0)
        results = server.evaluate_queries(0.0)
        assert 0 not in results[0]

    def test_load_measurement(self):
        server = self._server(service_rate=4.0, capacity=100)
        server.receive_reports(0.0, np.arange(4), np.zeros((4, 2)), np.zeros((4, 2)))
        server.process(1.0)
        m = server.take_load_measurement()
        assert m.arrivals == 4
        assert m.processed == 4
        assert m.period == 1.0
        assert m.arrival_rate == pytest.approx(4.0)
        assert m.utilization == pytest.approx(1.0)
        # Counters reset after measurement.
        assert server.take_load_measurement().arrivals == 0

    def test_open_ended_query_excludes_unknown_nodes(self):
        """Satellite regression: queries are evaluated on the known-node
        subset directly.  The old code substituted a sentinel for
        never-seen nodes, which an open-ended (infinite-extent) query
        rect could match — fabricating results for nodes the server has
        no position for."""
        queries = [RangeQuery(0, Rect(0.0, 0.0, np.inf, np.inf))]
        server = MobileCQServer(
            self.BOUNDS, 4, queries, service_rate=10.0, queue_capacity=10
        )
        server.receive_reports(
            0.0, np.array([2]), np.array([[10.0, 10.0]]), np.zeros((1, 2))
        )
        server.process(1.0)
        results = server.evaluate_queries(0.0)
        assert list(results[0]) == [2]  # nodes 0, 1, 3 never reported

    def test_utilization_guards_zero_service_rate(self):
        """Satellite regression: a LoadMeasurement constructed with a
        dead server (service_rate <= 0) must report infinite utilization
        under load — not raise ZeroDivisionError mid-adaptation."""
        from repro.server.cq_server import LoadMeasurement

        dead = LoadMeasurement(
            arrivals=10, processed=0, dropped=0, period=1.0, service_rate=0.0
        )
        assert dead.utilization == float("inf")
        idle = LoadMeasurement(
            arrivals=0, processed=0, dropped=0, period=1.0, service_rate=0.0
        )
        assert idle.utilization == 0.0
        negative = LoadMeasurement(
            arrivals=5, processed=0, dropped=0, period=2.0, service_rate=-1.0
        )
        assert negative.utilization == float("inf")

    def test_period_drops_survive_queue_counter_reset(self):
        """Satellite regression: a period's drops are a difference of
        monotonic counts, so they add up across batches and the next
        period starts from the mark the last one closed at."""
        server = self._server(service_rate=1.0, capacity=2, n_nodes=8)
        ids = np.arange(4)
        server.receive_reports(0.0, ids, np.zeros((4, 2)), np.zeros((4, 2)))
        assert server.queue.lifetime_dropped == 2
        server.receive_reports(1.0, ids + 4, np.zeros((4, 2)), np.zeros((4, 2)))
        server.process(1.0)
        m = server.take_load_measurement()
        assert m.dropped == 6  # 2 from the first batch + 4 from the second
        # The next period starts from a clean mark.
        assert server.take_load_measurement().dropped == 0

    def test_admission_shedding_counts_separately(self):
        """Random-Drop-style admission shedding is accounted apart from
        queue-overflow drops."""
        server = self._server(service_rate=100.0, capacity=100, n_nodes=100)
        rng = np.random.default_rng(0)
        ids = np.arange(100)
        admitted = server.receive_reports(
            0.0,
            ids,
            np.zeros((100, 2)),
            np.zeros((100, 2)),
            admit_fraction=0.3,
            admit_rng=rng,
        )
        m = server.take_load_measurement()
        assert m.arrivals == 100
        assert m.shed == 100 - admitted
        assert m.dropped == 0
        assert server.counts.shed == m.shed
        assert 10 < admitted < 60  # ~Binomial(100, 0.3)

    def test_admission_fraction_requires_rng(self):
        server = self._server()
        with pytest.raises(ValueError):
            server.receive_reports(
                0.0,
                np.array([0]),
                np.zeros((1, 2)),
                np.zeros((1, 2)),
                admit_fraction=0.5,
            )

    def test_rejects_bad_service_rate(self):
        with pytest.raises(ValueError):
            MobileCQServer(self.BOUNDS, 1, [], service_rate=0.0)

    @pytest.mark.parametrize(
        "times",
        [
            [3.0] * 8,  # one time: applied as polled
            [-np.inf] * 8,
            [3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 0.0, 2.0],
            [3.0, np.nan, 3.0, -np.inf, 1.0, np.nan, np.inf, 3.0],
            [np.nan] * 8,
        ],
    )
    def test_poll_equals_ascending_per_time_groups(self, times):
        """A poll is applied as one ``ingest`` per distinct time, ascending
        (what the per-message oracle does), whether or not its times differ;
        a NaN time matches no group and is never applied."""
        from repro.index import NodeTable

        times = np.array(times)
        ids = np.array([0, 1, 2, 0, 3, 1, 2, 4])
        rng = np.random.default_rng(2)
        server = self._server(service_rate=100.0, capacity=20, n_nodes=6)
        reference = NodeTable(6)
        for batch in range(2):  # the second poll meets stored models
            pos, vel = rng.uniform(0, 100, (8, 2)), rng.normal(size=(8, 2))
            server.receive_reports(0.0, ids, pos, vel, times=times - batch)
            assert server.process(1.0) == 8
            for t in np.unique(times - batch):
                mask = times - batch == t
                reference.ingest(float(t), ids[mask], pos[mask], vel[mask])
        table = server.table
        assert (table.updates_applied, table.updates_discarded) == (
            reference.updates_applied, reference.updates_discarded)
        np.testing.assert_array_equal(table.known_mask, reference.known_mask)
        np.testing.assert_array_equal(table.last_update_times, reference.last_update_times)
        np.testing.assert_array_equal(table.predict(5.0), reference.predict(5.0))


class TestIncrementalServerMode:
    """The server has one evaluation path (the cell -> query index); it
    must equal the brute-force scan of the known subset, which is what
    the server ran before and what the incremental engine was checked
    against."""

    BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
    QUERIES = [
        RangeQuery(0, Rect(0.0, 0.0, 50.0, 50.0)),
        RangeQuery(1, Rect(25.0, 25.0, 90.0, 90.0)),
    ]

    @staticmethod
    def _scan_known_subset(server, t):
        known_idx = np.flatnonzero(server.table.known_mask)
        believed_known = server.table.predict(t)[known_idx]
        return [known_idx[q.evaluate(believed_known)] for q in server.queries]

    def test_results_identical_to_scan_mode(self, rng):
        server = MobileCQServer(self.BOUNDS, 8, self.QUERIES, service_rate=100.0)
        for t in range(5):
            ids = np.arange(6)  # nodes 6 and 7 never report
            pos = rng.uniform(0, 100, size=(6, 2))
            vel = rng.uniform(-5, 5, size=(6, 2))
            server.receive_reports(float(t), ids, pos, vel)
            server.process(1.0)
            t_eval = float(t) + 0.5
            results = server.evaluate_queries(t_eval)
            expected = self._scan_known_subset(server, t_eval)
            assert len(results) == len(expected) == 2
            for got, want in zip(results, expected):
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
