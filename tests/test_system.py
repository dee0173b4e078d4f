"""Integration tests for LiraSystem (the full three-layer deployment)."""

import tracemalloc

import numpy as np
import pytest

from repro.core import AnalyticReduction, LiraConfig
from repro.geo import Rect
from repro.history import SnapshotQuery, TrajectoryStore
from repro.queries import QueryDistribution, generate_workload
from repro.server import LiraSystem


@pytest.fixture(scope="module")
def system_and_trace(request):
    trace = request.getfixturevalue("small_trace")
    queries = generate_workload(
        trace.bounds, 8, 500.0, QueryDistribution.PROPORTIONAL,
        trace.snapshot(0), seed=3,
    )
    system = LiraSystem(
        bounds=trace.bounds,
        n_nodes=trace.num_nodes,
        queries=queries,
        reduction=AnalyticReduction(5.0, 100.0),
        config=LiraConfig(l=13, alpha=32, z=0.5),
        service_rate=500.0,
        station_radius=1500.0,
        adaptive_throttle=False,
    )
    system.shedder.set_throttle_fraction(0.5)
    # The system archives nothing on its own; the reader attaches a store.
    system.history = TrajectoryStore(system.n_nodes)
    sent_per_tick = []
    for tick in range(trace.num_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        velocities = trace.velocities[tick]
        if tick % 8 == 0:
            system.adapt(positions, trace.speeds(tick))
        sent_per_tick.append(system.tick(t, positions, velocities, trace.dt))
    return system, trace, sent_per_tick


class TestLiraSystem:
    def test_tick_before_adapt_rejected(self, small_trace):
        system = LiraSystem(
            bounds=small_trace.bounds,
            n_nodes=small_trace.num_nodes,
            queries=[],
            reduction=AnalyticReduction(5.0, 100.0),
            config=LiraConfig(l=4, alpha=16),
        )
        with pytest.raises(RuntimeError):
            system.tick(0.0, small_trace.snapshot(0), small_trace.velocities[0], 10.0)

    def test_updates_flow_to_server_view(self, system_and_trace):
        system, trace, _ = system_and_trace
        assert system.server.table.known_mask.all()
        assert system.server.table.updates_applied > 0

    def test_history_archives_everything_sent(self, system_and_trace):
        system, trace, sent = system_and_trace
        assert system.history.total_reports == sum(sent)

    def test_shedding_reduces_updates(self, system_and_trace):
        """With z = 0.5 the system must send far fewer reports than one
        report per node per tick, yet keep tracking everyone."""
        system, trace, sent = system_and_trace
        assert sum(sent) < 0.8 * trace.num_nodes * trace.num_ticks
        assert all(system.history.reports_for(i) >= 1 for i in range(trace.num_nodes))

    def test_query_results_reasonable(self, system_and_trace):
        """Server results approximate truth: most true members present."""
        system, trace, _ = system_and_trace
        t_final = (trace.num_ticks - 1) * trace.dt
        results = system.evaluate_queries(t_final)
        true_positions = trace.positions[-1]
        recalls = []
        for query, result in zip(system.server.queries, results):
            truth = set(query.evaluate(true_positions).tolist())
            if len(truth) >= 3:
                recalls.append(len(truth & set(result.tolist())) / len(truth))
        assert recalls, "workload produced no populated queries"
        assert np.mean(recalls) > 0.6

    def test_broadcasts_accounted(self, system_and_trace):
        system, _, _ = system_and_trace
        stats = system.stats()
        assert stats.broadcast_bytes > 0
        assert stats.updates_sent == system.fleet.total_reports

    def test_handoffs_occur_for_moving_population(self, system_and_trace):
        system, _, _ = system_and_trace
        assert system.stats().handoffs > 0

    def test_snapshot_query_on_history(self, system_and_trace):
        system, trace, _ = system_and_trace
        mid_tick = trace.num_ticks // 2
        t = mid_tick * trace.dt
        b = trace.bounds
        rect = Rect(b.x1, b.y1, b.center.x, b.center.y)
        believed = set(SnapshotQuery(rect, t).evaluate(system.history).tolist())
        truth = set(
            SnapshotQuery(rect, t).evaluate_truth(trace.positions[mid_tick]).tolist()
        )
        if truth:
            recall = len(believed & truth) / len(truth)
            assert recall > 0.5


class TestBootstrap:
    def test_bootstrap_registers_everyone(self, small_trace):
        from repro.queries import RangeQuery
        from repro.geo import Rect as R

        system = LiraSystem(
            bounds=small_trace.bounds,
            n_nodes=small_trace.num_nodes,
            queries=[RangeQuery(0, R(0, 0, 1000, 1000))],
            reduction=AnalyticReduction(5.0, 100.0),
            config=LiraConfig(l=4, alpha=16),
        )
        system.history = TrajectoryStore(system.n_nodes)
        system.bootstrap(small_trace.positions[0], small_trace.velocities[0])
        assert system.server.table.known_mask.all()
        assert system.history.total_reports == small_trace.num_nodes
        # Nothing went through the bounded queue.
        assert system.server.queue.lifetime_enqueued == 0

    def test_first_tick_after_bootstrap_sends_little(self, small_trace):
        from repro.queries import RangeQuery
        from repro.geo import Rect as R

        system = LiraSystem(
            bounds=small_trace.bounds,
            n_nodes=small_trace.num_nodes,
            queries=[RangeQuery(0, R(0, 0, 1000, 1000))],
            reduction=AnalyticReduction(5.0, 100.0),
            config=LiraConfig(l=4, alpha=16),
            adaptive_throttle=False,
        )
        system.shedder.set_throttle_fraction(0.5)
        system.bootstrap(small_trace.positions[0], small_trace.velocities[0])
        system.adapt(small_trace.positions[0], small_trace.speeds(0))
        sent = system.tick(
            0.0, small_trace.positions[0], small_trace.velocities[0], small_trace.dt
        )
        # Everyone just registered at these exact positions: no deviation.
        assert sent == 0


class TestSteadyStateMemory:
    def test_default_system_does_not_grow_with_reports_sent(self):
        """Nothing attached to ``history``: 100 more ticks of a 2 000-node
        system (≈ 48 B per report if anything archived them) leave the
        traced heap where it was."""
        n = 2_000
        rng = np.random.default_rng(11)
        bounds = Rect(0.0, 0.0, 10_000.0, 10_000.0)
        positions = rng.uniform(0.0, 10_000.0, size=(n, 2))
        velocities = rng.uniform(-30.0, 30.0, size=(n, 2))
        speeds = np.hypot(velocities[:, 0], velocities[:, 1])
        system = LiraSystem(
            bounds=bounds,
            n_nodes=n,
            queries=generate_workload(
                bounds, 8, 500.0, QueryDistribution.PROPORTIONAL, positions, seed=3
            ),
            reduction=AnalyticReduction(5.0, 100.0),
            config=LiraConfig(l=13, alpha=32, z=0.5),
            service_rate=500.0,
            station_radius=1500.0,
            adaptive_throttle=False,
        )
        system.shedder.set_throttle_fraction(0.5)
        system.bootstrap(positions, velocities)
        traced = {}
        tracemalloc.start()
        try:
            for tick in range(121):
                positions = np.clip(positions + velocities, 0.0, 10_000.0)
                if tick % 6 == 0:
                    system.adapt(positions, speeds)
                system.tick(float(tick), positions, velocities, 1.0)
                if tick in (20, 120):
                    traced[tick] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert system.stats().updates_sent > 10 * n
        assert traced[120] - traced[20] < 64 * 1024, traced
