"""Integration tests for LiraSystem (the full three-layer deployment)."""

import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import AnalyticReduction, LiraConfig
from repro.faults import FaultInjector, FaultSpec
from repro.geo import Rect
from repro.history import SnapshotQuery, TrajectoryStore
from repro.parallel import usable_cpus
from repro.queries import QueryDistribution, generate_workload
from repro.server import LiraSystem
from repro.server import system as system_module
from repro.server.system import SERIAL_DEVIATION_NODES

from tests.oracles.system import ReferenceLiraSystem


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
        archived = system.history._ids[: system.history.total_reports]
        assert np.unique(archived).size == trace.num_nodes

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


BOUNDS = Rect(0.0, 0.0, 10_000.0, 10_000.0)


def _booted(system_type=LiraSystem, n_nodes=500, velocities=None, seed=5, **options):
    """A bootstrapped, adapted system on 800 m stations, and its scene."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 10_000.0, size=(n_nodes, 2))
    if velocities is None:
        velocities = rng.uniform(-30.0, 30.0, size=(n_nodes, 2))
    config = LiraConfig(l=13, alpha=32, z=0.5)
    system = system_type(
        bounds=BOUNDS,
        n_nodes=n_nodes,
        queries=generate_workload(
            BOUNDS, 8, 500.0, QueryDistribution.PROPORTIONAL, positions, seed=3
        ),
        reduction=AnalyticReduction(config.delta_min, config.delta_max),
        config=config,
        service_rate=500.0,
        station_radius=800.0,
        **options,
    )
    system.bootstrap(positions, velocities)
    system.adapt(positions, np.hypot(velocities[:, 0], velocities[:, 1]))
    return system, positions, velocities


def _state(system):
    return (
        system.stats(),
        system.node_engine.total_handoffs,
        system.node_engine.station_slots().tolist(),
        system.fleet.total_reports,
        system.current_time,
    )


def test_unknown_policy_is_refused():
    with pytest.raises(ValueError, match="policy"):
        _booted(policy="drop-everything")


class TestRejectedTick:
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_bad_shape_moves_nothing(self, n_shards):
        """A tick with ``(n, 1)`` velocities is refused before the engine
        hands anybody off, the fault layer draws or the clock moves: the
        next good tick equals that of a twin that never saw the call."""
        spec = FaultSpec(
            uplink_loss=0.2, uplink_delay=0.15, downlink_loss=0.3, churn_leave=0.02
        )
        twins = [
            _booted(n_shards=n_shards, faults=FaultInjector(spec, seed=11))
            for _ in range(2)
        ]
        (system, positions, velocities), (twin, _, _) = twins
        for s in (system, twin):
            s.tick(0.0, positions, velocities, 1.0)
        fresh = np.random.default_rng(9).uniform(0.0, 10_000.0, size=positions.shape)
        before = _state(system)
        with pytest.raises(ValueError):
            system.tick(1.0, fresh, velocities[:, :1], 1.0)
        assert _state(system) == before
        sent = [s.tick(1.0, fresh, velocities, 1.0) for s in (system, twin)]
        assert sent[0] == sent[1]
        assert _state(system) == _state(twin)
        assert system.node_engine.total_handoffs > before[1]
        assert np.array_equal(system.fleet.thresholds, twin.fleet.thresholds)
        for mine, theirs in zip(system.fleet.node_models(), twin.fleet.node_models()):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(system.evaluate_queries(), twin.evaluate_queries()):
            assert np.array_equal(mine, theirs)


def _tick_in_child(system, positions, velocities, conn):
    conn.send(system.tick(2.0, positions, velocities, 1.0))
    conn.close()


def _deviation_threads(system, positions, velocities, ticks=3):
    """Idents of the threads that ran ``fleet.deviation`` over ``ticks`` ticks."""
    real, threads = system.fleet.deviation, []

    def spy(t, positions):
        threads.append(threading.get_ident())
        return real(t, positions)

    system.fleet.deviation = spy
    for tick in range(ticks):
        system.tick(float(tick), positions + tick * velocities, velocities, 1.0)
    return threads


@pytest.mark.parametrize("n_nodes", [500, SERIAL_DEVIATION_NODES, SERIAL_DEVIATION_NODES + 1])
def test_only_large_fleets_start_a_helper(n_nodes):
    """Both sides of the size choice: a fleet of more than
    ``SERIAL_DEVIATION_NODES`` nodes computes the deviation on a helper
    thread (given two usable CPUs), a smaller one on the caller's."""
    threads = _deviation_threads(*_booted(n_nodes=n_nodes), ticks=2)
    assert len(threads) == 2
    on_helper = threading.get_ident() not in threads
    assert on_helper == (n_nodes > SERIAL_DEVIATION_NODES and usable_cpus() > 1)


class TestDeviationBesideLookup:
    """The tick computes the fleet's deviation on a helper thread while
    this thread looks up the thresholds (on one usable CPU, after it).
    The 500-node scenes here take the helper as a large fleet would."""

    @pytest.fixture(autouse=True)
    def helper_at_any_size(self, monkeypatch):
        monkeypatch.setattr(system_module, "SERIAL_DEVIATION_NODES", 0)

    def test_deviation_runs_off_the_callers_thread_once_per_tick(self):
        threads = _deviation_threads(*_booted())
        assert len(threads) == 3
        on_helper = threading.get_ident() not in threads
        assert on_helper == (usable_cpus() > 1)

    def test_helper_errors_surface_and_the_thread_is_always_joined(self):
        system, positions, velocities = _booted()
        baseline = threading.active_count()

        def broken(t, positions):
            raise RuntimeError("deviation failed")

        system.fleet.deviation = broken
        with pytest.raises(RuntimeError, match="deviation failed"):
            system.tick(0.0, positions, velocities, 1.0)
        assert threading.active_count() == baseline

        def slow(t, positions):
            time.sleep(0.2)  # alive well past the lookup, unless joined
            return np.zeros(system.n_nodes)

        def lookup_fails(*args, **kwargs):
            raise KeyError("lookup failed")

        system.fleet.deviation = slow
        system.node_engine.compute_thresholds = lookup_fails
        with pytest.raises(KeyError, match="lookup failed"):
            system.tick(1.0, positions, velocities, 1.0)
        assert threading.active_count() == baseline

    def test_callers_errstate_holds_on_the_helper(self):
        """Node 0 last sent a 1e300 m/s model: its squared deviation
        overflows, which the caller's ``np.errstate`` turns into an error."""
        velocities = np.random.default_rng(5).uniform(-30.0, 30.0, size=(500, 2))
        velocities[0] = 1e300
        system, positions, velocities = _booted(velocities=velocities)
        velocities[0] = 0.0
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                system.tick(1.0, positions, velocities, 1.0)

    def test_bits_hold_when_the_lock_changes_hands_every_microsecond(self):
        """Tick by tick equal to the per-node oracle, whose fleet computes
        the deviation inline, with the interpreter switching threads as
        often as it can."""
        (system, positions, velocities), (oracle, _, _) = (
            _booted(), _booted(ReferenceLiraSystem)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for tick in range(10):
                moved = np.clip(positions + tick * velocities, 0.0, 10_000.0)
                sent = [s.tick(float(tick), moved, velocities, 1.0) for s in (system, oracle)]
                assert sent[0] == sent[1]
                assert np.array_equal(system.fleet.thresholds, oracle.fleet.thresholds)
        finally:
            sys.setswitchinterval(interval)
        assert system.stats() == oracle.stats()

    def test_forked_child_ticks_after_its_parent_ticked(self):
        """No helper outlives a tick, so a child forked between ticks
        inherits nothing that could hang it, and ticks to the same bits."""
        system, positions, velocities = _booted()
        system.tick(1.0, positions, velocities, 1.0)
        moved = positions + velocities
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(
            target=_tick_in_child, args=(system, moved, velocities, send)
        )
        child.start()
        send.close()
        try:
            assert receive.poll(30.0), "the forked child hung in its tick"
            sent = receive.recv()
        finally:
            child.join(5.0)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert sent == system.tick(2.0, moved, velocities, 1.0)
