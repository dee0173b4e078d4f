"""Tests for the fault-injection layer (repro.faults) and its seams.

Covers the injector primitives (uplink loss/delay/reorder, downlink
fates, slowdown episodes, churn), the two system-level guarantees the
layer promises — a null injector is bit-identical to no injector, and a
seeded fault scenario is exactly reproducible — and the degradation
accounting surfaced through ``SystemStats``.
"""

import numpy as np
import pytest

from repro.core import AnalyticReduction, LiraConfig
from repro.faults import DELAYED, DELIVER, LOST, FaultInjector, FaultSpec
from repro.queries import QueryDistribution, generate_workload
from repro.server import BaseStationNetwork, LiraSystem, place_uniform_stations

from tests.oracles.system import run_deployment


# ----------------------------------------------------------------------
# FaultSpec validation
# ----------------------------------------------------------------------


class TestFaultSpec:
    def test_defaults_are_null(self):
        spec = FaultSpec()
        assert spec.is_null
        assert not spec.uplink_enabled
        assert not spec.downlink_enabled
        assert not spec.churn_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"uplink_loss": -0.1},
            {"uplink_loss": 1.5},
            {"downlink_delay": 2.0},
            {"churn_leave": -1.0},
            {"uplink_delay_range": (-1.0, 5.0)},
            {"uplink_delay_range": (30.0, 10.0)},
            {"downlink_delay_range": (5.0, 1.0)},
            {"slowdown_factor": 0.0},
            {"slowdown_factor": 1.5},
            {"slowdown_duration": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_any_fault_dimension_disables_null(self):
        assert not FaultSpec(uplink_loss=0.1).is_null
        assert not FaultSpec(uplink_delay=0.1).is_null
        assert not FaultSpec(uplink_reorder=0.1).is_null
        assert not FaultSpec(downlink_loss=0.1).is_null
        assert not FaultSpec(slowdown_prob=0.1).is_null
        assert not FaultSpec(churn_leave=0.1).is_null


# ----------------------------------------------------------------------
# Injector primitives
# ----------------------------------------------------------------------


def _batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return (
        np.arange(n, dtype=np.int64),
        rng.random((n, 2)) * 1000.0,
        rng.standard_normal((n, 2)),
    )


class TestUplink:
    def test_null_spec_passes_through_untouched(self):
        injector = FaultInjector(FaultSpec(), seed=1)
        ids, pos, vel = _batch(50)
        out_ids, out_pos, out_vel, times = injector.uplink(0.0, ids, pos, vel)
        assert out_ids is ids or np.array_equal(out_ids, ids)
        assert np.array_equal(out_pos, pos)
        assert np.array_equal(out_vel, vel)
        assert times is None
        assert injector.counters.uplink_lost == 0

    def test_loss_drops_messages_and_counts(self):
        injector = FaultInjector(FaultSpec(uplink_loss=0.5), seed=2)
        ids, pos, vel = _batch(400)
        out_ids, _, _, times = injector.uplink(0.0, ids, pos, vel)
        lost = injector.counters.uplink_lost
        assert out_ids.size == 400 - lost
        assert 100 < lost < 300  # ~Binomial(400, 0.5)
        assert times is not None and times.size == out_ids.size
        # Survivors keep their payloads intact.
        assert set(out_ids).issubset(set(ids))

    def test_total_loss_delivers_nothing(self):
        injector = FaultInjector(FaultSpec(uplink_loss=1.0), seed=3)
        ids, pos, vel = _batch(20)
        out_ids, out_pos, out_vel, times = injector.uplink(0.0, ids, pos, vel)
        assert out_ids.size == 0 and out_pos.shape == (0, 2)
        assert injector.counters.uplink_lost == 20

    def test_delay_holds_then_delivers_with_original_timestamp(self):
        spec = FaultSpec(uplink_delay=1.0, uplink_delay_range=(15.0, 15.0))
        injector = FaultInjector(spec, seed=4)
        ids, pos, vel = _batch(10)
        out_ids, _, _, _ = injector.uplink(0.0, ids, pos, vel)
        assert out_ids.size == 0
        assert injector.uplink_in_flight == 10
        # Nothing matures before t=15.
        empty = np.empty(0, dtype=np.int64)
        mid, _, _, _ = injector.uplink(
            10.0, empty, np.empty((0, 2)), np.empty((0, 2))
        )
        assert mid.size == 0
        late_ids, late_pos, _, late_times = injector.uplink(
            20.0, empty, np.empty((0, 2)), np.empty((0, 2))
        )
        assert sorted(late_ids) == sorted(ids)
        assert np.all(late_times == 0.0)  # original report time, not arrival
        assert injector.uplink_in_flight == 0
        # Payloads round-trip through the heap exactly.
        order = np.argsort(late_ids)
        assert np.array_equal(late_pos[order], pos)

    def test_reorder_permutes_batch(self):
        injector = FaultInjector(FaultSpec(uplink_reorder=1.0), seed=5)
        ids, pos, vel = _batch(100)
        out_ids, out_pos, _, _ = injector.uplink(0.0, ids, pos, vel)
        assert injector.counters.uplink_reordered_batches == 1
        assert not np.array_equal(out_ids, ids)  # shuffled
        assert sorted(out_ids) == sorted(ids)  # nothing lost
        # id/position pairing survives the shuffle.
        assert np.array_equal(out_pos, pos[out_ids])


class TestDownlink:
    def test_null_spec_always_delivers(self):
        injector = FaultInjector(FaultSpec(), seed=6)
        for sid in range(10):
            assert injector.downlink_fate(sid) == (DELIVER, 0.0)

    def test_loss_and_delay_fates(self):
        injector = FaultInjector(
            FaultSpec(downlink_loss=0.4, downlink_delay=0.4), seed=7
        )
        fates = [injector.downlink_fate(i)[0] for i in range(200)]
        counts = {f: fates.count(f) for f in (DELIVER, LOST, DELAYED)}
        assert counts[LOST] == injector.counters.downlink_lost > 0
        assert counts[DELAYED] == injector.counters.downlink_delayed > 0
        assert counts[DELIVER] > 0

    def test_delay_within_range(self):
        spec = FaultSpec(downlink_delay=1.0, downlink_delay_range=(5.0, 8.0))
        injector = FaultInjector(spec, seed=8)
        for sid in range(50):
            fate, delay = injector.downlink_fate(sid)
            assert fate == DELAYED
            assert 5.0 <= delay <= 8.0


class TestServerAndChurn:
    def test_slowdown_episode_spans_duration(self):
        spec = FaultSpec(
            slowdown_prob=1.0, slowdown_factor=0.25, slowdown_duration=25.0
        )
        injector = FaultInjector(spec, seed=9)
        assert injector.service_factor(0.0) == 0.25  # episode starts
        assert injector.service_factor(10.0) == 0.25  # still inside
        assert injector.counters.slow_ticks == 2

    def test_no_slowdown_when_disabled(self):
        injector = FaultInjector(FaultSpec(), seed=10)
        assert injector.service_factor(0.0) == 1.0
        assert injector.counters.slow_ticks == 0

    def test_churn_disabled_returns_none(self):
        injector = FaultInjector(FaultSpec(), seed=11)
        assert injector.churn_step(100) is None
        assert injector.active_mask is None

    def test_full_churn_empties_then_refills(self):
        spec = FaultSpec(churn_leave=1.0, churn_rejoin=1.0)
        injector = FaultInjector(spec, seed=12)
        gone = injector.churn_step(50)
        assert not gone.any()
        assert injector.counters.departures == 50
        back = injector.churn_step(50)
        assert back.all()
        assert injector.counters.rejoins == 50

    def test_partial_churn_conserves_population(self):
        spec = FaultSpec(churn_leave=0.1, churn_rejoin=0.3)
        injector = FaultInjector(spec, seed=13)
        for _ in range(20):
            mask = injector.churn_step(200)
            assert mask.shape == (200,)
        assert 0 < mask.sum() <= 200


# ----------------------------------------------------------------------
# Downlink faults through the protocol layer
# ----------------------------------------------------------------------


class _ScriptedDownlink:
    """A downlink stub replaying a fixed fate sequence (cycled)."""

    def __init__(self, fates):
        self.fates = list(fates)
        self._i = 0

    def downlink_fate(self, station_id):
        fate = self.fates[self._i % len(self.fates)]
        self._i += 1
        return fate


class TestNetworkUnderDownlinkFaults:
    @pytest.fixture()
    def plan(self, request):
        from repro.core import LiraLoadShedder

        small_grid = request.getfixturevalue("small_grid")
        shedder = LiraLoadShedder(
            LiraConfig(l=16, alpha=16, z=0.4), AnalyticReduction(5.0, 100.0)
        )
        return shedder.adapt(small_grid)

    def test_lost_broadcast_leaves_station_stale(self, plan):
        station = place_uniform_stations(plan.bounds, 1e6)[:1]
        net = BaseStationNetwork(
            station, downlink=_ScriptedDownlink([(DELIVER, 0.0), (LOST, 0.0)])
        )
        net.install_plan(plan, t=0.0)
        sid = station[0].station_id
        assert net.subset_or_none(sid).version == 1
        net.install_plan(plan, t=100.0)  # lost: station keeps v1
        assert net.subset_or_none(sid).version == 1
        mean_age, stale_fraction = net.staleness(150.0)
        assert mean_age == pytest.approx(150.0)  # serving the t=0 plan
        assert stale_fraction == 1.0
        # Bytes still count the lost transmission's airtime.
        assert net.total_broadcasts == 2

    def test_delayed_broadcast_installs_at_maturity(self, plan):
        station = place_uniform_stations(plan.bounds, 1e6)[:1]
        net = BaseStationNetwork(
            station,
            downlink=_ScriptedDownlink([(DELIVER, 0.0), (DELAYED, 30.0)]),
        )
        net.install_plan(plan, t=0.0)
        net.install_plan(plan, t=50.0)  # delayed until t=80
        sid = station[0].station_id
        assert net.subset_or_none(sid).version == 1
        assert net.deliver_pending(60.0) == 0
        assert net.deliver_pending(80.0) == 1
        assert net.subset_or_none(sid).version == 2
        assert net.staleness(80.0) == (pytest.approx(30.0), 0.0)

    def test_stale_delayed_broadcast_never_clobbers_newer(self, plan):
        station = place_uniform_stations(plan.bounds, 1e6)[:1]
        fates = [(DELAYED, 100.0), (DELIVER, 0.0)]
        net = BaseStationNetwork(station, downlink=_ScriptedDownlink(fates))
        net.install_plan(plan, t=0.0)  # v1 delayed until t=100
        net.install_plan(plan, t=10.0)  # v2 delivered immediately
        sid = station[0].station_id
        assert net.subset_or_none(sid).version == 2
        assert net.deliver_pending(200.0) == 0  # matured v1 is discarded
        assert net.subset_or_none(sid).version == 2

    def test_never_delivered_station_counts_fully_stale(self, plan):
        station = place_uniform_stations(plan.bounds, 1e6)[:1]
        net = BaseStationNetwork(
            station, downlink=_ScriptedDownlink([(LOST, 0.0)])
        )
        net.install_plan(plan, t=0.0)
        assert net.subset_or_none(station[0].station_id) is None
        mean_age, stale_fraction = net.staleness(40.0)
        assert mean_age == pytest.approx(40.0)
        assert stale_fraction == 1.0

    def test_version_times_stay_bounded_over_many_installs(self, plan):
        """A long-lived network forgets the generation time of every
        version no station serves or awaits; ages stay right, including
        those of a station that never hears a broadcast (0) and of one
        that heard only the first (1)."""

        stations = place_uniform_stations(plan.bounds, plan.bounds.width / 4)
        assert len(stations) == 9

        class _DeafDownlink:
            broadcasts = 0

            def downlink_fate(self, station_id):
                first_install = self.broadcasts < len(stations)
                self.broadcasts += 1
                if station_id == 0 or (station_id == 1 and not first_install):
                    return LOST, 0.0
                return DELIVER, 0.0

        net = BaseStationNetwork(stations, downlink=_DeafDownlink())
        for k in range(5_000):
            net.install_plan(plan, t=float(k))
            assert len(net._version_times) <= len(stations) + 1
        mean_age, stale_fraction = net.staleness(5_000.0)
        # 0 never served anything (age t), 1 serves the t=0 plan, the
        # other seven the latest (t=4999).
        assert mean_age == pytest.approx((5_000.0 + 5_000.0 + 7 * 1.0) / 9)
        assert stale_fraction == pytest.approx(2 / 9)


# ----------------------------------------------------------------------
# System-level guarantees
# ----------------------------------------------------------------------

#: SystemStats fields that describe system *behavior* (as opposed to the
#: fault layer's own bookkeeping, which a null injector still performs).
_BEHAVIOR_FIELDS = (
    "time",
    "z",
    "queue_length",
    "queue_drops",
    "updates_sent",
    "updates_processed",
    "broadcast_bytes",
    "handoffs",
    "plan_version",
    "mean_plan_staleness",
    "stale_station_fraction",
    "admission_drops",
    "updates_discarded",
)


@pytest.fixture(scope="module")
def queries(request):
    trace = request.getfixturevalue("small_trace")
    return generate_workload(
        trace.bounds, 8, 500.0, QueryDistribution.PROPORTIONAL,
        trace.snapshot(0), seed=3,
    )


class TestSystemGuarantees:
    def test_null_injector_bit_identical_to_no_injector(
        self, small_trace, queries, monkeypatch
    ):
        """faults=None and a null-spec injector must take the exact same
        code path: same reports, same believed state, same results — and
        no fault seam is ever entered, which is "null overhead ≈ 0"
        counted instead of timed."""
        bare, sent_bare = run_deployment(LiraSystem, small_trace, queries)

        def seam_entered(*args, **kwargs):
            raise AssertionError("a null-spec injector reached a fault seam")

        for owner, seam in (
            (FaultInjector, "uplink"),
            (FaultInjector, "service_factor"),
            (FaultInjector, "churn_step"),
            (BaseStationNetwork, "deliver_pending"),
        ):
            monkeypatch.setattr(owner, seam, seam_entered)
        nulled, sent_null = run_deployment(
            LiraSystem, small_trace, queries, spec=FaultSpec(), seed=99
        )
        assert sent_bare == sent_null
        # Bootstrap registers every node out of band, not over the uplink.
        assert nulled.faults.counters.uplink_sent == (
            nulled.stats().updates_sent - small_trace.num_nodes
        )
        assert np.array_equal(
            bare.server.table.predict(0.0), nulled.server.table.predict(0.0), equal_nan=True
        )
        t = (small_trace.num_ticks - 1) * small_trace.dt
        for a, b in zip(bare.evaluate_queries(t), nulled.evaluate_queries(t)):
            assert np.array_equal(a, b)
        stats_a, stats_b = bare.stats(), nulled.stats()
        for name in _BEHAVIOR_FIELDS:
            assert getattr(stats_a, name) == getattr(stats_b, name), name

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_faulty_run_reproducible_per_seed(self, small_trace, queries, n_shards):
        """Every fault stream comes from the one injector, drawn in one
        process in a fixed order (the downlink in ascending shard order),
        so a seed fixes the run at every K, and every report sent is
        accounted for from ``SystemStats`` alone."""
        spec = FaultSpec(
            uplink_loss=0.2,
            uplink_delay=0.15,
            uplink_reorder=0.3,
            downlink_loss=0.3,
            downlink_delay=0.2,
            slowdown_prob=0.2,
            slowdown_duration=20.0,
            churn_leave=0.02,
        )
        runs = [
            run_deployment(
                LiraSystem, small_trace, queries, spec=spec, seed=42, n_shards=n_shards
            )
            for _ in range(2)
        ]
        (sys_a, sent_a), (sys_b, sent_b) = runs
        assert sent_a == sent_b
        stats = sys_a.stats()
        assert stats == sys_b.stats()
        assert sys_a.faults.counters == sys_b.faults.counters
        table_a, table_b = (s.shards[0].server.table for s in (sys_a, sys_b))
        assert np.array_equal(table_a.predict(0.0), table_b.predict(0.0), equal_nan=True)
        assert stats.uplink_lost > 0 and stats.downlink_lost > 0
        assert stats.updates_sent == (
            stats.updates_processed + stats.queue_length + stats.queue_drops
            + stats.admission_drops + stats.updates_discarded + stats.updates_orphaned
            + stats.uplink_lost + stats.uplink_in_flight
        )

    def test_different_seeds_diverge(self, small_trace, queries):
        spec = FaultSpec(uplink_loss=0.3)
        _, sent_a = run_deployment(LiraSystem, small_trace, queries, spec=spec, seed=1)
        _, sent_b = run_deployment(LiraSystem, small_trace, queries, spec=spec, seed=2)
        assert sent_a == sent_b  # node-side sending is fault-independent
        # ... but the delivered streams differ (checked via counters).

    def test_uplink_loss_reflected_in_stats(self, small_trace, queries):
        system, _ = run_deployment(
            LiraSystem, small_trace, queries, spec=FaultSpec(uplink_loss=0.4), seed=5
        )
        stats = system.stats()
        assert stats.uplink_sent > 0
        assert 0 < stats.uplink_lost < stats.uplink_sent
        # Lost updates mean fewer processed than sent.
        assert stats.updates_processed < stats.updates_sent

    def test_delayed_updates_never_regress_believed_state(
        self, small_trace, queries
    ):
        """Reordered/delayed deliveries must not overwrite newer state:
        the node table's newest-wins guard discards them instead."""
        spec = FaultSpec(
            uplink_delay=0.3,
            uplink_delay_range=(10.0, 40.0),
            uplink_reorder=0.5,
        )
        system, _ = run_deployment(LiraSystem, small_trace, queries, spec=spec, seed=6)
        stats = system.stats()
        assert stats.uplink_delayed > 0
        # Update times in the table never exceed the clock.
        known = system.server.table.known_mask
        assert np.all(system.server.table.last_update_times[known] <= stats.time)

    def test_churn_reduces_active_nodes_and_reports(self, small_trace, queries):
        spec = FaultSpec(churn_leave=0.2, churn_rejoin=0.1)
        system, sent = run_deployment(LiraSystem, small_trace, queries, spec=spec, seed=7)
        stats = system.stats()
        assert stats.active_nodes < small_trace.num_nodes
        assert system.faults.counters.departures > 0

    def test_slowdown_throttles_processing(self, small_trace, queries):
        slow, _ = run_deployment(
            LiraSystem,
            small_trace,
            queries,
            spec=FaultSpec(slowdown_prob=1.0, slowdown_factor=0.2, slowdown_duration=1e9),
            seed=8,
            service_rate=50.0,
        )
        fast, _ = run_deployment(LiraSystem, small_trace, queries, service_rate=50.0)
        assert (
            slow.stats().updates_processed < fast.stats().updates_processed
        )
        assert slow.stats().slow_ticks == small_trace.num_ticks

    def test_random_drop_policy_sheds_by_admission(self, small_trace, queries):
        """Random Drop pushes every node to Δ⊢ and sheds at the server:
        under overload z falls below 1 and admission drops accumulate."""
        system, sent = run_deployment(
            LiraSystem, small_trace, queries, policy="random-drop", service_rate=5.0
        )
        stats = system.stats()
        assert stats.z < 1.0
        assert stats.admission_drops > 0
        # The trivial plan reaches the nodes through the same protocol.
        assert stats.plan_version > 0
        assert np.all(system.node_engine.stored_region_counts() <= 1)

    def test_rejects_unknown_policy(self, small_trace, queries):
        with pytest.raises(ValueError):
            LiraSystem(
                bounds=small_trace.bounds,
                n_nodes=small_trace.num_nodes,
                queries=[],
                reduction=AnalyticReduction(5.0, 100.0),
                policy="drop-everything",
            )
