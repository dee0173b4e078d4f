"""Tests for the K-shard deployment of the systems loop.

The contract under test is the one DESIGN.md §8 states: the degenerate
partition ``LiraSystem(n_shards=1)`` is bit-identical to the per-node
oracle loop (stats, plans, thresholds, query results — across fault
regimes), and K>1 is bit-reproducible per seed (under fault injection too) with
conserved node ownership and update accounting, and an exactly
budget-sum-invariant coordinator.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyticReduction, LiraConfig
from repro.faults import FaultInjector, FaultSpec
from repro.geo import Rect
from repro.history import TrajectoryStore
from repro.queries import RangeQuery, evaluate_queries
from repro.server import LiraSystem, hrw_shards

from tests.oracles.system import ReferenceLiraSystem

BOUNDS = Rect(0.0, 0.0, 10_000.0, 10_000.0)
QUERIES = [
    RangeQuery(0, Rect(1000.0, 1000.0, 4000.0, 4000.0)),
    RangeQuery(1, Rect(5000.0, 2000.0, 9000.0, 6000.0)),
]


def _config() -> LiraConfig:
    return LiraConfig(l=13, alpha=32, z=0.5)


def _common(**overrides) -> dict:
    common = dict(
        service_rate=500.0,
        queue_capacity=100,
        station_radius=1500.0,
        policy_seed=7,
    )
    common.update(overrides)
    return common


def _make_pair(n_nodes=400, n_shards=1, **overrides):
    config = _config()
    reduction = AnalyticReduction(config.delta_min, config.delta_max)
    common = _common(**overrides)
    ref = ReferenceLiraSystem(
        BOUNDS, n_nodes, QUERIES, reduction, config=config, **common
    )
    sharded = LiraSystem(
        BOUNDS, n_nodes, QUERIES, reduction, config=config,
        n_shards=n_shards, **common,
    )
    return ref, sharded


def _make_sharded(n_shards, n_nodes=400, **overrides):
    config = _config()
    reduction = AnalyticReduction(config.delta_min, config.delta_max)
    return LiraSystem(
        BOUNDS, n_nodes, QUERIES, reduction, config=config,
        n_shards=n_shards, **_common(**overrides),
    )


def _initial_state(n_nodes, seed=3):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 10_000.0, size=(n_nodes, 2))
    velocities = rng.uniform(-30.0, 30.0, size=(n_nodes, 2))
    return positions, velocities


def _drive_pair(ref, sharded, n_ticks=40, seed=3):
    """Tick both systems in lockstep, asserting per-tick stat equality."""
    positions, velocities = _initial_state(ref.n_nodes, seed)
    ref.bootstrap(positions, velocities)
    sharded.bootstrap(positions, velocities)
    for tick in range(n_ticks):
        positions = np.clip(positions + velocities, 0.0, 10_000.0)
        if tick % 8 == 0:
            speeds = np.linalg.norm(velocities, axis=1)
            ref.adapt(positions, speeds)
            sharded.adapt(positions, speeds)
        ref_stats = ref.tick(float(tick), positions, velocities, 1.0)
        sh_stats = sharded.tick(float(tick), positions, velocities, 1.0)
        assert ref_stats == sh_stats, f"tick {tick} diverged"


def _drive_sharded(sharded, n_ticks=40, seed=3, check_invariants=True):
    """Drive a sharded system alone; returns (stats, query results, handoffs)."""
    n = sharded.n_nodes
    positions, velocities = _initial_state(n, seed)
    sharded.bootstrap(positions, velocities)
    for tick in range(n_ticks):
        positions = np.clip(positions + velocities, 0.0, 10_000.0)
        if tick % 8 == 0:
            sharded.adapt(positions, np.linalg.norm(velocities, axis=1))
            if check_invariants and sharded.n_shards > 1:
                report = sharded.last_rebalance
                assert report is not None
                # Exact-sum invariance: the rebalance pins the remainder on
                # the most-loaded shard, so the sum matches to the bit.
                assert abs(float(report.budgets.sum()) - report.z_global) == 0.0
        sharded.tick(float(tick), positions, velocities, 1.0)
        if check_invariants and sharded.n_shards > 1:
            owner = sharded._owner
            assert owner.min() >= 0 and owner.max() < sharded.n_shards, "node ownership leaked"
    return sharded.stats(), sharded.evaluate_queries(), sharded.total_cross_handoffs


class TestK1BitIdentity:
    def test_lira_policy_parity(self):
        ref, sharded = _make_pair()
        _drive_pair(ref, sharded)
        assert ref.stats() == sharded.stats()
        for ref_rows, sh_rows in zip(ref.evaluate_queries(), sharded.evaluate_queries()):
            np.testing.assert_array_equal(np.sort(ref_rows), sh_rows)
        np.testing.assert_array_equal(ref.fleet.thresholds, sharded.fleet.thresholds)

    def test_random_drop_policy_parity(self):
        ref, sharded = _make_pair(policy="random-drop", adaptive_throttle=False)
        _drive_pair(ref, sharded)
        assert ref.stats() == sharded.stats()

    def test_plan_versions_match(self):
        ref, sharded = _make_pair()
        _drive_pair(ref, sharded, n_ticks=20)
        assert ref.stats().plan_version == sharded.stats().plan_version

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(),
            FaultSpec(uplink_loss=0.1, uplink_delay=0.2, uplink_delay_range=(2.0, 6.0)),
            FaultSpec(downlink_loss=0.3, downlink_delay=0.2),
            FaultSpec(
                churn_leave=0.02, churn_rejoin=0.1,
                slowdown_prob=0.1, slowdown_duration=3.0,
            ),
        ],
        ids=["null", "uplink", "downlink", "churn-slowdown"],
    )
    def test_fault_regime_parity(self, spec):
        config = _config()
        reduction = AnalyticReduction(config.delta_min, config.delta_max)
        queries = [QUERIES[0]]
        common = _common()
        common.pop("queue_capacity")
        ref = ReferenceLiraSystem(
            BOUNDS, 300, queries, reduction, config=config,
            faults=FaultInjector(spec, seed=11), **common,
        )
        sharded = LiraSystem(
            BOUNDS, 300, queries, reduction, config=config,
            faults=FaultInjector(spec, seed=11), **common,
        )
        _drive_pair(ref, sharded, n_ticks=30, seed=5)
        assert ref.stats() == sharded.stats()


class TestMultiShardReproducibility:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_same_seed_same_bits(self, n_shards):
        stats_a, queries_a, handoffs_a = _drive_sharded(_make_sharded(n_shards))
        stats_b, queries_b, handoffs_b = _drive_sharded(_make_sharded(n_shards))
        assert stats_a == stats_b
        assert handoffs_a == handoffs_b
        for rows_a, rows_b in zip(queries_a, queries_b):
            np.testing.assert_array_equal(rows_a, rows_b)
        # Every report sent is accounted for from SystemStats alone —
        # including the ones orphaned by a cross-shard handoff.
        assert stats_a.cross_handoffs == handoffs_a > 0
        assert stats_a.updates_sent == (
            stats_a.updates_processed + stats_a.queue_length + stats_a.queue_drops
            + stats_a.admission_drops + stats_a.updates_discarded
            + stats_a.updates_orphaned
        )

    @pytest.mark.parametrize(
        "n_shards, expected",
        [
            (2, dict(
                z=0.5887491231546091, queue_length=342, updates_sent=1542,
                updates_processed=1161, broadcast_bytes=5408,
                cross_handoffs=113, updates_orphaned=39,
            )),
            (4, dict(
                z=0.7826132521974299, queue_length=178, updates_sent=1572,
                updates_processed=1369, broadcast_bytes=6144,
                cross_handoffs=153, updates_orphaned=25,
            )),
        ],
        ids=["2", "4"],
    )
    def test_bits_pinned_across_commits(self, n_shards, expected):
        """Same seed, same bits *across commits*: literals recorded on an
        overloaded scene where nodes change shard while their reports are
        still queued.  A refactor of the handoff or the report routing
        that moves a single report moves these."""
        stats, results, _ = _drive_sharded(
            _make_sharded(n_shards, service_rate=10.0, queue_capacity=400)
        )
        assert vars(stats) == dict(
            time=39.0, queue_drops=0, handoffs=190, plan_version=5,
            mean_plan_staleness=8.0, stale_station_fraction=0.0, uplink_sent=0,
            uplink_lost=0, uplink_delayed=0, uplink_in_flight=0, downlink_lost=0,
            downlink_delayed=0, admission_drops=0, updates_discarded=0,
            slow_ticks=0, active_nodes=400, **expected,
        )
        digest = hashlib.sha256()
        for rows in results:
            digest.update(rows.astype(np.int64).tobytes() + b";")
        assert digest.hexdigest() == (
            "6870727de507e6a2c3d20fbb3cd2c956afe2552433b9b43db411bca78aad7376"
        )

    @pytest.mark.parametrize(
        "n_shards, expected, digest",
        [
            (2, dict(
                z=0.9263157894736828, queue_length=198, queue_drops=330,
                updates_sent=1558, updates_processed=673, broadcast_bytes=5712,
                uplink_sent=1158, uplink_lost=250, uplink_delayed=140,
                uplink_in_flight=70, updates_discarded=1, cross_handoffs=113,
                updates_orphaned=36,
            ), "29167c69ef3267ce5b3fc4ee5a8735b1f1e10ff193f2e9cc33274f720da6be18"),
            (4, dict(
                z=0.9337423312883427, queue_length=142, queue_drops=159,
                updates_sent=1574, updates_processed=902, broadcast_bytes=6192,
                uplink_sent=1174, uplink_lost=254, uplink_delayed=146,
                uplink_in_flight=77, updates_discarded=6, cross_handoffs=152,
                updates_orphaned=34,
            ), "6870727de507e6a2c3d20fbb3cd2c956afe2552433b9b43db411bca78aad7376"),
        ],
        ids=["2", "4"],
    )
    def test_faulty_bits_pinned_across_commits(self, n_shards, expected, digest):
        """The same pin under every fault at once, on a scene whose
        per-shard queues overflow (so the drops depend on K): the one
        injector, drawn in ascending shard order, fixes the run."""
        spec = FaultSpec(
            uplink_loss=0.2, uplink_delay=0.15, uplink_reorder=0.3,
            downlink_loss=0.3, downlink_delay=0.2,
            slowdown_prob=0.2, slowdown_duration=20.0, churn_leave=0.02,
        )
        stats, results, _ = _drive_sharded(
            _make_sharded(n_shards, service_rate=10.0, faults=FaultInjector(spec, seed=11))
        )
        assert vars(stats) == dict(
            time=39.0, handoffs=189, plan_version=5, mean_plan_staleness=10.56,
            stale_station_fraction=0.32, downlink_lost=32, downlink_delayed=20,
            admission_drops=0, slow_ticks=35, active_nodes=366, **expected,
        )
        assert stats.updates_sent == (
            stats.updates_processed + stats.queue_length + stats.queue_drops
            + stats.admission_drops + stats.updates_discarded + stats.updates_orphaned
            + stats.uplink_lost + stats.uplink_in_flight
        )
        hashed = hashlib.sha256()
        for rows in results:
            hashed.update(rows.astype(np.int64).tobytes() + b";")
        assert hashed.hexdigest() == digest

    def test_orphaned_updates_are_accounted(self):
        """A backlogged shard still holds reports of nodes that hand off;
        ``stats()`` counts them, so conservation closes from SystemStats."""
        stats, _, _ = _drive_sharded(
            _make_sharded(4, service_rate=10.0, queue_capacity=400)
        )
        assert stats.updates_orphaned > 0 and stats.queue_length > 0
        assert stats.updates_sent == (
            stats.updates_processed + stats.queue_length + stats.queue_drops
            + stats.admission_drops + stats.updates_discarded + stats.updates_orphaned
        )

    def test_handoffs_actually_occur(self):
        _, _, handoffs = _drive_sharded(_make_sharded(4))
        assert handoffs > 0

    def test_station_routing_is_pinned(self):
        """Station -> shard ownership is a fixed function of (id, K): these
        literals were recorded before the ``salt`` argument was removed."""
        assert hrw_shards(np.arange(24), 4).tolist() == [
            2, 3, 2, 2, 0, 2, 3, 0, 0, 1, 0, 2, 2, 1, 3, 2, 0, 3, 3, 1, 3, 2, 2, 1,
        ]
        assert hrw_shards(np.arange(24), 3).tolist() == [
            2, 0, 2, 2, 0, 2, 1, 0, 0, 1, 0, 2, 2, 1, 0, 2, 0, 2, 1, 1, 1, 2, 2, 1,
        ]


class TestOwnershipAtApplyTime:
    """A report is applied by the shard that owns its node when the report
    is *applied*, not when it was sent: node 0 goes A → B → A while its
    reports wait in backlogged queues (μ = 0.25/s, so a queue serves its
    first report on the fourth tick)."""

    @staticmethod
    def _round_trip():
        system = _make_sharded(2, n_nodes=2, service_rate=0.25, queue_capacity=10)
        home, away = (system.shards[k].stations[0].center for k in (0, 1))
        p_a, p_b = np.array([home.x, home.y]), np.array([away.x, away.y])
        still = np.zeros((2, 2))
        system.bootstrap(np.array([p_a, p_b]), still)
        system.adapt(np.array([p_a, p_b]), np.zeros(2))
        # t=1: a report from inside A; t=2: from B's station, still sent to
        # A; t=3: owned by B, back at A, sent to B; t=4: owned by A again.
        for t, where in enumerate([p_a + (300.0, 0.0), p_b, p_a, p_a], start=1):
            system.tick(float(t), np.array([where, p_b]), still, 1.0)
        lengths = [len(shard.server.queue) for shard in system.shards]
        for t in range(5, 13):
            system.tick(float(t), np.array([p_a, p_b]), still, 1.0)
        return system, lengths

    def test_report_queued_across_a_round_trip_is_applied(self):
        system, lengths = self._round_trip()
        assert lengths[0] >= 1, "shard A served its backlog before node 0 came back"
        table = system.shards[0].server.table
        # Node 0's bootstrap model, then both reports A queued for it.
        assert (table.updates_applied, table.updates_orphaned) == (3, 0)
        stats = system.stats()
        assert stats.cross_handoffs == 2 and stats.queue_length == 0

    def test_report_served_after_the_node_left_is_orphaned(self):
        system, _ = self._round_trip()
        table = system.shards[1].server.table
        # Node 1's bootstrap model; node 0's t=3 report reached B's head
        # only after node 0 had gone back to A.
        assert (table.updates_applied, table.updates_orphaned) == (1, 1)
        stats = system.stats()
        assert stats.updates_sent == (
            stats.updates_processed + stats.queue_length + stats.updates_orphaned
        )


class TestAttachedArchive:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_attached_store_receives_every_report(self, n_shards):
        """``LiraSystem`` archives nothing itself; a store assigned before
        ``bootstrap`` is fed every shard's batches, handoffs included."""
        system = _make_sharded(n_shards)
        store = system.history = TrajectoryStore(system.n_nodes)
        stats, _, handoffs = _drive_sharded(system)
        assert (handoffs > 0) == (n_shards > 1)
        assert store.total_reports == stats.updates_sent
        ids = store._ids[: store.total_reports]
        assert np.unique(ids).size == system.n_nodes
        times = store._times[: store.total_reports]
        order = np.argsort(ids, kind="stable")
        same_node = ids[order][1:] == ids[order][:-1]
        assert same_node.any()
        assert (np.diff(times[order])[same_node] >= 0.0).all()


#: What delta / skipped installs are *meant* to change: airtime, and the
#: version and age bookkeeping of broadcasts that were never sent.
_BROADCAST_FIELDS = {
    "broadcast_bytes", "plan_version", "mean_plan_staleness", "stale_station_fraction",
}


class TestIncrementalAcrossShards:
    """The control step is the shard's, so ``incremental=True`` reaches
    every K — and changes nothing but what is broadcast."""

    @settings(deadline=None, max_examples=8)
    @given(
        n_shards=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=0, max_value=10_000),
        policy=st.sampled_from(["lira", "lira", "random-drop"]),
    )
    def test_incremental_matches_from_scratch(self, n_shards, seed, policy):
        systems = [
            _make_sharded(n_shards, n_nodes=300, policy=policy, incremental=incremental)
            for incremental in (False, True)
        ]
        positions, velocities = _initial_state(300, seed)
        for system in systems:
            system.bootstrap(positions, velocities)
        for tick in range(24):
            positions = np.clip(positions + velocities, 0.0, 10_000.0)
            if tick % 4 == 0:
                for system in systems:
                    system.adapt(positions, np.linalg.norm(velocities, axis=1))
                for full, inc in zip(systems[0].shards, systems[1].shards):
                    if full.network is not None:
                        assert full.plan.to_dict()["regions"] == inc.plan.to_dict()["regions"]
            sent = [
                system.tick(float(tick), positions, velocities, 1.0) for system in systems
            ]
            assert sent[0] == sent[1], f"tick {tick} diverged"
            if n_shards > 1:
                np.testing.assert_array_equal(systems[0]._owner, systems[1]._owner)
            np.testing.assert_array_equal(
                systems[0].fleet.thresholds, systems[1].fleet.thresholds
            )
        full_stats, inc_stats = (vars(system.stats()) for system in systems)
        for name in full_stats.keys() - _BROADCAST_FIELDS:
            assert full_stats[name] == inc_stats[name], name
        assert inc_stats["broadcast_bytes"] <= full_stats["broadcast_bytes"]
        if policy == "random-drop":
            # The trivial plan never changes: installed once, then skipped.
            assert (inc_stats["plan_version"], full_stats["plan_version"]) == (1, 6)
        for rows_full, rows_inc in zip(*(s.evaluate_queries() for s in systems)):
            np.testing.assert_array_equal(rows_full, rows_inc)


class TestQueryEvaluationAcrossShards:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_results_equal_bruteforce_on_predicted_positions(self, n_shards):
        """One evaluation over the one node table answers for every
        shard: the results are the brute-force scan of the believed
        positions each shard's view holds for the nodes it owns."""
        sharded = _make_sharded(n_shards)
        _, results, _ = _drive_sharded(sharded)
        owner = np.zeros(sharded.n_nodes, dtype=np.int64) if n_shards == 1 else sharded._owner
        believed = np.full((sharded.n_nodes, 2), np.nan)
        for k, shard in enumerate(sharded.shards):
            mine = owner == k
            believed[mine] = shard.server.table.predict(sharded.current_time)[mine]
        assert not np.isnan(believed).any()
        expected = evaluate_queries(QUERIES, believed)
        assert sum(rows.size for rows in expected) > 0
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)


class TestCoordinator:
    def test_budget_rebalance_preserves_global_z(self):
        sharded = _make_sharded(4)
        _drive_sharded(sharded, n_ticks=24)
        report = sharded.last_rebalance
        assert report is not None
        assert abs(float(report.budgets.sum()) - report.z_global) == 0.0
        assert report.weights.shape == (4,)
        assert report.budgets.shape == (4,)

    def test_fixed_throttle_skips_rebalance(self):
        sharded = _make_sharded(2, adaptive_throttle=False)
        sharded.set_throttle_fraction(0.5)
        _drive_sharded(sharded, n_ticks=16, check_invariants=False)
        assert sharded.last_rebalance is None
        assert sharded.current_z == 0.5

    def test_current_z_reflects_global_budget(self):
        sharded = _make_sharded(4)
        _drive_sharded(sharded, n_ticks=24, check_invariants=False)
        report = sharded.last_rebalance
        assert report is not None
        assert sharded.current_z == report.z_global
