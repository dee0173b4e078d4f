"""The incremental adaptation contract: bit-identity and delta plumbing.

The incremental pipeline (dirty-cell hierarchy refresh, memoized
GRIDREDUCE, greedy/plan reuse, plan deltas, delta installs, raster
repaint, delta broadcast frames) promises *exactly* the plans and node
behaviour of the from-scratch path — cheaper, never different.  These
tests enforce that equivalence property-style across random drift
patterns, plus the delta protocol edges (epoch mismatch, resync,
geometry changes) that the steady state never exercises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LiraConfig, LiraLoadShedder, StatisticsGrid, grid_reduce
from repro.core.plan import (
    PlanDelta,
    PlanEpochMismatch,
    SheddingPlan,
    clamp_thresholds,
)
from repro.core.reduction import AnalyticReduction
from repro.geo import Point, Rect
from repro.queries import RangeQuery
from repro.server.base_station import BaseStation, coverage_mask
from repro.server.node_engine import _ThresholdRaster
from repro.server.protocol import BYTES_PER_REGION, BaseStationNetwork

from tests.oracles.gridreduce import grid_reduce_reference, reference_plan
from tests.oracles.system import disk_meets_rect

SIDE = 1000.0
BOUNDS = Rect(0.0, 0.0, SIDE, SIDE)


def _scenario(seed, n_nodes=200, n_queries=10):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, SIDE, (n_nodes, 2))
    speeds = rng.uniform(0.2, 4.0, n_nodes)
    queries = []
    for q in range(n_queries):
        x, y = rng.uniform(0.0, SIDE * 0.85, 2)
        w, h = rng.uniform(SIDE * 0.03, SIDE * 0.15, 2)
        queries.append(RangeQuery(q, Rect(x, y, min(x + w, SIDE), min(y + h, SIDE))))
    return rng, positions, speeds, queries


def _drift(rng, positions, fraction):
    """Move ~``fraction`` of the nodes; 0 keeps the snapshot identical."""
    count = int(round(fraction * len(positions)))
    if count == 0:
        return
    idx = rng.choice(len(positions), size=count, replace=False)
    positions[idx] += rng.uniform(-60.0, 60.0, (count, 2))
    np.clip(positions, 0.0, SIDE - 1e-9, out=positions)


def _assert_same_content(a: SheddingPlan, b: SheddingPlan):
    assert len(a.regions) == len(b.regions)
    for ra, rb in zip(a.regions, b.regions):
        assert ra.rect == rb.rect
        assert ra.delta == rb.delta  # bit-identical thresholds
        assert (ra.n, ra.m, ra.s) == (rb.n, rb.m, rb.s)


REDUCTION = AnalyticReduction(5.0, 100.0)


def _shedders(fairness, alpha=16, z=0.5):
    config = LiraConfig(l=13, alpha=alpha, fairness=fairness)
    full = LiraLoadShedder(config, REDUCTION)
    inc = LiraLoadShedder(config, REDUCTION, incremental=True)
    full.set_throttle_fraction(z)
    inc.set_throttle_fraction(z)
    return full, inc


class TestIncrementalEquivalence:
    """Incremental adapt ≡ from-scratch adapt, bit for bit."""

    @settings(deadline=None, max_examples=12)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fraction=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]),
        fairness=st.sampled_from([None, 50.0, 0.0]),
    )
    def test_plans_bit_identical_across_drift(self, seed, fraction, fairness):
        rng, positions, speeds, queries = _scenario(seed)
        full, inc = _shedders(fairness)
        for _ in range(4):
            grid = StatisticsGrid.from_snapshot(
                BOUNDS, 16, positions, speeds, queries
            )
            _assert_same_content(full.adapt(grid), inc.adapt(grid))
            _drift(rng, positions, fraction)

    def test_object_engine_incremental_matches(self):
        """Every incremental round ≡ a from-scratch round on the scalar oracle."""
        rng, positions, speeds, queries = _scenario(3)
        _, inc = _shedders(fairness=50.0)
        for _ in range(3):
            grid = StatisticsGrid.from_snapshot(
                BOUNDS, 16, positions, speeds, queries
            )
            oracle = reference_plan(inc.config, REDUCTION, grid, 0.5)
            _assert_same_content(oracle, inc.adapt(grid))
            _drift(rng, positions, 0.05)

    def test_round_that_forgets(self):
        """``incremental=False`` runs every round on a fresh session: each
        round ≡ the scalar oracle, and a repeated grid reuses nothing."""
        rng, positions, speeds, queries = _scenario(5)
        full, _ = _shedders(fairness=50.0)
        for z in (0.5, 0.5, 0.3):
            full.set_throttle_fraction(z)
            grid = StatisticsGrid.from_snapshot(BOUNDS, 16, positions, speeds, queries)
            plan = full.adapt(grid)
            _assert_same_content(reference_plan(full.config, REDUCTION, grid, z), plan)
            assert plan.epoch == 0
            _drift(rng, positions, 0.05)
        again = full.adapt(grid)
        _assert_same_content(plan, again)
        assert full.session.gridreduce.hits == 0
        assert full.session.last_plan_reused is False
        assert again.epoch == 0 and again is not plan

    def test_z_change_invalidates_memo(self):
        rng, positions, speeds, queries = _scenario(5)
        full, inc = _shedders(fairness=None)
        cache = inc.session.gridreduce
        last_z = None
        for z in (0.5, 0.5, 0.8, 0.3):
            full.set_throttle_fraction(z)
            inc.set_throttle_fraction(z)
            grid = StatisticsGrid.from_snapshot(
                BOUNDS, 16, positions, speeds, queries
            )
            hits, hint = cache.hits, cache.trajectory
            if last_z is not None and z != last_z:
                # A z step voids every gain and keeps the structural hint.
                cache.begin_round(z)
                assert hint is not None and cache.trajectory is hint
                assert not any(v.any() for _, _, v in cache.levels.values())
            _assert_same_content(full.adapt(grid), inc.adapt(grid))
            if last_z is not None:
                assert (cache.hits > hits) == (z == last_z)
            last_z = z
            _drift(rng, positions, 0.02)

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        zs=st.lists(
            st.floats(min_value=0.2, max_value=0.95),
            min_size=4, max_size=4, unique=True,
        ),
    )
    def test_full_churn_with_fresh_z_every_round(self, seed, zs):
        """The cold round: every cell dirty *and* z moved, hint retained."""
        rng, positions, speeds, queries = _scenario(seed)
        full, inc = _shedders(fairness=None)
        cache = inc.session.gridreduce
        for z in zs:
            for shedder in (full, inc):
                shedder.set_throttle_fraction(z)
            grid = StatisticsGrid.from_snapshot(
                BOUNDS, 16, positions, speeds, queries
            )
            hits = cache.hits
            plan = inc.adapt(grid)
            assert cache.hits == hits
            _assert_same_content(full.adapt(grid), plan)
            _assert_same_content(reference_plan(inc.config, REDUCTION, grid, z), plan)
            _drift(rng, positions, 1.0)

    def test_unchanged_inputs_return_same_plan_object(self):
        _, positions, speeds, queries = _scenario(7)
        _, inc = _shedders(fairness=50.0)
        grid = StatisticsGrid.from_snapshot(BOUNDS, 16, positions, speeds, queries)
        first = inc.adapt(grid)
        again = inc.adapt(
            StatisticsGrid.from_snapshot(BOUNDS, 16, positions, speeds, queries)
        )
        assert again is first
        assert again.epoch == first.epoch
        assert inc.session.last_plan_reused

    def test_epoch_advances_with_content(self):
        rng, positions, speeds, queries = _scenario(9)
        _, inc = _shedders(fairness=50.0)
        epochs = []
        for _ in range(5):
            grid = StatisticsGrid.from_snapshot(
                BOUNDS, 16, positions, speeds, queries
            )
            epochs.append(inc.adapt(grid).epoch)
            _drift(rng, positions, 0.2)
        assert epochs == sorted(epochs)
        assert epochs[-1] > epochs[0]  # drift this large must change content

    def test_memo_hits_accumulate_under_light_drift(self):
        rng, positions, speeds, queries = _scenario(11)
        _, inc = _shedders(fairness=None)
        for _ in range(4):
            grid = StatisticsGrid.from_snapshot(
                BOUNDS, 16, positions, speeds, queries
            )
            inc.adapt(grid)
            _drift(rng, positions, 0.01)
        cache = inc.session.gridreduce
        assert cache.hits > cache.misses  # light drift: mostly memoized


# ---------------------------------------------------------------------------
# Gain-kernel calls at the bench scale: counted, not timed
# ---------------------------------------------------------------------------

BENCH_BOUNDS = Rect(0.0, 0.0, 10_000.0, 10_000.0)


def _bench_scene(seed):
    """N=20k, 40 proportional queries: the `adapt-churn` scene."""
    from repro.queries import QueryDistribution, generate_workload

    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 10_000.0, (20_000, 2))
    speeds = rng.uniform(5.0, 30.0, 20_000)
    queries = generate_workload(
        BENCH_BOUNDS, 40, 800.0, QueryDistribution.PROPORTIONAL, positions, seed=seed
    )
    return rng, positions, speeds, queries


def _bench_hierarchy(positions, speeds, queries):
    from repro.core import RegionHierarchy

    return RegionHierarchy(
        StatisticsGrid.from_snapshot(BENCH_BOUNDS, 128, positions, speeds, queries)
    )


def _reduce(hierarchy, z, cache=None, reduce=grid_reduce):
    reduction = AnalyticReduction(5.0, 100.0).piecewise(95)
    if cache is not None:
        return reduce(hierarchy, 250, z, reduction, cache=cache)
    return reduce(hierarchy, 250, z, reduction)


class TestGainKernelCalls:
    """Kernel calls per GRIDREDUCE track chain depth, not expansions."""

    def test_from_scratch_call_budget(self, monkeypatch):
        from repro.core import greedy_vector
        from repro.core.incremental import IncrementalGridReduceCache

        _, positions, speeds, queries = _bench_scene(1)
        hierarchy = _bench_hierarchy(positions, speeds, queries)
        cache = IncrementalGridReduceCache()
        first = _reduce(hierarchy, 0.5, cache=cache)
        assert first.expansions == 83
        assert 0 < cache.counts.gain_kernel_calls <= 25
        # Speculation stays a small share of the rows scored: every
        # pushed node (none is a leaf at this l) plus the wasted ones.
        assert cache.misses <= 1.25 * len(cache.trajectory.scored)
        # The uncached path is the same code over a throwaway table.
        calls = []
        solve = greedy_vector.greedy_increment_arrays
        monkeypatch.setattr(
            greedy_vector,
            "greedy_increment_arrays",
            lambda n, *rest: calls.append(len(n)) or solve(n, *rest),
        )
        uncached = _reduce(hierarchy, 0.5)
        assert uncached.regions == first.regions
        counts = cache.counts
        assert (len(calls), sum(calls)) == (counts.gain_kernel_calls, counts.gain_rows_solved)

    def test_full_churn_round_with_z_step_call_budget(self):
        from repro.core.incremental import IncrementalGridReduceCache

        rng, positions, speeds, queries = _bench_scene(2)
        cache = IncrementalGridReduceCache()
        for z in (0.4, 0.45, 0.5, 0.55):
            hierarchy = _bench_hierarchy(positions, speeds, queries)
            result = _reduce(hierarchy, z, cache=cache)
            last = cache.counters()
            if z > 0.4:
                assert last["last_round_memo_hits"] == 0
                assert 0 < last["last_round_gain_kernel_calls"] <= 8
            assert result.regions == _reduce(hierarchy, z).regions
            positions = np.clip(
                positions + rng.normal(0.0, 150.0, positions.shape), 0.0, 9_999.0
            )

    def test_wrong_hint_cannot_change_the_plan(self):
        from repro.core.incremental import IncrementalGridReduceCache

        cache = IncrementalGridReduceCache()
        _, positions, speeds, queries = _bench_scene(3)
        _reduce(_bench_hierarchy(positions, speeds, queries), 0.6, cache=cache)
        wrong = cache.trajectory
        _, positions, speeds, queries = _bench_scene(4)  # unrelated scene
        hierarchy = _bench_hierarchy(positions, speeds, queries)
        reference = _reduce(hierarchy, 0.6, reduce=grid_reduce_reference)
        hinted = _reduce(hierarchy, 0.6, cache=cache)
        assert set(wrong.result) != set(cache.trajectory.result)
        assert hinted.regions == reference.regions
        assert hinted.expansions == reference.expansions


class TestGreedyHorizonCounters:
    """The final solve's horizon, as ``counters()`` (and ``stats``) report it."""

    def test_steady_rounds_build_a_fraction_of_the_table(self):
        """Counted, at the bench scale: patch drift under Table 2 defaults."""
        rng, positions, speeds, queries = _bench_scene(1)
        config = LiraConfig(l=250, alpha=128)
        inc = LiraLoadShedder(
            config, AnalyticReduction(5.0, 100.0), incremental=True
        )
        inc.set_throttle_fraction(0.6)
        cache = inc.session.gridreduce
        full_table = 250 * config.n_segments
        rounds = 6
        for r in range(rounds):
            grid = StatisticsGrid.from_snapshot(
                BENCH_BOUNDS, 128, positions, speeds, queries
            )
            inc.adapt(grid)
            last = cache.counters()
            # Sorted plus closed-form head entries: all the final solve built.
            built = (
                last["last_round_greedy_table_entries"]
                + last["last_round_greedy_head_entries"]
            )
            assert 0 < built <= full_table // 2
            assert last["greedy_horizon"] < config.n_segments
            patch = np.flatnonzero((np.abs(positions - 4_600.0) < 1_600.0).all(axis=1))
            moved = rng.choice(patch, size=patch.size // 3, replace=False)
            positions[moved] = np.clip(
                positions[moved] + rng.uniform(-120.0, 120.0, (moved.size, 2)),
                3_000.0, 6_199.0,
            )
        totals = cache.counters()
        assert totals["greedy_horizon_retries"] <= 1
        built = totals["greedy_table_entries"] + totals["greedy_head_entries"]
        assert built <= rounds * full_table // 2

    def test_memoized_final_solve_builds_nothing(self):
        _, positions, speeds, queries = _scenario(7)
        _, inc = _shedders(fairness=50.0)
        for expected_zero in (False, True):
            inc.adapt(StatisticsGrid.from_snapshot(BOUNDS, 16, positions, speeds, queries))
            last = inc.session.gridreduce.counters()
            built = (
                last["last_round_greedy_table_entries"]
                + last["last_round_greedy_head_entries"]
            )
            assert (built == 0) == expected_zero
            assert last["last_round_greedy_horizon_retries"] == 0


def test_patch_drift_round_saves_gain_rows_and_broadcast_bytes():
    """The steady round, counted: each round 30% of the nodes in a fixed
    3.2 km patch jitter by ±120 m, so ≈ 5% of the α=128 cells change.
    The gain memo must leave the round ≥ 4x fewer rows to solve than a
    cold GRIDREDUCE of the same grid (1.3x once every lookup misses),
    and delta installs must cost ≥ 5x fewer broadcast bytes than full
    pushes of the same plans (1.0x once no delta is offered)."""
    from statistics import median

    from repro.core import RegionHierarchy
    from repro.core.incremental import IncrementalGridReduceCache
    from repro.queries import QueryDistribution, generate_workload
    from repro.server.base_station import place_uniform_stations

    rng = np.random.default_rng(23)
    positions = rng.uniform(0.0, 10_000.0, (20_000, 2))
    speeds = rng.uniform(0.5, 30.0, 20_000)
    queries = generate_workload(
        BENCH_BOUNDS, 40, 800.0, QueryDistribution.PROPORTIONAL, positions, seed=11
    )
    inc = LiraLoadShedder(
        LiraConfig(l=250, alpha=128, fairness=None),
        AnalyticReduction(5.0, 100.0),
        incremental=True,
    )
    inc.set_throttle_fraction(0.6)
    stations = place_uniform_stations(BENCH_BOUNDS, 1_500.0)
    pushed, patched = BaseStationNetwork(stations), BaseStationNetwork(stations)
    warm, rounds = 2, 10
    installed = None
    steady_rows, cold_rows = [], []
    for r in range(warm + rounds):
        if r:
            in_patch = np.flatnonzero(
                ((positions >= 3_000.0) & (positions < 6_200.0)).all(axis=1)
            )
            moved = rng.choice(in_patch, size=int(in_patch.size * 0.3), replace=False)
            positions[moved] += rng.uniform(-120.0, 120.0, (moved.size, 2))
        grid = StatisticsGrid.from_snapshot(BENCH_BOUNDS, 128, positions, speeds, queries)
        plan = inc.adapt(grid)
        pushed.install_plan(plan, t=float(r))
        if plan is not installed:
            delta = installed.diff(plan) if installed is not None else None
            patched.install_plan(plan, t=float(r), delta=delta)
            installed = plan
        if r == warm - 1:
            warm_bytes = (pushed.total_broadcast_bytes, patched.total_broadcast_bytes)
        if r >= warm:
            last = inc.session.gridreduce.counters()
            steady_rows.append(last["last_round_gain_rows_solved"])
            cold = IncrementalGridReduceCache()
            _reduce(RegionHierarchy(grid), 0.6, cache=cold)
            cold_rows.append(cold.counts.gain_rows_solved)
    assert median(cold_rows) >= 4 * median(steady_rows) > 0  # 311 vs 45
    full_bytes = pushed.total_broadcast_bytes - warm_bytes[0]
    delta_bytes = patched.total_broadcast_bytes - warm_bytes[1]
    assert full_bytes >= 5 * delta_bytes > 0  # 98 208 vs 10 400


class TestSameGeometryPlans:
    """Geometry the shedder established is not re-derived rectangle by rectangle."""

    def test_with_content_equals_from_regions_and_shares_the_raster(self):
        stats = [(float(i), 1.0 + i, 2.0) for i in range(16)]
        base = _tiled_plan([20.0] * 16, stats)
        new_stats = [(n + 1.0, m, s) for n, m, s in stats]
        rebuilt = _tiled_plan(np.linspace(10.0, 40.0, 16), new_stats, epoch=3)
        regions = [
            type(base.regions[0])(r.rect, 0.0, r.n, r.m, r.s) for r in rebuilt.regions
        ]
        shared = base.with_content(regions, rebuilt.thresholds, epoch=3)
        _assert_same_content(shared, rebuilt)
        assert shared.epoch == 3
        assert shared._id_grid is base._id_grid
        assert all(a.rect is b.rect for a, b in zip(shared.regions, base.regions))
        with pytest.raises(ValueError):
            base.with_content(regions[:-1], rebuilt.thresholds[:-1], epoch=4)
        with pytest.raises(ValueError):
            base.with_content(regions, rebuilt.thresholds[:-1], epoch=4)

    def test_same_geometry_short_circuits_on_a_shared_raster(self, monkeypatch):
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats)
        twin = _tiled_plan([30.0] * 16, stats)  # equal rectangles, own raster
        shared = base.with_content(twin.regions, twin.thresholds, epoch=1)
        other = _tiled_plan([20.0] * 4, [(1.0, 1.0, 1.0)] * 4, split=2)
        assert base.same_geometry(twin) and base.same_geometry(shared)
        assert not base.same_geometry(other)
        compared = []
        rect_type = type(base.regions[0].rect)
        equal = rect_type.__eq__
        monkeypatch.setattr(
            rect_type, "__eq__", lambda a, b: compared.append(1) or equal(a, b)
        )
        assert base.same_geometry(shared)
        assert base.diff(shared) is not None
        walked_bounds_only = len(compared)
        assert base.same_geometry(twin)
        assert walked_bounds_only <= 2 < len(compared)


# ---------------------------------------------------------------------------
# Plan deltas
# ---------------------------------------------------------------------------


def _tiled_plan(deltas, stats, epoch=0, split=4):
    """A ``split × split`` tiling with explicit throttlers/statistics."""
    from repro.core.greedy import RegionStats

    cell = SIDE / split
    regions = []
    for j in range(split):
        for i in range(split):
            n, m, s = stats[j * split + i]
            regions.append(
                RegionStats(
                    rect=Rect(i * cell, j * cell, (i + 1) * cell, (j + 1) * cell),
                    n=n,
                    m=m,
                    s=s,
                )
            )
    config = LiraConfig(l=split * split, alpha=split)
    return SheddingPlan.from_regions(
        bounds=BOUNDS,
        regions=regions,
        thresholds=clamp_thresholds(np.asarray(deltas, dtype=np.float64), config),
        resolution=split,
        epoch=epoch,
    )


@st.composite
def plan_pairs(draw):
    """Two same-geometry plans with random throttler/statistics drift."""
    split = draw(st.sampled_from([2, 4]))
    count = split * split
    throttler = st.floats(min_value=5.0, max_value=100.0, allow_nan=False)
    stat = st.tuples(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=30.0),
    )
    old_d = draw(st.lists(throttler, min_size=count, max_size=count))
    old_s = draw(st.lists(stat, min_size=count, max_size=count))
    new_d = [
        d if draw(st.booleans()) else draw(throttler) for d in old_d
    ]
    new_s = [
        s if draw(st.booleans()) else draw(stat) for s in old_s
    ]
    base = _tiled_plan(old_d, old_s, epoch=draw(st.integers(0, 50)), split=split)
    new = _tiled_plan(new_d, new_s, epoch=base.epoch + 1, split=split)
    return base, new


class TestPlanDelta:
    @settings(deadline=None, max_examples=40)
    @given(pair=plan_pairs())
    def test_diff_apply_round_trip(self, pair):
        base, new = pair
        delta = base.diff(new)
        assert delta is not None
        patched = base.apply_delta(delta)
        _assert_same_content(patched, new)
        assert patched.epoch == new.epoch
        # The raster is shared, so node-side threshold lookups agree.
        xs = np.linspace(1.0, SIDE - 1.0, 17)
        assert np.array_equal(
            patched.thresholds_for(np.column_stack([xs, xs[::-1]])),
            new.thresholds_for(np.column_stack([xs, xs[::-1]])),
        )

    @settings(deadline=None, max_examples=40)
    @given(pair=plan_pairs())
    def test_delta_dict_round_trip(self, pair):
        base, new = pair
        delta = base.diff(new)
        restored = PlanDelta.from_dict(delta.to_dict())
        assert restored == delta
        _assert_same_content(base.apply_delta(restored), new)

    def test_stat_only_drift_costs_no_airtime(self):
        stats = [(10.0 * k, 1.0, 2.0) for k in range(16)]
        base = _tiled_plan([20.0] * 16, stats, epoch=3)
        drifted = [(10.0 * k + 1.0, 1.5, 2.0) for k in range(16)]
        new = _tiled_plan([20.0] * 16, drifted, epoch=4)
        delta = base.diff(new)
        assert len(delta.changes) == 0  # nothing a node must re-learn
        assert len(delta.stat_changes) == 16
        _assert_same_content(base.apply_delta(delta), new)

    def test_throttler_change_is_airtime_charged(self):
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats, epoch=0)
        new_deltas = [20.0] * 16
        new_deltas[5] = 35.0
        new = _tiled_plan(new_deltas, stats, epoch=1)
        delta = base.diff(new)
        assert len(delta.changes) == 1
        assert delta.stat_changes == ()

    def test_epoch_mismatch_raises(self):
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats, epoch=0)
        new = _tiled_plan([25.0] * 16, stats, epoch=1)
        delta = base.diff(new)
        stale = _tiled_plan([20.0] * 16, stats, epoch=7)
        with pytest.raises(PlanEpochMismatch):
            stale.apply_delta(delta)

    def test_geometry_change_yields_no_delta(self):
        stats4 = [(1.0, 1.0, 1.0)] * 4
        stats16 = [(1.0, 1.0, 1.0)] * 16
        a = _tiled_plan([20.0] * 4, stats4, split=2)
        b = _tiled_plan([20.0] * 16, stats16, split=4)
        assert a.diff(b) is None


# ---------------------------------------------------------------------------
# Delta installs in the station network
# ---------------------------------------------------------------------------


def _stations():
    return [
        BaseStation(0, Point(250.0, 250.0), 300.0),
        BaseStation(1, Point(750.0, 250.0), 300.0),
        BaseStation(2, Point(250.0, 750.0), 300.0),
        BaseStation(3, Point(750.0, 750.0), 300.0),
    ]


class TestProtocolDeltaInstall:
    def test_delta_install_charges_changed_regions_only(self):
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats, epoch=0)
        new_deltas = [20.0] * 16
        new_deltas[0] = 40.0  # bottom-left tile: stations 0 only
        new = _tiled_plan(new_deltas, stats, epoch=1)
        network = BaseStationNetwork(_stations())
        network.install_plan(base, t=0.0)
        before = network.total_broadcast_bytes
        delivered = network.install_plan(new, t=1.0, delta=base.diff(new))
        spent = network.total_broadcast_bytes - before
        # Only stations covering the changed tile re-broadcast, and each
        # pays for its changed regions alone.
        assert set(delivered) == {0}
        assert spent == 1 * BYTES_PER_REGION

    def test_delta_skipped_stations_stay_current(self):
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats, epoch=0)
        new_deltas = [20.0] * 16
        new_deltas[0] = 40.0
        new = _tiled_plan(new_deltas, stats, epoch=1)
        network = BaseStationNetwork(_stations())
        network.install_plan(base, t=0.0)
        network.install_plan(new, t=5.0, delta=base.diff(new))
        mean_staleness, max_staleness = network.staleness(5.0)
        assert mean_staleness == 0.0 and max_staleness == 0.0

    def test_unusable_delta_falls_back_to_full_push(self):
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats, epoch=0)
        new = _tiled_plan([25.0] * 16, stats, epoch=1)
        delta = base.diff(new)
        network = BaseStationNetwork(_stations())
        network.install_plan(base, t=0.0)
        stale = PlanDelta(
            base_epoch=99,
            epoch=delta.epoch,
            num_regions=delta.num_regions,
            changes=delta.changes,
        )
        before = network.total_broadcasts
        delivered = network.install_plan(new, t=1.0, delta=stale)
        assert set(delivered) == {0, 1, 2, 3}  # everyone re-broadcast
        assert network.total_broadcasts - before == 4

    def test_delta_install_serves_same_subsets_as_full(self):
        rng, positions, speeds, queries = _scenario(21)
        _, inc = _shedders(fairness=50.0)
        net_full = BaseStationNetwork(_stations())
        net_delta = BaseStationNetwork(_stations())
        previous = None
        for _ in range(5):
            grid = StatisticsGrid.from_snapshot(
                BOUNDS, 16, positions, speeds, queries
            )
            plan = inc.adapt(grid)
            net_full.install_plan(plan, t=0.0)
            if plan is not previous:
                delta = previous.diff(plan) if previous is not None else None
                net_delta.install_plan(plan, t=0.0, delta=delta)
            previous = plan
            _drift(rng, positions, 0.05)
        for sid in range(4):
            a = net_full.subset_or_none(sid)
            b = net_delta.subset_or_none(sid)
            assert (a is None) == (b is None)
            if a is not None:
                assert len(a.regions) == len(b.regions)
                for ra, rb in zip(a.regions, b.regions):
                    assert ra.rect == rb.rect and ra.delta == rb.delta
        assert net_delta.total_broadcast_bytes <= net_full.total_broadcast_bytes


# ---------------------------------------------------------------------------
# Node-side raster repaint
# ---------------------------------------------------------------------------


class TestThresholdRasterRepaint:
    def _lookup_points(self, rng):
        pts = rng.uniform(0.0, SIDE, (200, 2))
        return pts[:, 0], pts[:, 1]

    def test_repaint_matches_fresh_raster(self):
        rng = np.random.default_rng(0)
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats).regions
        raster = _ThresholdRaster(tuple(base))
        new_deltas = [20.0] * 16
        new_deltas[3] = 55.0
        new_deltas[12] = 8.0
        new = tuple(_tiled_plan(new_deltas, stats).regions)
        assert raster.repaint(new)
        fresh = _ThresholdRaster(new)
        x, y = self._lookup_points(rng)
        assert np.array_equal(
            raster.thresholds_at(x, y), fresh.thresholds_at(x, y), equal_nan=True
        )

    def test_repaint_refuses_geometry_change(self):
        stats16 = [(1.0, 1.0, 1.0)] * 16
        stats4 = [(1.0, 1.0, 1.0)] * 4
        raster = _ThresholdRaster(tuple(_tiled_plan([20.0] * 16, stats16).regions))
        other = tuple(_tiled_plan([20.0] * 4, stats4, split=2).regions)
        assert not raster.repaint(other)

    def test_repaint_handles_overlapping_regions(self):
        from repro.core.plan import SheddingRegion

        rng = np.random.default_rng(1)
        overlapping = (
            SheddingRegion(
                rect=Rect(0.0, 0.0, 600.0, 600.0), delta=10.0, n=0.0, m=0.0, s=0.0
            ),
            SheddingRegion(
                rect=Rect(400.0, 400.0, 1000.0, 1000.0),
                delta=30.0,
                n=0.0,
                m=0.0,
                s=0.0,
            ),
        )
        raster = _ThresholdRaster(overlapping)
        changed = (
            overlapping[0],
            SheddingRegion(
                rect=Rect(400.0, 400.0, 1000.0, 1000.0),
                delta=80.0,
                n=0.0,
                m=0.0,
                s=0.0,
            ),
        )
        assert raster.repaint(changed)
        fresh = _ThresholdRaster(changed)
        x, y = self._lookup_points(rng)
        assert np.array_equal(
            raster.thresholds_at(x, y), fresh.thresholds_at(x, y), equal_nan=True
        )
        # The overlap cell still belongs to the lower region index.
        assert raster.thresholds_at(np.array([500.0]), np.array([500.0]))[0] == 10.0


# ---------------------------------------------------------------------------
# Vectorized coverage
# ---------------------------------------------------------------------------


class TestServiceDeltaBroadcast:
    """Delta frames on the live service's plan-push channel."""

    def _service(self):
        from repro.queries import QueryDistribution, generate_workload
        from repro.service.service import LiraService
        from repro.timing import ManualClock

        queries = generate_workload(
            BOUNDS, 10, 150.0, QueryDistribution.RANDOM, seed=7
        )
        clock = ManualClock(start=100.0)
        service = LiraService(
            bounds=BOUNDS,
            n_nodes=200,
            queries=queries,
            reduction=AnalyticReduction(5.0, 100.0),
            config=LiraConfig(l=13, alpha=16),
            clock=clock,
        )
        service.shedder.set_throttle_fraction(0.6)
        return service, clock

    class _FakeWriter:
        def __init__(self):
            self.frames: list[bytes] = []
            self.transport = self  # its own transport: nothing ever unread

        def get_write_buffer_size(self) -> int:
            return 0

        def write(self, payload: bytes) -> None:
            self.frames.append(payload)

        def is_closing(self) -> bool:
            return False

    def _decode(self, frames):
        import asyncio

        from repro.service.framing import read_frame

        async def drain():
            reader = asyncio.StreamReader()
            for payload in frames:
                reader.feed_data(payload)
            reader.feed_eof()
            out = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return out
                out.append(frame)

        return asyncio.run(drain())

    def _drive(self, service, clock, rounds=6, seed=0):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, SIDE, (200, 2))
        velocities = rng.uniform(-3.0, 3.0, (200, 2))
        ids = np.arange(200)
        for _ in range(rounds):
            idx = rng.integers(0, 200, 6)
            positions[idx] += rng.uniform(-30.0, 30.0, (6, 2))
            np.clip(positions, 0.0, SIDE - 1e-9, out=positions)
            service.apply_ingest(clock(), ids, positions, velocities)
            service.pump_once(10.0)
            clock.advance(1.0)
            service.adapt_once()
            service._push_plan()

    def test_steady_state_pushes_delta_frames_that_replay_exactly(self):
        from repro.service.service import _Subscriber

        service, clock = self._service()
        writer = self._FakeWriter()
        service._subscribers = [_Subscriber(writer=writer)]
        self._drive(service, clock)
        frames = self._decode(writer.frames)
        kinds = [f.kind for f in frames]
        assert kinds[0] == "plan"
        assert "plan-delta" in kinds  # steady state went compact
        plan = None
        for frame in frames:
            if frame.kind == "plan":
                plan = SheddingPlan.from_dict(frame.meta["plan"])
            else:
                plan = plan.apply_delta(PlanDelta.from_dict(frame.meta["delta"]))
        _assert_same_content(plan, service.plan)
        assert plan.epoch == service.plan.epoch

    def test_lapsed_subscriber_gets_full_resync(self):
        from repro.service.service import _Subscriber

        service, clock = self._service()
        writer = self._FakeWriter()
        subscriber = _Subscriber(writer=writer)
        service._subscribers = [subscriber]
        self._drive(service, clock)
        subscriber.epoch = 9_999  # simulate a lapsed/rejoining client
        before = len(writer.frames)
        self._drive(service, clock, rounds=2, seed=1)
        new_frames = self._decode(writer.frames[before:])
        assert new_frames[0].kind == "plan"  # resync, not a dangling delta
        assert subscriber.epoch == service.plan.epoch

    def test_frames_encode_once_per_install_not_per_subscriber(self):
        from repro.service.service import _Subscriber

        service, clock = self._service()
        writers = [self._FakeWriter() for _ in range(5)]
        service._subscribers = [_Subscriber(writer=w) for w in writers]
        self._drive(service, clock)
        pushed = service.counters.plans_pushed
        encoded = service.counters.plan_frames_encoded
        assert pushed >= 5  # every subscriber got at least the first plan
        # One full + at most one delta encoding per installed plan,
        # regardless of the five subscribers.
        assert encoded <= 2 * service.counters.plans_computed
        assert encoded * 5 <= pushed + 5
        # All five subscribers received the identical first frame.
        assert len({bytes(w.frames[0]) for w in writers}) == 1

    def test_unchanged_plan_is_not_repushed(self):
        from repro.service.service import _Subscriber

        service, clock = self._service()
        writer = self._FakeWriter()
        service._subscribers = [_Subscriber(writer=writer)]
        rng = np.random.default_rng(2)
        positions = rng.uniform(0.0, SIDE, (200, 2))
        velocities = rng.uniform(-3.0, 3.0, (200, 2))
        ids = np.arange(200)
        service.apply_ingest(clock(), ids, positions, velocities)
        service.pump_once(10.0)
        for _ in range(4):  # identical believed state every round
            clock.advance(0.0)
            service.adapt_once()
            service._push_plan()
        assert len(writer.frames) == 1  # first install only
        assert service.counters.plan_pushes_skipped >= 3


class TestReceiverDelta:
    """The loadtest client applies delta frames and survives mismatches."""

    def _receiver(self):
        from repro import timing
        from repro.loadtest.runner import _Receiver

        return _Receiver(timing.monotonic)

    def test_applies_delta_on_top_of_full_plan(self):
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats, epoch=1)
        new_deltas = [20.0] * 16
        new_deltas[2] = 44.0
        new = _tiled_plan(new_deltas, stats, epoch=2)
        receiver = self._receiver()
        receiver.handle("plan", {"plan": base.to_dict(), "generated_t": 0.0})
        receiver.handle(
            "plan-delta",
            {"delta": base.diff(new).to_dict(), "generated_t": 0.0},
        )
        _assert_same_content(receiver.plan, new)
        assert receiver.plans_received == 2
        assert receiver.plan_deltas_applied == 1

    def test_mismatched_delta_keeps_old_plan(self):
        stats = [(1.0, 1.0, 1.0)] * 16
        base = _tiled_plan([20.0] * 16, stats, epoch=1)
        new = _tiled_plan([25.0] * 16, stats, epoch=2)
        delta = _tiled_plan([20.0] * 16, stats, epoch=5).diff(
            _tiled_plan([25.0] * 16, stats, epoch=6)
        )
        receiver = self._receiver()
        receiver.handle("plan", {"plan": base.to_dict()})
        receiver.handle("plan-delta", {"delta": delta.to_dict()})
        _assert_same_content(receiver.plan, base)  # kept, not corrupted
        assert receiver.plan_delta_mismatches == 1

    def test_delta_before_any_plan_is_ignored(self):
        stats = [(1.0, 1.0, 1.0)] * 16
        delta = _tiled_plan([20.0] * 16, stats, epoch=0).diff(
            _tiled_plan([25.0] * 16, stats, epoch=1)
        )
        receiver = self._receiver()
        receiver.handle("plan-delta", {"delta": delta.to_dict()})
        assert receiver.plan is None
        assert receiver.plan_delta_mismatches == 1


class TestCoverageMask:
    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        radius=st.floats(min_value=10.0, max_value=900.0),
    )
    def test_matches_scalar_intersects_circle(self, seed, radius):
        rng = np.random.default_rng(seed)
        stats = [
            tuple(v)
            for v in rng.uniform(0.0, 10.0, (16, 3))
        ]
        plan = _tiled_plan(rng.uniform(5.0, 100.0, 16), stats)
        stations = [
            BaseStation(k, Point(*rng.uniform(-100.0, SIDE + 100.0, 2)), radius)
            for k in range(5)
        ]
        mask = coverage_mask(stations, plan)
        for row, station in enumerate(stations):
            for col, region in enumerate(plan.regions):
                assert mask[row, col] == disk_meets_rect(
                    region.rect, station.center, station.radius
                )
