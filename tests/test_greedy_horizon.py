"""The budget-horizon contract: horizon ≡ full κ ≡ reference loop.

The array GREEDYINCREMENT builds its tables over the first ``h ≪ κ``
knot-path columns and accepts the result only when *proved* equal to
the full-κ solve (``repro.core.greedy_vector._solve_rows``); anything
else retries at full κ.  The horizon is seeded by a cross-call hint
(:class:`repro.core.incremental.GreedyHorizon`) that may be arbitrarily
wrong.  These tests pin the contract: whatever the hint says, every
field of the result is bit-identical to the scalar reference loop — on
problems with zero-mass (infinite-gain) regions, zero-weight regions,
zero-rate segments and cross-region ties, and, under strictly falling
reductions, with the zero-mass regions popped as the closed-form head
(``repro.core.greedy_vector._head``) — and the counters tell an
operator what the horizon did.  Rows whose budget is already met build
no table at all and leave the hint alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PiecewiseLinearReduction, greedy_increment
from repro.core.greedy import _EPS, RegionStats, _as_piecewise
from repro.core.greedy_vector import greedy_increment_arrays
from repro.core.incremental import _MIN_HORIZON, GreedyHorizon
from repro.geo import Rect
from tests.oracles.greedy import greedy_increment_reference
from tests.test_adapt_vector import assert_results_identical


@st.composite
def deep_reductions(draw):
    """Non-increasing piecewise-linear f with κ well beyond the horizon floor.

    Zero-drop segments (zero rates) are common, so infinite-key runs
    end early and flat tails tie at key 0.
    """
    n_segments = draw(st.integers(min_value=_MIN_HORIZON + 1, max_value=40))
    drops = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.12)),
            min_size=n_segments,
            max_size=n_segments,
        )
    )
    values = [1.0]
    for d in drops:
        values.append(max(values[-1] - d, 0.0))
    knots = np.linspace(5.0, 5.0 + 3.0 * n_segments, n_segments + 1)
    return PiecewiseLinearReduction(knots, np.array(values))


@st.composite
def strict_reductions(draw):
    """Strictly falling f: every rate > 0, so every query-free region's
    entries are infinite down the whole knot path and pop as the
    closed-form head (``deep_reductions`` nearly always draws a zero
    rate, which sends them through the sort instead)."""
    n_segments = draw(st.integers(min_value=_MIN_HORIZON + 1, max_value=40))
    drops = np.array(
        draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1.0),
                min_size=n_segments,
                max_size=n_segments,
            )
        )
    )
    values = np.concatenate(([1.0], 1.0 - 0.9 * np.cumsum(drops) / drops.sum()))
    knots = np.linspace(5.0, 5.0 + 3.0 * n_segments, n_segments + 1)
    return PiecewiseLinearReduction(knots, values)


@st.composite
def region_stats(draw, max_regions=10):
    """``(n, m, s)`` rows with zero-mass, zero-weight and duplicated regions.

    Duplicated rows have equal gains at every column, so cross-region
    ties appear at every depth — including astride column ``h − 1``.
    """
    count = draw(st.integers(min_value=1, max_value=max_regions))
    rows = [
        (
            draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=80.0))),
            draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=12.0))),
            draw(st.floats(min_value=0.0, max_value=6.0)),
        )
        for _ in range(count)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        rows.append(rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))])
    return rows


def as_regions(rows):
    return [
        RegionStats(rect=Rect(i, 0.0, i + 1.0, 1.0), n=n, m=m, s=s)
        for i, (n, m, s) in enumerate(rows)
    ]


hint_depths = st.one_of(
    st.just(0),  # the floor: h = 8, usually too small
    st.integers(min_value=1, max_value=6),  # too small or just right
    st.integers(min_value=7, max_value=64),  # too large, up to past κ
)

fairness_values = st.one_of(st.none(), st.floats(min_value=0.5, max_value=150.0))

z_values = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))

query_free = st.tuples(
    st.floats(min_value=0.0, max_value=80.0), st.just(0.0), st.floats(min_value=0.0, max_value=6.0)
)


class TestHorizonEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=region_stats(),
        reduction=deep_reductions(),
        z=z_values,
        other_z=st.floats(min_value=0.0, max_value=1.0),
        fairness=fairness_values,
        use_speed=st.booleans(),
        depth=hint_depths,
    )
    def test_final_solve_any_hint_matches_reference(
        self, rows, reduction, z, other_z, fairness, use_speed, depth
    ):
        self._check_final_solve(rows, reduction, z, other_z, fairness, use_speed, depth)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=region_stats(),
        free=st.lists(query_free, min_size=1, max_size=4),
        reduction=strict_reductions(),
        z=z_values,
        other_z=st.floats(min_value=0.0, max_value=1.0),
        fairness=fairness_values,
        use_speed=st.booleans(),
        depth=hint_depths,
        data=st.data(),
    )
    def test_final_solve_with_a_head_matches_reference(
        self, rows, free, reduction, z, other_z, fairness, use_speed, depth, data
    ):
        """Every rate > 0: the query-free regions pop as the closed-form
        head, wherever they sit among zero-weight and duplicated ones."""
        for region in free:
            rows.insert(data.draw(st.integers(0, len(rows))), region)
        self._check_final_solve(rows, reduction, z, other_z, fairness, use_speed, depth)

    def _check_final_solve(self, rows, reduction, z, other_z, fairness, use_speed, depth):
        regions = as_regions(rows)
        ref = greedy_increment_reference(
            regions, reduction, z, fairness=fairness, use_speed=use_speed
        )
        kappa = len(reduction.knots) - 1
        # A hint that was never learned, one at full κ, and one learned
        # on another z — then reused, as the session does.
        learned = GreedyHorizon()
        greedy_increment(
            regions, reduction, other_z, fairness=fairness, use_speed=use_speed,
            horizon=learned,
        )
        for horizon in (GreedyHorizon(depth=depth), GreedyHorizon(depth=kappa), learned, learned):
            got = greedy_increment(
                regions, reduction, z, fairness=fairness, use_speed=use_speed,
                horizon=horizon,
            )
            assert_results_identical(ref, got, f"hint {horizon}")

    @settings(max_examples=60, deadline=None)
    @given(
        problems=st.lists(region_stats(max_regions=1), min_size=1, max_size=6),
        reduction=deep_reductions(),
        z=z_values,
        use_speed=st.booleans(),
        depth=hint_depths,
        data=st.data(),
    )
    def test_stacked_rows_any_hint_match_reference(
        self, problems, reduction, z, use_speed, depth, data
    ):
        # Four children per row, as CALCERRGAIN stacks them; each row
        # repeats its own draws so ties and zero-mass children mix.
        stacked = np.array(
            [
                [row[data.draw(st.integers(0, len(row) - 1))] for _ in range(4)]
                for row in problems
            ]
        )
        self._check_stacked(stacked, reduction, z, use_speed, depth)

    @settings(max_examples=100, deadline=None)
    @given(
        pool=region_stats(max_regions=6),
        free=st.lists(query_free, min_size=1, max_size=3),
        n_rows=st.integers(min_value=1, max_value=6),
        reduction=strict_reductions(),
        z=z_values,
        use_speed=st.booleans(),
        depth=hint_depths,
        data=st.data(),
    )
    def test_stacked_rows_with_a_head_match_reference(
        self, pool, free, n_rows, reduction, z, use_speed, depth, data
    ):
        """Rows mixing query-free, zero-weight, duplicated and ordinary
        children, every rate > 0: ragged heads, one horizon."""
        pool = pool + free
        stacked = np.array(
            [
                [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(4)]
                for _ in range(n_rows)
            ]
        )
        self._check_stacked(stacked, reduction, z, use_speed, depth)

    def _check_stacked(self, stacked, reduction, z, use_speed, depth):
        pw = _as_piecewise(reduction, None)
        horizon = GreedyHorizon(depth=depth)
        for _ in range(2):  # the second pass runs on the learned hint
            batch = greedy_increment_arrays(
                stacked[..., 0], stacked[..., 1], stacked[..., 2], pw, z, use_speed, horizon
            )
            assert len(batch) == len(stacked)
            for p, stats in enumerate(stacked):
                ref = greedy_increment_reference(
                    as_regions(map(tuple, stats)), reduction, z, use_speed=use_speed
                )
                assert_results_identical(ref, batch[p], f"row {p}")


def _horizon_state(horizon):
    return (
        horizon.depth,
        horizon.last_columns,
        horizon.counts.table_entries,
        horizon.counts.head_entries,
        horizon.counts.horizon_retries,
    )


def _unmet(stacked, z, use_speed):
    """Row mask of stacked ``(n, m, s)`` problems whose budget is not yet met."""
    n, s = stacked[..., 0], stacked[..., 2]
    weights = n * s if use_speed else n
    if use_speed:
        fallback = (weights.sum(axis=1) <= 0) & (n.sum(axis=1) > 0)
        weights = np.where(fallback[:, None], n, weights)
    totals = weights.sum(axis=1)
    return ~(totals <= z * totals + _EPS)


class TestBudgetMetRows:
    """A row whose budget is already met pops nothing: it is answered Δ⊢
    everywhere, builds no table and leaves the horizon hint alone."""

    def _check(self, stacked, reduction, z, use_speed, depth):
        pw = _as_piecewise(reduction, None)
        mixed, alone = GreedyHorizon(depth=depth), GreedyHorizon(depth=depth)
        unmet = _unmet(stacked, z, use_speed)
        for _ in range(2):  # the second pass runs on the learned hint
            batch = greedy_increment_arrays(
                stacked[..., 0], stacked[..., 1], stacked[..., 2], pw, z, use_speed, mixed
            )
            for p, stats in enumerate(stacked):
                ref = greedy_increment_reference(
                    as_regions(map(tuple, stats)), reduction, z, use_speed=use_speed
                )
                assert_results_identical(ref, batch[p], f"row {p}")
                if not unmet[p]:
                    assert ref.steps == 0
            # The met rows cost nothing: the horizon ends where solving the
            # unmet rows alone leaves it, entries and learned depth included.
            rest = stacked[unmet]
            greedy_increment_arrays(
                rest[..., 0], rest[..., 1], rest[..., 2], pw, z, use_speed, alone
            )
            assert _horizon_state(mixed) == _horizon_state(alone)

    @settings(max_examples=60, deadline=None)
    @given(
        problems=st.lists(region_stats(max_regions=1), min_size=1, max_size=6),
        met=st.lists(
            st.sampled_from(["zero", "tiny", "edge"]), min_size=1, max_size=4
        ),
        reduction=deep_reductions(),
        z=z_values,
        use_speed=st.booleans(),
        depth=hint_depths,
        data=st.data(),
    )
    def test_met_rows_mixed_with_open_rows_match_reference(
        self, problems, met, reduction, z, use_speed, depth, data
    ):
        rows = [
            [row[data.draw(st.integers(0, len(row) - 1))] for _ in range(4)]
            for row in problems
        ]
        # Rows whose budget is met at any z: no weight at all, a total
        # far below the tolerance, and one exactly at it (met at z = 0).
        fillers = {
            "zero": [(0.0, 3.0, 2.0)] * 4,
            "tiny": [(1e-12, 0.0, 1.0), (2e-12, 4.0, 1.0), (0.0, 1.0, 1.0), (1e-12, 2.0, 0.0)],
            "edge": [(0.25e-9, 1.0, 1.0)] * 4,
        }
        for kind in met:
            rows.insert(data.draw(st.integers(0, len(rows))), fillers[kind])
        self._check(np.array(rows), reduction, z, use_speed, depth)

    def test_all_met_at_z_one_builds_nothing(self):
        rng = np.random.default_rng(11)
        stacked = np.stack(
            [rng.uniform(0.0, 40.0, (88, 4)), rng.uniform(0.0, 5.0, (88, 4)),
             rng.uniform(0.0, 3.0, (88, 4))],
            axis=-1,
        )
        stacked[::7, :, 1] = 0.0  # zero-mass rows: all head if opened
        reduction = _convex_reduction()
        self._check(stacked, reduction, 1.0, True, 5)
        horizon = GreedyHorizon(depth=5)
        greedy_increment_arrays(
            stacked[..., 0], stacked[..., 1], stacked[..., 2],
            _as_piecewise(reduction, None), 1.0, True, horizon,
        )
        assert _horizon_state(horizon) == (5, 0, 0, 0, 0)
        # At z < 1 the same rows open and build tables.
        self._check(stacked, reduction, 0.7, True, 5)

    def test_single_problem_at_z_one_builds_nothing(self):
        regions = as_regions([(20.0 + i, 2.5, 2.0) for i in range(12)] + [(9.0, 0.0, 2.0)] * 3)
        reduction = _convex_reduction()
        for fairness in (None, 20.0):
            horizon = GreedyHorizon(depth=3)
            got = greedy_increment(
                regions, reduction, 1.0, fairness=fairness, horizon=horizon
            )
            assert_results_identical(
                greedy_increment_reference(regions, reduction, 1.0, fairness=fairness), got
            )
            assert _horizon_state(horizon) == (3, 0, 0, 0, 0)


def _convex_reduction(kappa=40):
    """f with strictly falling rates: every region's gain falls per column."""
    knots = np.linspace(5.0, 5.0 + kappa, kappa + 1)
    return PiecewiseLinearReduction(knots, 0.1 + 0.9 * 0.85 ** np.arange(kappa + 1))


class TestHorizonCounters:
    """What the hint learns and what the counters report, deterministically."""

    def _regions(self, count=30, seed=4, zero_mass=0):
        rng = np.random.default_rng(seed)
        rows = [
            (float(rng.uniform(20, 30)), float(rng.uniform(2, 3)), float(rng.uniform(2, 3)))
            for _ in range(count)
        ]
        rows += [(float(rng.uniform(5, 50)), 0.0, 2.0) for _ in range(zero_mass)]
        return as_regions(rows)

    def test_shallow_budget_is_proved_at_the_floor(self):
        regions, reduction = self._regions(), _convex_reduction()
        horizon = GreedyHorizon()
        got = greedy_increment(regions, reduction, 0.95, horizon=horizon)
        assert_results_identical(greedy_increment_reference(regions, reduction, 0.95), got)
        assert horizon.counts.horizon_retries == 0
        assert horizon.last_columns == _MIN_HORIZON
        assert horizon.counts.table_entries == len(regions) * _MIN_HORIZON
        assert 1 <= horizon.depth < _MIN_HORIZON

    def test_deep_budget_retries_once_then_learns(self):
        regions, reduction = self._regions(), _convex_reduction()
        kappa = 40
        horizon = GreedyHorizon()
        ref = greedy_increment_reference(regions, reduction, 0.3)
        got = greedy_increment(regions, reduction, 0.3, horizon=horizon)
        assert_results_identical(ref, got)
        assert (horizon.counts.horizon_retries, horizon.last_columns) == (1, kappa)
        assert horizon.counts.table_entries == len(regions) * (_MIN_HORIZON + kappa)
        learned = horizon.depth
        assert _MIN_HORIZON <= learned < kappa // 2
        # The learned depth proves the next solve without a retry.
        got = greedy_increment(regions, reduction, 0.3, horizon=horizon)
        assert_results_identical(ref, got)
        assert (horizon.counts.horizon_retries, horizon.last_columns) == (1, 2 * learned)
        assert horizon.depth == learned

    def test_zero_mass_regions_ride_the_head_block(self):
        """Infinite-gain regions march all κ columns without entering the
        sort: the finite regions still solve at the floor — or, when
        fairness engages inside the head, build nothing at all."""
        regions = self._regions(count=20, zero_mass=6)
        reduction = _convex_reduction()
        for fairness, sorted_entries in ((None, 20 * _MIN_HORIZON), (20.0, 0)):
            horizon = GreedyHorizon()
            ref = greedy_increment_reference(regions, reduction, 0.6, fairness=fairness)
            got = greedy_increment(
                regions, reduction, 0.6, fairness=fairness, horizon=horizon
            )
            assert_results_identical(ref, got, f"fairness {fairness}")
            assert horizon.counts.horizon_retries == 0
            assert horizon.counts.head_entries == 6 * 40
            assert horizon.counts.table_entries == sorted_entries

    def test_a_query_free_child_rides_the_head_not_full_kappa(self):
        """A stacked row with one query-free child pops that child's κ
        entries in closed form and builds only its other three regions'
        horizon columns; the row beside it, without one, builds all four."""
        stacked = np.array(
            [
                [(30.0, 2.5, 2.0), (25.0, 3.0, 2.0), (28.0, 2.0, 2.0), (20.0, 0.0, 2.0)],
                [(30.0, 2.5, 2.0), (25.0, 3.0, 2.0), (28.0, 2.0, 2.0), (20.0, 1.0, 2.0)],
            ]
        )
        reduction = _convex_reduction()
        horizon = GreedyHorizon()
        batch = greedy_increment_arrays(
            stacked[..., 0], stacked[..., 1], stacked[..., 2],
            _as_piecewise(reduction, None), 0.6, True, horizon,
        )
        for p, stats in enumerate(stacked):
            ref = greedy_increment_reference(
                as_regions(map(tuple, stats)), reduction, 0.6, use_speed=True
            )
            assert_results_identical(ref, batch[p], f"row {p}")
        assert batch[0].thresholds[3] == reduction.delta_max
        assert horizon.counts.snapshot() == {
            "table_entries": (3 + 4) * _MIN_HORIZON, "head_entries": 40, "horizon_retries": 0,
        }

    def test_a_hint_from_nowhere_costs_a_retry_never_a_result(self):
        regions, reduction = self._regions(), _convex_reduction()
        ref = greedy_increment_reference(regions, reduction, 0.3)
        for depth in (0, 1, 3, 8, 1_000):
            horizon = GreedyHorizon(depth=depth)
            got = greedy_increment(regions, reduction, 0.3, horizon=horizon)
            assert_results_identical(ref, got, f"depth {depth}")
            assert horizon.counts.horizon_retries == (depth < 8)
