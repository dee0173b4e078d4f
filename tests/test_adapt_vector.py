"""Equivalence tests for the vectorized adapt path (GRIDREDUCE + GREEDYINCREMENT).

The array kernels in :mod:`repro.core.greedy_vector` and the batched
CALCERRGAIN in :mod:`repro.core.gridreduce` promise *bit-identical*
results to the scalar reference loops in ``tests/oracles`` — same thresholds (to the last
ulp), same expenditure, same step counts, same partitioning.  These
tests enforce that contract with hypothesis-driven random problems,
hand-built edge cases (budget landings, gain ties, flat reduction
tails, zero-weight regions, the PR-5 fairness resolution floor), and
full-pipeline plan comparisons on snapshot grids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LiraConfig,
    LiraLoadShedder,
    PiecewiseLinearReduction,
    RegionHierarchy,
    StatisticsGrid,
    greedy_increment,
    grid_reduce,
)
from repro.core.greedy import RegionStats
from repro.core.greedy_vector import greedy_increment_arrays
from repro.geo import Rect
from repro.queries import RangeQuery

from tests.oracles.greedy import greedy_increment_reference
from tests.oracles.gridreduce import grid_reduce_reference, reference_plan

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def piecewise_reductions(draw):
    """Non-increasing piecewise-linear f with f(delta_min) = 1.

    Zero-drop segments are common (probability mass at 0.0) so the
    kernels regularly see flat tails: zero rates, infinite sort keys,
    and the round-robin inf-section pop order.
    """
    n_segments = draw(st.integers(min_value=1, max_value=10))
    drops = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.4)),
            min_size=n_segments,
            max_size=n_segments,
        )
    )
    values = [1.0]
    for d in drops:
        values.append(max(values[-1] - d, 0.0))
    knots = np.linspace(5.0, 5.0 + 7.0 * n_segments, n_segments + 1)
    return PiecewiseLinearReduction(knots, np.array(values))


@st.composite
def region_lists(draw):
    """Region statistics with deliberate zero-weight / zero-m regions."""
    count = draw(st.integers(min_value=1, max_value=8))
    regions = []
    for i in range(count):
        n = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=80.0)))
        m = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=12.0)))
        s = draw(st.floats(min_value=0.0, max_value=6.0))
        regions.append(
            RegionStats(rect=Rect(i, 0.0, i + 1.0, 1.0), n=n, m=m, s=s)
        )
    return regions


fairness_values = st.one_of(
    st.none(),
    st.just(0.0),
    st.just(1e-6),  # below the PR-5 resolution floor -> uniform solution
    st.floats(min_value=0.5, max_value=120.0),
)

z_values = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
)


def assert_results_identical(obj, vec, label=""):
    np.testing.assert_array_equal(
        obj.thresholds, vec.thresholds, err_msg=f"thresholds {label}"
    )
    assert obj.expenditure == vec.expenditure, label
    assert obj.budget == vec.budget, label
    assert obj.inaccuracy == vec.inaccuracy, label
    assert obj.steps == vec.steps, label
    assert obj.budget_met == vec.budget_met, label


# ---------------------------------------------------------------------------
# GREEDYINCREMENT kernel equivalence
# ---------------------------------------------------------------------------


class TestGreedyVectorEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        regions=region_lists(),
        reduction=piecewise_reductions(),
        z=z_values,
        fairness=fairness_values,
        use_speed=st.booleans(),
    )
    def test_random_problems_bit_identical(
        self, regions, reduction, z, fairness, use_speed
    ):
        obj = greedy_increment_reference(
            regions, reduction, z, fairness=fairness,
            use_speed=use_speed,
        )
        vec = greedy_increment(
            regions, reduction, z, fairness=fairness,
            use_speed=use_speed,
        )
        assert_results_identical(obj, vec)

    def test_fairness_floor_edge_matches(self):
        """PR-5 regression: Δ⇔ far below the Δ domain degenerates to the
        uniform solution on both engines (no lockstep march)."""
        regions = [
            RegionStats(rect=Rect(i, 0, i + 1, 1), n=10.0 + i, m=1.0, s=1.0)
            for i in range(4)
        ]
        reduction = PiecewiseLinearReduction(
            np.linspace(5.0, 100.0, 20), np.linspace(1.0, 0.1, 20)
        )
        for fairness in (1e-9, 1e-6, (100.0 - 5.0) * 1e-4 * 0.999):
            obj = greedy_increment_reference(
                regions, reduction, 0.5, fairness=fairness
            )
            vec = greedy_increment(
                regions, reduction, 0.5, fairness=fairness
            )
            assert_results_identical(obj, vec, f"fairness={fairness}")
            spread = vec.thresholds.max() - vec.thresholds.min()
            assert spread == 0.0  # uniform-Δ degenerate solution

    def test_budget_landing_partial_step(self):
        """A mid-segment budget landing (the vector kernel's one-pop
        fast path) produces the exact partial Δ the reference computes."""
        regions = [
            RegionStats(rect=Rect(0, 0, 1, 1), n=30.0, m=2.0, s=1.0),
            RegionStats(rect=Rect(1, 0, 2, 1), n=7.0, m=5.0, s=1.0),
        ]
        reduction = PiecewiseLinearReduction(
            np.linspace(5.0, 65.0, 7), np.array([1.0, 0.8, 0.55, 0.4, 0.3, 0.25, 0.22])
        )
        for z in (0.31, 0.415, 0.77):
            obj = greedy_increment_reference(regions, reduction, z)
            vec = greedy_increment(regions, reduction, z)
            assert_results_identical(obj, vec, f"z={z}")
            # The landing really is mid-segment (not knot-aligned).
            offsets = (vec.thresholds - 5.0) / reduction.segment_size
            assert not np.allclose(offsets, np.round(offsets))

    def test_cross_region_gain_ties(self):
        """Identical regions produce equal gain keys across regions; the
        vector kernel must reproduce the reference's counter-order pops."""
        clone = dict(n=20.0, m=3.0, s=1.0)
        regions = [
            RegionStats(rect=Rect(i, 0, i + 1, 1), **clone) for i in range(5)
        ]
        reduction = PiecewiseLinearReduction(
            np.linspace(5.0, 55.0, 6), np.array([1.0, 0.7, 0.5, 0.38, 0.31, 0.27])
        )
        for z, fairness in ((0.3, None), (0.55, None), (0.4, 25.0)):
            obj = greedy_increment_reference(
                regions, reduction, z, fairness=fairness
            )
            vec = greedy_increment(
                regions, reduction, z, fairness=fairness
            )
            assert_results_identical(obj, vec, f"z={z} fairness={fairness}")

    def test_flat_tail_reduction(self):
        """Zero-rate segments (flat f) yield zero gains / infinite keys."""
        regions = [
            RegionStats(rect=Rect(i, 0, i + 1, 1), n=5.0 * (i + 1), m=1.0, s=0.0)
            for i in range(3)
        ]
        reduction = PiecewiseLinearReduction(
            np.linspace(5.0, 45.0, 5), np.array([1.0, 0.6, 0.6, 0.2, 0.2])
        )
        for z in (0.1, 0.35, 0.6, 0.9):
            for fairness in (None, 15.0):
                obj = greedy_increment_reference(
                    regions, reduction, z, fairness=fairness,
                    use_speed=False,
                )
                vec = greedy_increment(
                    regions, reduction, z, fairness=fairness,
                    use_speed=False,
                )
                assert_results_identical(obj, vec, f"z={z} fairness={fairness}")


# ---------------------------------------------------------------------------
# Batched kernels (greedy_increment_arrays / _batch)
# ---------------------------------------------------------------------------


class TestBatchedKernels:
    @settings(max_examples=40, deadline=None)
    @given(
        reduction=piecewise_reductions(),
        z=st.floats(min_value=0.0, max_value=1.0),
        use_speed=st.booleans(),
        data=st.data(),
    )
    def test_arrays_match_per_problem_reference(
        self, reduction, z, use_speed, data
    ):
        p_count = data.draw(st.integers(min_value=1, max_value=6))
        a = data.draw(st.integers(min_value=1, max_value=5))
        n = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0),
                min_size=p_count * a, max_size=p_count * a,
            )
        )
        m = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=8.0),
                min_size=p_count * a, max_size=p_count * a,
            )
        )
        s = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=4.0),
                min_size=p_count * a, max_size=p_count * a,
            )
        )
        n = np.array(n).reshape(p_count, a)
        m = np.array(m).reshape(p_count, a)
        s = np.array(s).reshape(p_count, a)
        from repro.core.greedy import _as_piecewise

        pw = _as_piecewise(reduction, None)
        results = greedy_increment_arrays(n, m, s, pw, z, use_speed)
        assert len(results) == p_count
        for p in range(p_count):
            regions = [
                RegionStats(
                    rect=Rect(j, 0, j + 1, 1), n=n[p, j], m=m[p, j], s=s[p, j]
                )
                for j in range(a)
            ]
            obj = greedy_increment_reference(
                regions, reduction, z, fairness=None,
                use_speed=use_speed,
            )
            assert_results_identical(obj, results[p], f"problem {p}")

    def test_batch_results_independent_of_grouping(self):
        """Every array op is row-local, so batch composition must not
        change any problem's result."""
        rng = np.random.default_rng(3)
        n = rng.uniform(0.0, 40.0, (6, 4))
        m = rng.uniform(0.0, 5.0, (6, 4))
        s = rng.uniform(0.0, 3.0, (6, 4))
        reduction = PiecewiseLinearReduction(
            np.linspace(5.0, 85.0, 9), np.minimum.accumulate(
                np.concatenate([[1.0], rng.uniform(0.05, 0.95, 8)])
            )
        )
        from repro.core.greedy import _as_piecewise

        pw = _as_piecewise(reduction, None)
        whole = greedy_increment_arrays(n, m, s, pw, 0.5, True)
        for p in range(6):
            solo = greedy_increment_arrays(
                n[p : p + 1], m[p : p + 1], s[p : p + 1], pw, 0.5, True
            )[0]
            assert_results_identical(whole[p], solo, f"problem {p}")

    def test_batch_wrapper_matches_region_lists(self):
        rng = np.random.default_rng(5)
        reduction = PiecewiseLinearReduction(
            np.linspace(5.0, 45.0, 5), np.array([1.0, 0.5, 0.3, 0.2, 0.15])
        )
        from repro.core.greedy import _as_piecewise

        pw = _as_piecewise(reduction, None)
        problems = [
            [
                RegionStats(
                    rect=Rect(j, 0, j + 1, 1),
                    n=float(rng.uniform(0, 30)),
                    m=float(rng.uniform(0, 4)),
                    s=float(rng.uniform(0, 2)),
                )
                for j in range(4)
            ]
            for _ in range(5)
        ]
        n, m, s = (
            np.array([[getattr(reg, stat) for reg in problem] for problem in problems])
            for stat in "nms"
        )
        batched = greedy_increment_arrays(n, m, s, pw, 0.4, True)
        for problem, got in zip(problems, batched):
            obj = greedy_increment_reference(problem, reduction, 0.4)
            assert_results_identical(obj, got)


# ---------------------------------------------------------------------------
# Full-pipeline equivalence: partitioning and plans
# ---------------------------------------------------------------------------


def _snapshot_grid(seed, alpha=16, n_nodes=300, n_queries=12, side=1000.0):
    rng = np.random.default_rng(seed)
    bounds = Rect(0.0, 0.0, side, side)
    positions = rng.uniform(0.0, side, (n_nodes, 2))
    speeds = rng.uniform(0.2, 4.0, n_nodes)
    queries = []
    for q in range(n_queries):
        x, y = rng.uniform(0.0, side * 0.9, 2)
        w, h = rng.uniform(side * 0.02, side * 0.12, 2)
        queries.append(
            RangeQuery(q, Rect(x, y, min(x + w, side), min(y + h, side)))
        )
    return StatisticsGrid.from_snapshot(bounds, alpha, positions, speeds, queries)


class TestAdaptPipelineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_grid_reduce_partitioning_identical(self, seed):
        grid = _snapshot_grid(seed)
        hierarchy = RegionHierarchy(grid)
        reduction = PiecewiseLinearReduction(
            np.linspace(5.0, 100.0, 96),
            np.minimum.accumulate(
                np.concatenate(
                    [[1.0], np.sort(np.random.default_rng(seed).uniform(0.05, 0.95, 95))[::-1]]
                )
            ),
        )
        obj = grid_reduce_reference(hierarchy, 13, 0.5, reduction)
        vec = grid_reduce(hierarchy, 13, 0.5, reduction)
        assert obj.expansions == vec.expansions
        assert len(obj.regions) == len(vec.regions)
        for ro, rv in zip(obj.regions, vec.regions):
            assert ro.rect == rv.rect
            assert ro.n == rv.n and ro.m == rv.m and ro.s == rv.s

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fairness", [None, 50.0])
    def test_shedder_plans_identical(self, seed, fairness):
        grid = _snapshot_grid(seed, alpha=32, n_nodes=500)
        reduction = PiecewiseLinearReduction(
            np.linspace(5.0, 100.0, 96),
            np.minimum.accumulate(
                np.concatenate(
                    [[1.0], np.sort(np.random.default_rng(seed + 7).uniform(0.05, 0.95, 95))[::-1]]
                )
            ),
        )
        config = LiraConfig(l=13, alpha=32, fairness=fairness)
        shedder = LiraLoadShedder(config, reduction)
        shedder.set_throttle_fraction(0.5)
        obj, vec = reference_plan(config, reduction, grid, 0.5), shedder.adapt(grid)
        assert len(obj.regions) == len(vec.regions)
        for ro, rv in zip(obj.regions, vec.regions):
            assert ro.rect == rv.rect
            assert ro.delta == rv.delta  # bit-identical thresholds
            assert ro.n == rv.n and ro.m == rv.m and ro.s == rv.s
