"""Unit tests for GRIDREDUCE partitioning (Stage II + helpers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RegionHierarchy,
    StatisticsGrid,
    effective_region_count,
    grid_reduce,
    uniform_partitioning,
)
from repro.geo import Point, Rect
from repro.queries import RangeQuery

from tests.oracles.gridreduce import calc_err_gain, grid_reduce_reference

BOUNDS = Rect(0.0, 0.0, 160.0, 160.0)


def _skewed_grid(alpha=8) -> StatisticsGrid:
    """Dense nodes+queries in one corner, sparse elsewhere."""
    rng = np.random.default_rng(17)
    dense = rng.uniform(0, 40, size=(300, 2))
    sparse = rng.uniform(0, 160, size=(60, 2))
    positions = np.vstack([dense, sparse])
    speeds = rng.uniform(5, 15, size=len(positions))
    queries = [
        RangeQuery(k, Rect.from_center(Point(*rng.uniform(0, 40, 2)), 10.0))
        for k in range(10)
    ]
    return StatisticsGrid.from_snapshot(BOUNDS, alpha, positions, speeds, queries)


class TestEffectiveRegionCount:
    def test_valid_counts_pass_through(self):
        for l in (1, 4, 7, 250):
            assert effective_region_count(l) == l

    def test_invalid_counts_round_down(self):
        assert effective_region_count(2) == 1
        assert effective_region_count(3) == 1
        assert effective_region_count(5) == 4
        assert effective_region_count(6) == 4
        assert effective_region_count(100) == 100

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            effective_region_count(0)


class TestGridReduce:
    def test_produces_requested_region_count(self, reduction):
        hierarchy = RegionHierarchy(_skewed_grid())
        pw = reduction.piecewise(19)
        for l in (1, 4, 13, 25):
            result = grid_reduce(hierarchy, l, 0.5, pw)
            assert result.num_regions == effective_region_count(l)

    def test_regions_tile_the_space(self, reduction):
        hierarchy = RegionHierarchy(_skewed_grid())
        result = grid_reduce(hierarchy, 25, 0.5, reduction.piecewise(19))
        total_area = sum(r.rect.area for r in result.regions)
        assert total_area == pytest.approx(BOUNDS.area)
        for a in result.regions:
            for b in result.regions:
                if a is not b:
                    assert not a.rect.intersects(b.rect)

    def test_statistics_preserved_by_partitioning(self, reduction):
        grid = _skewed_grid()
        hierarchy = RegionHierarchy(grid)
        result = grid_reduce(hierarchy, 13, 0.5, reduction.piecewise(19))
        assert sum(r.n for r in result.regions) == pytest.approx(grid.total_nodes)
        assert sum(r.m for r in result.regions) == pytest.approx(grid.total_queries)

    def test_drills_into_heterogeneous_areas(self, reduction):
        """The dense corner should receive smaller regions than the rest."""
        hierarchy = RegionHierarchy(_skewed_grid())
        result = grid_reduce(hierarchy, 25, 0.5, reduction.piecewise(19))
        corner_sizes = [
            r.rect.area for r in result.regions if r.rect.x1 < 40 and r.rect.y1 < 40
        ]
        far_sizes = [
            r.rect.area for r in result.regions if r.rect.x1 >= 80 and r.rect.y1 >= 80
        ]
        assert min(corner_sizes) < min(far_sizes)

    def test_l_capped_by_leaf_count(self, reduction):
        # alpha=2 has only 4 leaves; asking for more stops early.
        grid = StatisticsGrid.from_snapshot(
            BOUNDS, 2, np.random.default_rng(1).uniform(0, 160, (50, 2))
        )
        hierarchy = RegionHierarchy(grid)
        result = grid_reduce(hierarchy, 100, 0.5, reduction.piecewise(10))
        assert result.num_regions == 4

    def test_l_one_returns_root(self, reduction):
        hierarchy = RegionHierarchy(_skewed_grid())
        result = grid_reduce(hierarchy, 1, 0.5, reduction.piecewise(10))
        assert result.num_regions == 1
        assert result.regions[0].rect == BOUNDS


class TestGatheredRegions:
    """The per-level gather hands off exactly what ``hierarchy.node`` boxes."""

    def test_regions_equal_boxed_nodes_at_every_level(self, reduction):
        hierarchy = RegionHierarchy(_skewed_grid(alpha=16))
        pw = reduction.piecewise(19)
        seen_levels = set()
        for l in (1, 4, 7, 16, 40, 100, 250, 400):
            for reduce in (grid_reduce_reference, grid_reduce):
                result = reduce(hierarchy, l, 0.5, pw)
                assert result.coords == sorted(result.coords)
                assert len(result.coords) == result.num_regions
                for coord, region in zip(result.coords, result.regions):
                    boxed = hierarchy.node(*coord)
                    assert (region.rect, region.n, region.m, region.s) == (
                        boxed.rect, boxed.n, boxed.m, boxed.s,
                    )
                    # One shared rectangle per coordinate, not one per round.
                    assert region.rect is hierarchy.rect(*coord)
                    seen_levels.add(coord[0])
        assert seen_levels == set(range(hierarchy.depth + 1))

    def test_rect_is_bounds_checked(self):
        hierarchy = RegionHierarchy(_skewed_grid())
        for coord in ((4, 0, 0), (1, 2, 0), (1, 0, -1)):
            with pytest.raises(IndexError):
                hierarchy.rect(*coord)
            with pytest.raises(IndexError):
                hierarchy.node(*coord)


class TestFrontierLookahead:
    """Fall-through scoring speculates only where a pop is coming."""

    def test_skips_zero_gain_leaf_parent_and_scored_entries(self):
        from repro.core.gridreduce import _FRONTIER_LOOKAHEAD, _children, _frontier

        depth = 4
        heap = [
            (-9.0, 1, 3, 1, 1),  # children are leaves: nothing to score
            (-8.0, 2, 1, 0, 1),  # children already scored
            (0.0, 3, 1, 1, 1),  # zero gain: popped last, if ever
            (0.0, 4, depth, 5, 5),  # a leaf
        ] + [(-float(g), 10 + g, 2, g, 0) for g in range(1, 4)] + [
            (-0.5, 20, 1, 1, 0),
            (-0.25, 21, 1, 0, 0),
        ]
        gains = dict.fromkeys(_children(1, 0, 1), 1.0)
        wanted = _frontier(heap, gains, depth)
        best = [(2, 3, 0), (2, 2, 0), (2, 1, 0), (1, 1, 0)]
        assert len(best) == _FRONTIER_LOOKAHEAD
        assert wanted == [c for node in best for c in _children(*node)]
        # With slots to spare, the skipped entries still do not fill them.
        assert _frontier(heap[:6], gains, depth) == [
            c for node in [(2, 2, 0), (2, 1, 0)] for c in _children(*node)
        ]

    def test_no_speculation_outside_the_queried_quadrant(self, reduction):
        from repro.core.incremental import IncrementalGridReduceCache

        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 160, (600, 2))
        queries = [
            RangeQuery(k, Rect.from_center(Point(*rng.uniform(10, 70, 2)), 8.0))
            for k in range(12)
        ]
        grid = StatisticsGrid.from_snapshot(
            BOUNDS, 16, positions, rng.uniform(5, 15, 600), queries
        )
        hierarchy = RegionHierarchy(grid)
        cache = IncrementalGridReduceCache()
        pw = reduction.piecewise(19)
        result = grid_reduce(hierarchy, 25, 0.5, pw, cache=cache)
        assert result.regions == grid_reduce_reference(hierarchy, 25, 0.5, pw).regions
        pushed = set(cache.trajectory)
        speculated = {
            (level, int(i), int(j))
            for level, (_, _, valid) in cache.levels.items()
            for i, j in zip(*np.nonzero(valid))
        } - pushed
        assert speculated  # the lookahead did run ahead of the pops
        assert hierarchy.depth not in cache.levels
        for level, i, j in sorted(speculated):
            # Quadrants without queries have m == 0, hence gain 0.
            assert max(i, j) < 1 << (level - 1)
            assert hierarchy.node(level - 1, i // 2, j // 2).m > 0.0


@st.composite
def _grids(draw):
    """Random grids, degenerate ones included: no queries, no nodes, all
    mass in one cell, a single cell."""
    alpha = draw(st.sampled_from([1, 2, 4, 8, 16]))
    shape = draw(st.sampled_from(["mixed", "no-queries", "no-nodes", "one-cell"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = StatisticsGrid(BOUNDS, alpha)
    # Small integer counts: equal gains, and so ties, are common.
    grid.n = rng.integers(0, 6, (alpha, alpha)) * (rng.random((alpha, alpha)) < 0.6)
    grid.m = rng.integers(0, 4, (alpha, alpha)) * (rng.random((alpha, alpha)) < 0.4)
    if shape == "no-queries":
        grid.m = np.zeros_like(grid.m)
    elif shape == "no-nodes":
        grid.n = np.zeros_like(grid.n)
    elif shape == "one-cell":
        i, j = rng.integers(0, alpha, 2)
        n, m = grid.n.sum() + 1, grid.m.sum() + 1
        grid.n, grid.m = np.zeros((alpha, alpha)), np.zeros((alpha, alpha))
        grid.n[i, j], grid.m[i, j] = n, m
    grid.n, grid.m = grid.n.astype(np.float64), grid.m.astype(np.float64)
    grid.s = np.where(grid.n > 0, rng.uniform(1.0, 30.0, (alpha, alpha)), 0.0)
    return grid


class TestColdHint:
    """A from-scratch round scores a hint derived from its own hierarchy;
    the hint can only waste rows, never change the partitioning."""

    @settings(deadline=None, max_examples=80)
    @given(
        grid=_grids(),
        l=st.integers(min_value=1, max_value=300),
        z=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_bare_run_equals_reference(self, reduction, grid, l, z):
        pw = reduction.piecewise(19)
        hierarchy = RegionHierarchy(grid)
        result = grid_reduce(hierarchy, l, z, pw)
        reference = grid_reduce_reference(hierarchy, l, z, pw)
        assert result.regions == reference.regions
        assert result.expansions == reference.expansions

    def test_ineligible_root_hints_itself_only(self, reduction):
        """No queries (or no nodes) anywhere: every gain is 0, so the
        hint — the service's start-time adapt, before any report — scores
        nothing beyond the root."""
        from repro.core.gridreduce import _cold_hint
        from repro.core.incremental import IncrementalGridReduceCache

        for queries in ([], [RangeQuery(0, Rect(0.0, 0.0, 40.0, 40.0))]):
            positions = np.random.default_rng(4).uniform(0, 160, (50, 2))
            if queries:
                positions = positions[:0]
            hierarchy = RegionHierarchy(
                StatisticsGrid.from_snapshot(BOUNDS, 8, positions, None, queries)
            )
            assert _cold_hint(hierarchy, 25) == [(0, 0, 0)]
            cache = IncrementalGridReduceCache()
            grid_reduce(hierarchy, 25, 0.5, reduction.piecewise(19), cache=cache)
            assert cache.counts.gain_rows_solved == 0


class TestCalcErrGain:
    def test_leaf_gain_is_zero(self, reduction):
        hierarchy = RegionHierarchy(_skewed_grid())
        leaf = hierarchy.node(hierarchy.depth, 0, 0)
        assert calc_err_gain(hierarchy, leaf, 0.5, reduction.piecewise(10)) == 0.0

    def test_query_free_node_gain_is_zero(self, reduction):
        grid = StatisticsGrid.from_snapshot(
            BOUNDS, 4, np.random.default_rng(2).uniform(0, 160, (50, 2))
        )
        hierarchy = RegionHierarchy(grid)
        assert (
            calc_err_gain(hierarchy, hierarchy.root, 0.5, reduction.piecewise(10))
            == 0.0
        )

    def test_heterogeneous_node_has_positive_gain(self, reduction):
        hierarchy = RegionHierarchy(_skewed_grid())
        gain = calc_err_gain(hierarchy, hierarchy.root, 0.5, reduction.piecewise(19))
        assert gain > 0.0

    def test_homogeneous_node_has_lower_gain_than_heterogeneous(self, reduction):
        rng = np.random.default_rng(5)
        pw = reduction.piecewise(19)
        # Homogeneous: nodes and queries spread uniformly.
        homo_positions = rng.uniform(0, 160, (400, 2))
        homo_queries = [
            RangeQuery(k, Rect.from_center(Point(*rng.uniform(20, 140, 2)), 10.0))
            for k in range(8)
        ]
        homo = RegionHierarchy(
            StatisticsGrid.from_snapshot(BOUNDS, 4, homo_positions, None, homo_queries)
        )
        hetero = RegionHierarchy(_skewed_grid(alpha=4))
        homo_gain = calc_err_gain(homo, homo.root, 0.5, pw)
        hetero_gain = calc_err_gain(hetero, hetero.root, 0.5, pw)
        assert hetero_gain > homo_gain


class TestUniformPartitioning:
    def test_region_count_is_square(self):
        grid = _skewed_grid(alpha=8)
        result = uniform_partitioning(grid, 250)
        assert result.num_regions == 15 * 15 or result.num_regions == 8 * 8
        # k = min(floor(sqrt(250)), alpha) = min(15, 8) = 8 here.
        assert result.num_regions == 64

    def test_regions_tile_space(self):
        grid = _skewed_grid(alpha=8)
        result = uniform_partitioning(grid, 16)
        assert result.num_regions == 16
        assert sum(r.rect.area for r in result.regions) == pytest.approx(BOUNDS.area)

    def test_statistics_preserved(self):
        grid = _skewed_grid(alpha=8)
        result = uniform_partitioning(grid, 16)
        assert sum(r.n for r in result.regions) == pytest.approx(grid.total_nodes)
        assert sum(r.m for r in result.regions) == pytest.approx(grid.total_queries)

    def test_l_one(self):
        grid = _skewed_grid(alpha=8)
        result = uniform_partitioning(grid, 1)
        assert result.num_regions == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            uniform_partitioning(_skewed_grid(), 0)
