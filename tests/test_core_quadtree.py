"""Unit tests for the region hierarchy (Stage I of GRIDREDUCE)."""

import numpy as np
import pytest

from repro.core import RegionHierarchy, StatisticsGrid
from repro.geo import Rect

BOUNDS = Rect(0.0, 0.0, 80.0, 80.0)


def _grid_with(positions, speeds=None, alpha=8) -> StatisticsGrid:
    return StatisticsGrid.from_snapshot(BOUNDS, alpha, np.asarray(positions), speeds)


class TestConstruction:
    def test_rejects_non_power_of_two_alpha(self):
        grid = StatisticsGrid(BOUNDS, 6)
        with pytest.raises(ValueError):
            RegionHierarchy(grid)

    def test_depth_and_node_count(self):
        grid = StatisticsGrid(BOUNDS, 8)
        h = RegionHierarchy(grid)
        assert h.depth == 3
        assert h.num_nodes() == (4**4 - 1) // 3  # 85 = 64 + 16 + 4 + 1

    def test_alpha_one_hierarchy(self):
        grid = StatisticsGrid(BOUNDS, 1)
        h = RegionHierarchy(grid)
        assert h.depth == 0
        assert h.is_leaf(h.root)


class TestAggregation:
    def test_root_aggregates_everything(self, rng):
        positions = rng.uniform(0, 80, size=(100, 2))
        speeds = rng.uniform(1, 10, size=100)
        h = RegionHierarchy(_grid_with(positions, speeds))
        assert h.root.n == pytest.approx(100.0)
        assert h.root.s == pytest.approx(speeds.mean(), rel=1e-9)

    def test_children_sum_to_parent(self, rng):
        positions = rng.uniform(0, 80, size=(200, 2))
        h = RegionHierarchy(_grid_with(positions))
        for level in range(h.depth):
            side = 1 << level
            for i in range(side):
                for j in range(side):
                    node = h.node(level, i, j)
                    children = h.children(node)
                    assert sum(c.n for c in children) == pytest.approx(node.n)
                    assert sum(c.m for c in children) == pytest.approx(node.m)

    def test_speed_aggregation_is_node_weighted(self):
        # 3 nodes at 10 m/s in one quadrant, 1 node at 2 m/s in another.
        positions = [[5.0, 5.0], [6.0, 6.0], [7.0, 7.0], [75.0, 75.0]]
        speeds = np.array([10.0, 10.0, 10.0, 2.0])
        h = RegionHierarchy(_grid_with(positions, speeds))
        assert h.root.s == pytest.approx((3 * 10 + 2) / 4)

    def test_empty_region_has_zero_speed(self):
        h = RegionHierarchy(_grid_with([[5.0, 5.0]]))
        # The far quadrant is empty.
        far = h.node(1, 1, 1)
        assert far.n == 0.0
        assert far.s == 0.0


class TestNavigation:
    def test_root_rect_is_bounds(self):
        h = RegionHierarchy(StatisticsGrid(BOUNDS, 4))
        assert h.root.rect == Rect(0.0, 0.0, 80.0, 80.0)

    def test_children_tile_parent_rect(self):
        h = RegionHierarchy(StatisticsGrid(BOUNDS, 4))
        children = h.children(h.root)
        assert len(children) == 4
        assert sum(c.rect.area for c in children) == pytest.approx(h.root.rect.area)

    def test_leaf_rect_matches_grid_cell(self):
        grid = StatisticsGrid(BOUNDS, 4)
        h = RegionHierarchy(grid)
        leaf = h.node(h.depth, 2, 3)
        assert leaf.rect == Rect(40.0, 60.0, 60.0, 80.0)  # cell (2, 3) of 4x4 over 80x80

    def test_leaves_have_no_children(self):
        h = RegionHierarchy(StatisticsGrid(BOUNDS, 2))
        leaf = h.node(1, 0, 0)
        assert h.is_leaf(leaf)
        assert h.children(leaf) == ()

    def test_node_bounds_checked(self):
        h = RegionHierarchy(StatisticsGrid(BOUNDS, 4))
        with pytest.raises(IndexError):
            h.node(0, 1, 0)
        with pytest.raises(IndexError):
            h.node(5, 0, 0)

    def test_leaf_statistics_match_grid(self, rng):
        positions = rng.uniform(0, 80, size=(60, 2))
        grid = _grid_with(positions)
        h = RegionHierarchy(grid)
        for i in range(grid.alpha):
            for j in range(grid.alpha):
                assert h.node(h.depth, i, j).n == pytest.approx(grid.n[i, j])
